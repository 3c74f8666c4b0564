"""The sinc kernel sin(R|xi|)/|xi| as the wave propagator T_R, and its
radial-derivative identities.

T_R is the solver's velocity term: c_N (1/R d/dR)^m of the r^(N-2)-scaled
sphere means over S^(N-1) (`solvers.means_series`), with N = n for odd n and
N = n + 1 by descent for even n. `DistributionFunctional.action` applies it to
a test function, `identity_records` to the plane wave e^{-i x.xi}, one block of
draws per sphere sum and chain (one query is a batch of one), and
`normalization_constant` to the constant 1; the last two sum on the reduced
rule of radial data (`geometry._radial_rule`).
`means_series` is the only code here that turns sphere sums into samples; the
direct weighted ball mean (`solvers.weighted_ball_mean`) stays as the test
oracle of the descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, EvaluationError
from .fields import constant
from .geometry import (
    _CHUNK_BYTES,
    DEFAULT_OSC_NODES,
    Dimension,
    _leggauss,
    _omega,
    _osc_nodes,
    _radial_rule,
    solution_constant,
    sphere_quadrature_for_order,
    unit_ball_volume,
)
from .radial import chain_apply, default_spec, resolve_spec
from .solvers import means_rule, means_series

#: complex elements (16 bytes each) in the Fourier evaluator's largest per-chunk array
FOURIER_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class KernelQuery:
    """A frequency vector, a radius (or time) and the ambient dimension."""

    xi: np.ndarray
    radius: float
    dim: Dimension

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=np.float64)))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.dim.n < 2:
            raise ValueError("kernel identities need dimension >= 2")
        if self.xi.shape != (self.dim.n,):
            raise ValueError(f"xi must have {self.dim.n} components")

    @property
    def knorm(self) -> float:
        return float(np.linalg.norm(self.xi))


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityRecord:
    n: int
    radius: float
    knorm: float
    residual: float
    imag_residual: float
    h: float
    nodes: int


def identity_records(queries, specs=None,
                     base_nodes: int = DEFAULT_OSC_NODES) -> list[IdentityRecord]:
    """The identity's residual at each (xi, R) query, with its spec or the default:
    sin(R|xi|)/|xi| against the solver's psi term at the origin for the plane wave
    e^{-i |xi| y_1} on the reduced rule of S^(N-1), N = n + 1 - n % 2. All specs and
    node counts come first, so an oversized rule fails before any sum; then each block
    of one n, fit degree and node count that keeps the rule in one `sphere_sums` chunk
    takes one sum, chain and sinc ratio, giving each query the record it gets alone."""
    groups = {}
    for i, (query, spec) in enumerate(zip(queries, specs or [None] * len(queries), strict=True)):
        knorm, radius = query.knorm, query.radius
        _osc_nodes(knorm * radius, base_nodes)  # refuse an oversized rule before resolve_spec
        spec = resolve_spec(query.dim.derivative_order, radius, spec, oscillation=knorm)
        nodes = _osc_nodes(knorm * (radius + spec.h * spec.degree / 2.0), base_nodes)
        groups.setdefault((query.dim, spec.degree, nodes), []).append((i, radius, knorm, spec.h))
    records = [None] * len(queries)
    for (dim, degree, nodes), members in groups.items():
        n_means, m = dim.n + 1 - dim.n % 2, dim.derivative_order
        block = max(1, _CHUNK_BYTES // ((degree + 1) * n_means * 8 * nodes))
        for first in range(0, len(members), block):
            index, radius, knorm, h = zip(*members[first:first + block])
            t, k, step = np.array(radius), np.array(knorm), np.array(h)
            wave = np.repeat(k, degree + 1)[:, None]  # the frequency at each stencil radius
            samples = means_series(lambda points: np.exp(-1j * wave * points[..., 0]), 0.0,
                                   _radial_rule(n_means, n_means, nodes), t, degree, step)
            value = solution_constant(n_means) * chain_apply(samples, m, t, step)
            residual = abs(t * _kernels.sinc_ratio(t * k) - value.real)
            for row in zip(index, radius, knorm, residual, abs(value.imag), h):
                records[row[0]] = IdentityRecord(dim.n, *row[1:], nodes)
    return records


def identity_sweep(n: int, count: int, seed: int, max_product: float = 20.0,
                   base_nodes: int = DEFAULT_OSC_NODES) -> list[IdentityRecord]:
    """Residuals at `count` random (xi, R) draws, R in [0.5, 2) and
    R|xi| <= max_product, all in one `identity_records` call."""
    rng = np.random.default_rng(seed)
    dim = Dimension(n)
    queries = []
    for _ in range(count):
        radius = rng.uniform(0.5, 2.0)
        knorm = rng.uniform(0.0, max_product / radius)
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        xi = direction * (knorm / norm) if norm > 0 else np.zeros(n)
        queries.append(KernelQuery(xi, radius, dim))
    return identity_records(queries, base_nodes=base_nodes)


def normalization_constant(n: int, radius: float = 1.0,
                           base_nodes: int = DEFAULT_OSC_NODES) -> float:
    """The solution constant recovered from the xi = 0 limit.

    At xi = 0 the identity reads R = c_N (1/R d/dR)^m of the r^(N-2)-scaled
    sphere means of the constant 1, so c_N is R divided by the numerically
    computed derivative chain on the solver's means path, N = n for odd n
    and N = n + 1 for even n. Cross-checks the double-factorial product
    formula.
    """
    m = Dimension(n).derivative_order
    spec = default_spec(m, radius)
    n_means = n + 1 - n % 2
    samples = means_series(constant(n_means), 0.0, _radial_rule(n_means, n_means, base_nodes),
                           radius, spec.degree, spec.h)
    denominator = float(chain_apply(samples, m, radius, spec.h))
    if denominator == 0.0 or not math.isfinite(denominator):
        raise EvaluationError(f"the derivative chain at R = {radius:g} gave {denominator!r}")
    if n % 2:
        return radius / denominator
    # the weighted ball mean over B^n is omega_(n+1) / (2 v_n) times the sphere
    # mean over S^n, so the paper's 1/n!! is 1/(n-1)!! times 2 v_n / omega_(n+1)
    return radius / denominator * (2.0 * unit_ball_volume(n) / _omega(n + 1))


# ---------------------------------------------------------------------------
# The kernel as a compactly supported functional, and its Fourier duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionFunctional:
    """The functional whose Fourier transform is sin(R|xi|)/|xi|.

    Acts on a test function as the wave propagator does on the velocity:
    the solver's psi term at the origin and time R, the iterated radial
    derivative of the r^(N-2)-scaled sphere means (`solvers.means_series`)
    scaled by the solution constant, with even n by descent to N = n + 1.
    Its support is the closed ball of the given radius, so the action on
    anything vanishing near that ball is zero up to quadrature noise.
    """

    radius: float
    dim: Dimension

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.dim.n < 2:
            raise ValueError("functional defined for dimension >= 2")

    def action(self, test_fn, rule=None):
        """Apply the functional to a (possibly complex-valued) test function
        of points shaped (..., n), on the rule from `solvers.means_rule`.
        Raises ValueError above n = 10."""
        n = self.dim.n
        rule = means_rule(n, rule)
        spec = resolve_spec(self.dim.derivative_order, self.radius)
        samples = means_series(lambda points: test_fn(points[..., :n]), 0.0, rule, self.radius,
                               spec.degree, spec.h)
        return solution_constant(rule.n) * chain_apply(samples, spec.iterations, self.radius,
                                                       spec.h)


def make_fourier_evaluator(phi, nodes_per_axis: int = 64):
    """Quadrature evaluator for the Fourier integral of a compactly supported field.

    Returns (evaluator, freq_nodes, coeffs) where evaluator(points)
    computes integral of phi(xi) e^{-i x.xi} d(xi) at each point by a
    tensor-product Gauss-Legendre rule over phi's support box, and coeffs are
    the rule's weights times phi at the nodes, so phi is sampled once. On a tensor
    grid the sum over nodes factors axis by axis: the last axis is one
    complex matmul against a (nodes_per_axis, points) exponential table, and
    the others follow in `_kernels.contract_axes`, as the spectral probes' do.
    """
    n = phi.dim
    box = phi.support_radius
    if not math.isfinite(box):
        raise ConfigError("test function must declare a finite support radius")
    _check_support_box(phi, box)
    x, w = _leggauss(nodes_per_axis)
    axis_nodes = box * x
    nodes = np.stack(np.meshgrid(*([axis_nodes] * n), indexing="ij"), axis=-1).reshape(-1, n)
    weights = np.prod(np.meshgrid(*([box * w] * n), indexing="ij"), axis=0).ravel()
    coeffs = weights * phi(nodes)
    table_coeffs = coeffs.astype(np.complex128).reshape(-1, nodes_per_axis)
    # the (nodes_per_axis^(n-1), chunk) partial sum stays near FOURIER_CHUNK_ELEMENTS
    chunk = max(1, FOURIER_CHUNK_ELEMENTS // nodes_per_axis ** max(n - 1, 1))

    def evaluator(points):
        points = np.asarray(points, dtype=np.float64)
        flat = points.reshape(-1, n)
        out = np.empty(flat.shape[0], dtype=np.complex128)
        for start in range(0, flat.shape[0], chunk):
            block = flat[start:start + chunk]
            tables = [np.exp(-1j * np.outer(axis_nodes, block[:, d])) for d in range(n)]
            out[start:start + len(block)] = _kernels.contract_axes(table_coeffs @ tables[-1],
                                                                   tables[:-1])
        return out.reshape(points.shape[:-1])

    return evaluator, nodes, coeffs


def _check_support_box(phi, box: float) -> None:
    """Reject a support box whose boundary carries field mass above 1e-12."""
    coarse = np.linspace(-box, box, 7)  # its ends are -box and box exactly
    grid = np.stack(np.meshgrid(*[coarse] * phi.dim, indexing="ij"), axis=-1)
    worst = float(np.max(np.abs(phi(grid[np.any(np.abs(grid) == box, axis=-1)]))))
    if worst > 1e-12:
        raise ConfigError(
            f"support box half-width {box:g} too small: |phi| = {worst:.2e} on its boundary"
        )


def distribution_fourier_check(functional: DistributionFunctional, phi,
                               nodes_per_axis: int = 64) -> tuple[float, float]:
    """Compare T(phi_hat) against integral of sinc kernel times phi.

    Both sides are quadratures: the left applies the functional to the
    Fourier integral of phi; the right integrates the sinc kernel against
    phi over its support box. Equality (up to quadrature error) is the
    duality definition of the kernel as a Fourier transform.
    """
    if phi.dim != functional.dim.n:
        raise ValueError("test function dimension does not match the functional")
    evaluator, nodes, coeffs = make_fourier_evaluator(phi, nodes_per_axis)
    # transforms of Schwartz-type test functions are extremely smooth on the
    # action spheres; a modest order keeps the number of points the Fourier
    # evaluator visits small. The rule lies on the means sphere, S^n for even n.
    n = functional.dim.n
    rule = sphere_quadrature_for_order(n + 1 - n % 2, 25)
    lhs = functional.action(evaluator, rule=rule)
    knorm = np.linalg.norm(nodes, axis=1)
    sinc_vals = functional.radius * _kernels.sinc_ratio(functional.radius * knorm)
    rhs = float(sinc_vals @ coeffs)
    return float(np.real(lhs)), rhs
