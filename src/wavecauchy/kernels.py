"""The sinc kernel sin(R|xi|)/|xi| as the wave propagator T_R, and its
radial-derivative identities.

T_R is the solver's velocity term: c_N (1/R d/dR)^m of the r^(N-2)-scaled sphere
means over S^(N-1) (`solvers.means_series`), N = n for odd n and N = n + 1 by
descent for even n, each summed only at the radii the chain weighs
(`radial.chain_support`: R alone at n = 2 and 3). `DistributionFunctional.action`
applies it to a test function, `_identity_core` (under `identity_records` and
`identity_sweep`) to the plane wave e^{-i x.xi}, one array computation per
dimension with one sphere sum and chain per block of draws, and
`normalization_constant` to the constant 1; the last two sum on the reduced
rule of radial data (`geometry._radial_rule`). Plane waves and the Fourier
evaluator's tables are cos/sin of real phases (`_cis`), the bits of the complex
exp: its argument's real part is +-0; both take them on the upper half of mirrored
nodes only and conjugate the rest (`_plane_wave`, `_axis_table`). `means_series` is
the only code here that turns sphere sums into samples; the direct weighted ball
mean (`solvers.weighted_ball_mean`) stays as the test oracle of the descent.
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
from .radial import (chain_apply, chain_support, check_radius, default_spec, default_stencil,
                     resolve_spec)
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
    """The identity's residual at each (xi, R) query of one dimension, with its spec
    (one per query) or the default, in one `_identity_core` call."""
    dims = {query.dim.n for query in queries}
    if len(dims) > 1 or len(specs or queries) != len(queries):
        raise ValueError("identity_records takes queries of one dimension, one spec each")
    return _identity_core(dims.pop() if dims else 2, np.array([q.radius for q in queries]),
                          np.array([q.knorm for q in queries]), specs, base_nodes)


def _identity_core(n: int, radius: np.ndarray, knorm: np.ndarray, specs,
                   base_nodes: int) -> list[IdentityRecord]:
    """sin(R|xi|)/|xi| against the solver's psi term at the origin for the plane wave
    e^{-i |xi| y_1} on the reduced rule of S^(N-1), N = n + 1 - n % 2, at draws (R,
    |xi|). Every check `resolve_spec` and `_osc_nodes` make comes first, on the arrays
    (the node cap before any spec). Then each block of one degree and node count within
    one `sphere_sums` chunk takes one sum, chain and sinc ratio, each draw's operations
    its own, so each record is the one its draw gets alone."""
    m, n_means = Dimension(n).derivative_order, n + 1 - n % 2
    _osc_nodes(knorm * radius, base_nodes)  # refuse an oversized rule before any spec
    if specs is None:
        h, degree = default_stencil(m, radius, knorm)  # default_spec at oscillation |xi|
    elif any(spec.iterations != m for spec in specs):
        raise ValueError(f"every spec needs {m} iterations at dimension {n}")
    else:
        h, degree = np.array([s.h for s in specs]), np.array([s.degree for s in specs])
    check_radius(m, radius, h)
    nodes = _osc_nodes(knorm * (radius + h * degree / 2.0), base_nodes)
    keys, group = np.unique(np.stack(np.broadcast_arrays(degree, nodes)), axis=1,
                            return_inverse=True)
    records = [None] * len(radius)
    for g, (deg, count) in enumerate(keys.T.tolist()):
        members = np.flatnonzero(group.ravel() == g)
        block = max(1, _CHUNK_BYTES // ((deg + 1) * n_means * 8 * count))
        support = chain_support(deg, m)  # the radii the chain weighs
        for index in np.split(members, range(block, len(members), block)):
            t, k, step = radius[index], knorm[index], h[index]
            wave = np.repeat(-k, support.sum())[:, None]  # -|xi| at each summed radius
            samples = means_series(lambda points: _plane_wave(wave, points[..., 0], count), 0.0,
                                   _radial_rule(n_means, n_means, count), t, deg, step,
                                   support=support)
            value = solution_constant(n_means) * chain_apply(samples, m, t, step)
            residual = abs(t * _kernels.sinc_ratio(t * k) - value.real)
            for row in zip(index.tolist(), t.tolist(), k.tolist(), residual.tolist(),
                           abs(value.imag).tolist(), step.tolist()):
                records[row[0]] = IdentityRecord(n, *row[1:], count)
    return records


def _cis(phase: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """cos(phase) + i sin(phase), the bits of np.exp(1j * phase): an argument of real
    part +-0 takes exp(0) = 1 times the same cos and sin, here with no complex exp."""
    out = np.empty(phase.shape, dtype=np.complex128) if out is None else out
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _plane_wave(wave: np.ndarray, y1: np.ndarray, count: int) -> np.ndarray:
    """_cis(wave * y1) on the first coordinates y1 (radii, count) of a whole reduced rule
    about centre 0, mirrored to the bit as its nodes: as in `_axis_table`, the lower half
    conjugates the upper. `_identity_core`'s block sizing keeps a rule in one chunk."""
    assert y1.shape[-1] == count, "a reduced rule split over sphere_sums chunks"
    out, half = np.empty(y1.shape, dtype=np.complex128), count // 2
    _cis(wave * y1[:, half:], out=out[:, half:])
    np.conjugate(out[:, ::-1][:, :half], out=out[:, :half])
    return out


def identity_sweep(n: int, count: int, seed: int, max_product: float = 20.0,
                   base_nodes: int = DEFAULT_OSC_NODES) -> list[IdentityRecord]:
    """Residuals at `count` random (xi, R) draws, R in [0.5, 2) and R|xi| <=
    max_product, in one `_identity_core` call. Each draw takes three RNG calls and
    a `KernelQuery`'s |xi| of its xi, as math.sqrt(v.dot(v)) is np.linalg.norm(v)."""
    rng = np.random.default_rng(seed)
    radius, knorm = np.empty(count), np.empty(count)
    for i in range(count):
        radius[i] = rng.uniform(0.5, 2.0)
        target = rng.uniform(0.0, max_product / radius[i])
        direction = rng.standard_normal(n)
        norm = math.sqrt(direction.dot(direction))
        xi = direction * (target / norm) if norm > 0 else np.zeros(n)
        knorm[i] = math.sqrt(xi.dot(xi))
    return _identity_core(n, radius, knorm, None, base_nodes)


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
                           radius, spec.degree, spec.h, support=chain_support(spec.degree, m))
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
                               spec.degree, spec.h,
                               support=chain_support(spec.degree, spec.iterations))
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
    Each table takes cos/sin on the upper half of the mirrored nodes only
    (`_axis_table`), the bits of the complex exp on every row.
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
            tables = [_axis_table(axis_nodes, block[:, d]) for d in range(n)]
            out[start:start + len(block)] = _kernels.contract_axes(table_coeffs @ tables[-1],
                                                                   tables[:-1])
        return out.reshape(points.shape[:-1])

    return evaluator, nodes, coeffs


def _axis_table(axis_nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(-1j * outer(axis_nodes, x)) for nodes mirrored to the bit: `_cis` on the
    upper half, each lower row its mirror row's conjugate (cos is even, sin odd)."""
    half = len(axis_nodes) // 2
    table = np.empty((len(axis_nodes), len(x)), dtype=np.complex128)
    _cis(np.outer(-axis_nodes[half:], x), out=table[half:])
    np.conjugate(table[::-1][:half], out=table[:half])
    return table


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
