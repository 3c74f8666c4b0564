"""The sinc kernel sin(R|xi|)/|xi| and its two radial-derivative identities.

Odd dimensions represent the kernel through iterated (1/R d/dR) applications
of the normalized sphere average of exp(-i x.xi); even dimensions use the
weighted ball average with the 1/sqrt(R^2 - |x|^2) hemisphere factor,
computed by descending from the sphere average one dimension up; the direct
radial-angular quadrature (a sine substitution at the boundary) stays as
its test oracle.
Everything reduces to one-dimensional oscillatory quadrature against the
(R^2 - s^2)^((n-3)/2) weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, EvaluationError
from .geometry import (
    Dimension,
    _leggauss,
    _omega,
    _unit_gegenbauer,
    descent_rule,
    solution_constant,
    sphere_quadrature,
    sphere_quadrature_for_order,
    sphere_sums,
    unit_ball_volume,
)
from .radial import MeanSeries, RadialDerivativeSpec, chain_apply, default_spec

DEFAULT_OSC_NODES = 64
#: most nodes of an oscillatory 1-D rule, reached at R|xi| ~ 1275: numpy builds
#: a Gauss rule from a dense count x count eigenproblem, which at 4096 nodes
#: already takes 128 MB and seconds
MAX_OSC_NODES = 4096
#: complex elements (16 bytes each) in the Fourier evaluator's largest per-chunk array
FOURIER_CHUNK_ELEMENTS = 4_000_000


def _osc_nodes(kappa: float, base: int = DEFAULT_OSC_NODES) -> int:
    """Node count for the oscillatory 1-D rules; grows linearly past R|xi| ~ 30
    to keep at least ~10 nodes per oscillation period. EvaluationError past
    MAX_OSC_NODES, and for an infinite or NaN R|xi|."""
    if kappa <= 30.0:
        return base
    if not 3.2 * kappa + 16 <= MAX_OSC_NODES:
        raise EvaluationError(f"R|xi| = {kappa:.3g} needs more than {MAX_OSC_NODES} "
                              "oscillatory quadrature nodes")
    return max(base, int(math.ceil(3.2 * kappa)) + 16)


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


def sinc_kernel(xi, radius: float) -> float:
    """sin(R |xi|) / |xi| with the removable singularity evaluated as R."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    knorm = float(np.linalg.norm(np.atleast_1d(np.asarray(xi, dtype=np.float64))))
    return radius * float(_kernels.sinc_ratio(np.array([radius * knorm]))[0])


# ---------------------------------------------------------------------------
# The two exponential averages, vectorized over a batch of radii
# ---------------------------------------------------------------------------


def sphere_average_profile(knorm: float, radii: np.ndarray, n: int,
                           base_nodes: int = DEFAULT_OSC_NODES) -> np.ndarray:
    """(1/(omega_n R)) * integral over the sphere of radius R of e^{-i x.xi}.

    Odd n >= 3. Radial symmetry reduces this to the 1-D weighted oscillatory
    integral; the value at knorm = 0 is R^(n-2).
    """
    if n % 2 == 0 or n < 3:
        raise ValueError("sphere average profile is the odd-dimension route")
    radii = np.asarray(radii, dtype=np.float64)
    x, v = _unit_gegenbauer(n, _osc_nodes(knorm * float(radii.max()), base_nodes))
    phases = np.exp(1j * knorm * np.outer(radii, x))
    return (_omega(n - 1) / _omega(n)) * radii ** (n - 2) * (phases @ v)


def ball_average_profile(knorm: float, radii: np.ndarray, n: int,
                         route: str = "descent",
                         base_nodes: int = DEFAULT_OSC_NODES) -> np.ndarray:
    """(1/v_n) * integral over the ball of radius R of the weighted exponential
    (R^2-|x|^2)^(-1/2) e^{-i x.xi}. Even n >= 2.

    route="descent" halves the hemisphere-decomposed sphere average one
    dimension up; route="direct" does radial-angular quadrature with the
    r = R sin(theta) substitution at the boundary.
    """
    if n % 2 or n < 2:
        raise ValueError("ball average profile is the even-dimension route")
    radii = np.asarray(radii, dtype=np.float64)
    if route == "descent":
        return (_omega(n + 1) / (2.0 * unit_ball_volume(n))) * sphere_average_profile(
            knorm, radii, n + 1, base_nodes
        )
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    count = _osc_nodes(knorm * float(radii.max()), base_nodes)
    x, v = _unit_gegenbauer(n, count)
    u, wu = _leggauss(count)
    theta = (math.pi / 4.0) * (u + 1.0)
    w_theta = (math.pi / 4.0) * wu
    sin_theta = np.sin(theta)
    # phase(radius j, theta t, node i) = R_j sin(theta_t) x_i knorm
    phases = np.exp(1j * knorm * radii[:, None, None] * sin_theta[None, :, None] * x[None, None, :])
    inner = phases @ v  # (J, T)
    angular = inner * sin_theta ** (n - 1) @ w_theta
    return (_omega(n - 1) / unit_ball_volume(n)) * radii ** (n - 1) * angular


def sphere_exponential_average(query: KernelQuery,
                               base_nodes: int = DEFAULT_OSC_NODES) -> complex:
    """Normalized sphere average of e^{-i x.xi} at the query's radius."""
    return complex(sphere_average_profile(query.knorm, np.array([query.radius]),
                                          query.dim.n, base_nodes)[0])


def ball_weighted_exponential_average(query: KernelQuery, route: str = "descent",
                                      base_nodes: int = DEFAULT_OSC_NODES) -> complex:
    """Normalized weighted ball average of e^{-i x.xi} at the query's radius."""
    return complex(ball_average_profile(query.knorm, np.array([query.radius]),
                                        query.dim.n, route, base_nodes)[0])


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


def _average_profile(knorm: float, n: int, base_nodes: int, route: str = "descent"):
    """The parity-appropriate exponential average as a function of the radii:
    the sphere average (odd n) or the weighted ball average (even n)."""
    if n % 2:
        return lambda radii: sphere_average_profile(knorm, radii, n, base_nodes)
    return lambda radii: ball_average_profile(knorm, radii, n, route, base_nodes)


def identity_record(query: KernelQuery, spec: RadialDerivativeSpec | None = None,
                    base_nodes: int = DEFAULT_OSC_NODES,
                    route: str = "descent") -> IdentityRecord:
    """Residual of the parity-appropriate identity at one (xi, R) point."""
    n = query.dim.n
    knorm = query.knorm
    m = query.dim.derivative_order
    _osc_nodes(knorm * query.radius, base_nodes)  # refuse an oversized rule before default_spec
    if spec is None:
        spec = default_spec(m, query.radius, oscillation=knorm)
    elif spec.iterations != m:
        raise ValueError(f"spec.iterations = {spec.iterations}, dimension needs {m}")
    spec.validate_radius(query.radius)
    nodes = _osc_nodes(knorm * (query.radius + spec.h * spec.degree / 2.0), base_nodes)
    series = MeanSeries.sample(_average_profile(knorm, n, base_nodes, route), query.radius, spec)
    value = solution_constant(n) * chain_apply(series, m, query.radius, spec.h)
    lhs = sinc_kernel(query.xi, query.radius)
    return IdentityRecord(
        n=n,
        radius=query.radius,
        knorm=knorm,
        residual=abs(lhs - value.real),
        imag_residual=abs(value.imag),
        h=spec.h,
        nodes=nodes,
    )


def verify_odd_identity(query: KernelQuery, spec: RadialDerivativeSpec | None = None,
                        base_nodes: int = DEFAULT_OSC_NODES) -> float:
    """|sinc kernel - c_n (1/R d/dR)^m sphere average| for odd dimensions."""
    if not query.dim.is_odd or query.dim.n < 3:
        raise ValueError("odd identity needs an odd dimension >= 3")
    return identity_record(query, spec, base_nodes).residual


def verify_even_identity(query: KernelQuery, spec: RadialDerivativeSpec | None = None,
                         base_nodes: int = DEFAULT_OSC_NODES,
                         route: str = "descent") -> float:
    """|sinc kernel - d_n (1/R d/dR)^m' weighted ball average| for even dims."""
    if query.dim.is_odd:
        raise ValueError("even identity needs an even dimension >= 2")
    return identity_record(query, spec, base_nodes, route).residual


def identity_sweep(n: int, count: int, seed: int, max_product: float = 20.0,
                   radius_range: tuple[float, float] = (0.5, 2.0),
                   base_nodes: int = DEFAULT_OSC_NODES) -> list[IdentityRecord]:
    """Residuals at `count` random (xi, R) draws with R|xi| <= max_product."""
    rng = np.random.default_rng(seed)
    dim = Dimension(n)
    records = []
    for _ in range(count):
        radius = rng.uniform(*radius_range)
        knorm = rng.uniform(0.0, max_product / radius)
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
        xi = direction * (knorm / norm) if norm > 0 else np.zeros(n)
        records.append(identity_record(KernelQuery(xi, radius, dim), base_nodes=base_nodes))
    return records


def normalization_constant(n: int, radius: float = 1.0,
                           base_nodes: int = DEFAULT_OSC_NODES) -> float:
    """The solution constant recovered from the xi = 0 limit.

    At xi = 0 both identities read R = const * (1/R d/dR)^m of the purely
    radial average, so the constant is R divided by the numerically computed
    derivative chain, on the profiles `identity_record` uses. Cross-checks the
    double-factorial product formula.
    """
    m = Dimension(n).derivative_order
    spec = default_spec(m, radius)
    profile = _average_profile(0.0, n, base_nodes)
    series = MeanSeries.sample(lambda radii: profile(radii).real, radius, spec)
    denominator = float(chain_apply(series, m, radius, spec.h))
    if denominator == 0.0 or not math.isfinite(denominator):
        raise EvaluationError(f"the derivative chain at R = {radius:g} gave {denominator!r}")
    return radius / denominator


# ---------------------------------------------------------------------------
# The kernel as a compactly supported functional, and its Fourier duality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionFunctional:
    """The functional whose Fourier transform is sin(R|xi|)/|xi|.

    Acts on test functions through the parity-appropriate core: the sphere
    average (odd n) or the weighted ball average (even n 2..10, computed by
    descent as half a sphere average over S^n), pushed through the iterated
    radial derivative and scaled by the solution constant. Its
    support is the closed ball of the given radius, so the action on
    anything vanishing near that ball is zero up to quadrature noise.
    """

    radius: float
    dim: Dimension

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.dim.n < 2:
            raise ValueError("functional defined for dimension >= 2")

    @property
    def order(self) -> int:
        return self.dim.derivative_order

    @property
    def constant(self) -> float:
        return solution_constant(self.dim.n)

    def support_radius(self, spec: RadialDerivativeSpec | None = None) -> float:
        spec = spec or default_spec(self.order, self.radius)
        half_width = (spec.degree / 2.0) * spec.h
        return self.radius + half_width

    def action(self, test_fn, spec: RadialDerivativeSpec | None = None, rule=None):
        """Apply the functional to a (possibly complex-valued) test function
        of points shaped (..., n).

        Even n descends from n + 1: the weighted ball average over B^n is
        half the sphere average over S^n of the test function at the first n
        node coordinates, so the profile is R^(n-1) S(R) / (2 v_n) on the
        rule from `descent_rule`. Raises ValueError above n = 10.
        """
        n = self.dim.n
        m = self.order
        spec = spec or default_spec(m, self.radius)
        spec.validate_radius(self.radius)
        if self.dim.is_odd:
            rule = rule or sphere_quadrature(n)
            power, norm = n - 2, _omega(n)
        else:
            rule = descent_rule(n, rule)
            power, norm = n - 1, 2.0 * unit_ball_volume(n)

        def profile(radii):
            sums = sphere_sums(lambda points: test_fn(points[..., :n]), 0.0, radii, rule)
            return radii ** power * sums / norm

        series = MeanSeries.sample(profile, self.radius, spec)
        return self.constant * chain_apply(series, m, self.radius, spec.h)


def make_fourier_evaluator(phi, nodes_per_axis: int = 64):
    """Quadrature evaluator for the Fourier integral of a compactly supported field.

    Returns (evaluator, freq_nodes, coeffs) where evaluator(points)
    computes integral of phi(xi) e^{-i x.xi} d(xi) at each point by a
    tensor-product Gauss-Legendre rule over phi's support box, and coeffs are
    the rule's weights times phi at the nodes, so phi is sampled once. On a tensor
    grid the sum over nodes factors axis by axis: the last axis is one
    complex matmul against a (points, nodes_per_axis) exponential table, and
    each other axis is an einsum against its own table.
    """
    n = phi.dim
    box = phi.support_radius
    if not math.isfinite(box):
        raise ConfigError("test function must declare a finite support radius")
    _check_support_box(phi, box)
    x, w = _leggauss(nodes_per_axis)
    axis_nodes = box * x
    axis_weights = box * w
    grids = np.meshgrid(*([axis_nodes] * n), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.prod(np.meshgrid(*([axis_weights] * n), indexing="ij"), axis=0).ravel()
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
            tables = [np.exp(-1j * np.outer(block[:, d], axis_nodes)) for d in range(n)]
            acc = table_coeffs @ tables[-1].T
            for table in reversed(tables[:-1]):
                acc = np.einsum("ikp,pk->ip", acc.reshape(-1, nodes_per_axis, len(block)), table)
            out[start:start + len(block)] = acc[0]
        return out.reshape(points.shape[:-1])

    return evaluator, nodes, coeffs


def _check_support_box(phi, box: float) -> None:
    """Reject a support box whose boundary carries field mass above 1e-12."""
    n = phi.dim
    coarse = np.linspace(-box, box, 7)
    grids = np.meshgrid(*([coarse] * max(n - 1, 1)), indexing="ij")
    face = np.stack([g.ravel() for g in grids], axis=1)[:, : max(n - 1, 0)]
    worst = 0.0
    for axis in range(n):
        for sign in (-box, box):
            pts = np.zeros((face.shape[0] if n > 1 else 1, n))
            if n > 1:
                pts[:, [d for d in range(n) if d != axis]] = face
            pts[:, axis] = sign
            worst = max(worst, float(np.max(np.abs(phi(pts)))))
    if worst > 1e-12:
        raise ConfigError(
            f"support box half-width {box:g} too small: |phi| = {worst:.2e} on its boundary"
        )


def distribution_fourier_check(functional: DistributionFunctional, phi,
                               nodes_per_axis: int = 64,
                               spec: RadialDerivativeSpec | None = None,
                               rule=None) -> tuple[float, float]:
    """Compare T(phi_hat) against integral of sinc kernel times phi.

    Both sides are quadratures: the left applies the functional to the
    Fourier integral of phi; the right integrates the sinc kernel against
    phi over its support box. Equality (up to quadrature error) is the
    duality definition of the kernel as a Fourier transform.
    """
    if phi.dim != functional.dim.n:
        raise ValueError("test function dimension does not match the functional")
    evaluator, nodes, coeffs = make_fourier_evaluator(phi, nodes_per_axis)
    if rule is None:
        # transforms of Schwartz-type test functions are extremely smooth on
        # the action spheres; a modest order keeps the number of points the
        # Fourier evaluator visits small
        rule = sphere_quadrature_for_order(functional.dim.n, 25)
    lhs = functional.action(evaluator, spec=spec, rule=rule)
    knorm = np.linalg.norm(nodes, axis=1)
    sinc_vals = functional.radius * _kernels.sinc_ratio(functional.radius * knorm)
    rhs = float(sinc_vals @ coeffs)
    return float(np.real(lhs)), rhs
