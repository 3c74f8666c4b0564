"""Point and grid solvers for the wave-equation Cauchy problem.

Two independent routes:

* odd dimensions >= 3: iterated radial derivatives of r^(n-2)-scaled sphere
  averages of the data (Kirchhoff's formula when n = 3);
* n = 1: the two traveling waves plus the integrated velocity.

Even dimensions 2 <= n <= 10 use the odd route by Hadamard descent: data
extended to R^(n+1) without dependence on x_(n+1) have sphere means over
S^n equal to twice the weighted ball means over B^n, so the solution at x
is the (n+1)-dimensional one at (x, 0) (Poisson's formula when n = 2).
The weighted ball mean itself stays as `weighted_ball_mean`, the paper's
direct formula, kept as a test oracle.

Every field's sphere sums go through `geometry.sphere_sums`; only the rule
and the centre depend on the data. A field with a `degree` (harmonic,
constant) takes the product rule of that order, which sums it exactly. Any
other field with a `radial_center` (gaussian, bump) takes the paper's
single-coordinate reduction, two coordinates after descent, as a rule on
the sphere (`geometry._radial_rule`), summed about the point on the ray
from its centre at the probe's distance (`geometry.radial_sum_center`).
Any other field takes the default product rule at the probe. A caller's
`rule` replaces both product rules; each is built only when a field needs it.

A periodic FFT solver provides an independent oracle: each Fourier mode is a
harmonic oscillator, so the evolution is exact multiplication by cos(|k| t)
and sin(|k| t) / |k|, computed once per |k|^2 shell (`GridSpec.shells`). The
data are real, so their spectra are Hermitian and the half lattice of `rfftn`
carries every mode. The grid is sampled one slab at a time (`GridSpec.sample`)
and the spectra are transformed, evolved and inverted in place, so a solve
holds no coordinate mesh and no spare full-lattice temporary.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainSizeError, EvaluationError
from .fields import ScalarField
from .geometry import (
    _CHUNK_BYTES,
    Dimension,
    SphereQuadrature,
    _leggauss,
    _omega,
    _radial_rule,
    check_descent,
    default_sphere_order,
    descent_rule,
    radial_sum_center,
    solution_constant,
    sphere_quadrature,
    sphere_quadrature_for_order,
    sphere_sums,
    unit_ball_volume,
)
from .radial import MeanSeries, RadialDerivativeSpec, chain_apply, default_spec, stencil_offsets

BINARY_MAGIC = b"WAVE"
BINARY_VERSION = 1


@dataclass(frozen=True)
class CauchyProblem:
    phi: ScalarField
    psi: ScalarField
    dim: Dimension

    def __post_init__(self):
        if self.phi.dim != self.dim.n or self.psi.dim != self.dim.n:
            raise ValueError("initial data dimension does not match the problem dimension")


@dataclass(frozen=True)
class SolutionSample:
    x: np.ndarray
    t: float
    u: float
    method: str
    error_estimate: float


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------


def spherical_mean(psi: ScalarField, x, t: float, rule: SphereQuadrature | None = None) -> float:
    """Average of psi over the sphere of radius t centered at x."""
    x = np.asarray(x, dtype=np.float64)
    if t <= 0:
        raise ValueError("radius must be positive")
    rule = rule or sphere_quadrature(psi.dim)
    if rule.n != psi.dim or x.shape != (psi.dim,):
        raise ValueError("dimension mismatch between field, point and rule")
    return float(sphere_sums(psi, x, np.array([t]), rule)[0] / _omega(rule.n))


def weighted_ball_mean(psi: ScalarField, x, t: float, rule: SphereQuadrature | None = None) -> float:
    """Weighted average of psi over the ball of radius t centered at x.

    The weight is (t^2 - |x - y|^2)^(-1/2) with normalization 1/(v_n t^n);
    the boundary singularity is removed by the r = t sin(theta) substitution
    and 64 Gauss nodes in theta. Even dimensions only. This is the paper's
    direct formula; the solvers reach the same value by descent, and it
    stays as their independent test oracle.
    """
    x = np.asarray(x, dtype=np.float64)
    if t <= 0:
        raise ValueError("radius must be positive")
    if psi.dim % 2:
        raise ValueError("weighted ball mean is the even-dimension construction")
    rule = rule or sphere_quadrature(psi.dim)
    if rule.n != psi.dim or x.shape != (psi.dim,):
        raise ValueError("dimension mismatch between field, point and rule")
    # integral_0^{pi/2} sin^(n-1)(theta) S(t sin theta) d(theta)
    u, wu = _leggauss(64)
    theta = (math.pi / 4.0) * (u + 1.0)
    sin_theta = np.sin(theta)
    sums = sphere_sums(psi, x, t * sin_theta, rule)
    w = (sums * sin_theta ** (rule.n - 1)) @ ((math.pi / 4.0) * wu)
    return float(w / (unit_ball_volume(psi.dim) * t))


# ---------------------------------------------------------------------------
# Point solvers
# ---------------------------------------------------------------------------


def _resolve_spec(problem: CauchyProblem, t: float, spec: RadialDerivativeSpec | None):
    m = problem.dim.derivative_order
    if spec is None:
        spec = default_spec(m, t)
    elif spec.iterations != m:
        raise ValueError(f"spec.iterations = {spec.iterations}, dimension needs {m}")
    spec.validate_radius(t)
    return spec


#: fewest nodes per coordinate of the reduced rule for radial data
MIN_RADIAL_NODES = 64

#: most nodes per coordinate of the reduced rule. The error estimate builds
#: the rule with twice the count L: 2L nodes at odd n, 2L * L after descent,
#: each a unit vector in R^(n+1). At L = 2048 and even n = 10 that is 2^23
#: nodes and 0.74 GB, below the 0.8 GB of the largest product rule the
#: package builds (n = 12, also 2^23 nodes). Odd n keeps the same L: numpy
#: builds a Gauss rule from a dense eigenproblem, which at 2L = 4096 nodes
#: already takes 128 MB and seconds.
MAX_RADIAL_NODES = 2048


def radial_node_count(field: ScalarField, t: float) -> int:
    """Nodes per coordinate for a radial field's sphere sums up to radius ~t:
    max(64, 4 t / length_scale), rounded up to a power of two. A sphere of
    radius t crosses a feature of width length_scale along an arc of about
    t / length_scale, and Gauss rules need a few nodes per width.
    EvaluationError when that exceeds MAX_RADIAL_NODES."""
    need = 4.0 * t / field.length_scale
    if not need <= MAX_RADIAL_NODES:
        raise EvaluationError(f"{field.label} of length scale {field.length_scale:g} needs "
                              f"{need:.3g} nodes per coordinate at t = {t:g}, more than "
                              f"{MAX_RADIAL_NODES}")
    count = MIN_RADIAL_NODES
    while count < need:
        count *= 2
    return count


#: factor of the rounding bound of polynomial data: over 1260 seeded harmonic
#: draws at n = 2..11 their error reached 29 eps sum_j |a_j| M_j, rounding of
#: the sums and of the fit that is the same at h and h / 2 and so hides from
#: their difference
ROUNDING_FACTOR = 128


def _means_term(means: CauchyProblem, role: str, center: np.ndarray, rule: SphereQuadrature,
                t: float, spec: RadialDerivativeSpec, h: float, magnitude: bool = False) -> float:
    """One field's part of the solution sum from stencil-sampled sphere means
    at spacing h, odd n: (1/t d/dt)^m of psi's r^(n-2)-scaled mean, or the
    d/dt of phi's. With magnitude, a bound on that part's rounding instead:
    ROUNDING_FACTOR eps sum_j |a_j| M_j, with a_j the chain's weight on
    sample j and M_j the sample's scaled sum of |field|."""
    n = means.dim.n
    m = means.dim.derivative_order
    field, degree = (means.psi, spec.degree) if role == "psi" else (means.phi, spec.degree + 2)
    radii = t + stencil_offsets(degree) * h
    if magnitude:
        # one column per sample, so that the chain gives a_j M_j in column j
        sums = np.diag(sphere_sums(lambda points: np.abs(field(points)), center, radii, rule))
    else:
        sums = sphere_sums(field, center, radii, rule)
    series = MeanSeries(radii, radii ** (n - 2) * sums / _omega(n))
    if role == "psi":
        value = chain_apply(series, m, t, h)
    else:
        value = chain_apply(series, m, t, h, time_derivative=True)[1]
    if magnitude:
        return ROUNDING_FACTOR * np.finfo(np.float64).eps * float(np.abs(value).sum())
    return float(value)


def _lift(field: ScalarField) -> ScalarField:
    """field extended to one more dimension, constant in the last coordinate.
    A field radial in all n coordinates stays radial in the first n; one
    radial in its first n - 1 only loses its centre and takes the product
    rule, as a centre may leave out one last coordinate, not two."""
    n = field.dim
    center = field.radial_center
    if center is not None and len(center) != n:
        center = None
    return ScalarField(lambda points: field(points[..., :n]), n + 1, is_zero=field.is_zero,
                       radial_center=center, length_scale=field.length_scale,
                       degree=field.degree, label=field.label)


def _solve_means_point(problem: CauchyProblem, x, t: float, method: str,
                       spec: RadialDerivativeSpec | None, rule: SphereQuadrature | None,
                       with_error: bool) -> SolutionSample:
    n = problem.dim.n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"point must have {n} components")
    if t < 0:
        raise ValueError("time must be non-negative")
    if t == 0.0:
        return SolutionSample(x, 0.0, float(problem.phi(x[None, :])[0]), method, 0.0)
    spec = _resolve_spec(problem, t, spec)
    center, means = x, problem
    if not problem.dim.is_odd:
        # descent: the (n+1)-dimensional solution at (x, 0), with the same
        # derivative order (n - 2) / 2
        check_descent(n)
        center = np.append(x, 0.0)
        means = CauchyProblem(_lift(problem.phi), _lift(problem.psi), Dimension(n + 1))
    # keyed by role: a problem may pass one field as both phi and psi
    fields = {role: f for role, f in (("psi", means.psi), ("phi", means.phi)) if not f.is_zero}
    # the fields on the reduced rule, the only ones with its quadrature error
    radial = [role for role, f in fields.items()
              if f.radial_center is not None and f.degree is None]
    count = max((radial_node_count(fields[role], t) for role in radial),
                default=MIN_RADIAL_NODES)

    def placement(field: ScalarField, count: int) -> tuple[np.ndarray, SphereQuadrature]:
        # product rules are built (memoized) only when a field asks for one; a
        # degree's rule is never larger than the default one it replaces
        if (field.degree is not None and rule is None
                and field.degree <= default_sphere_order(means.dim.n)):
            return center, sphere_quadrature_for_order(means.dim.n, field.degree)
        if field.radial_center is None or field.degree is not None:
            return center, ((rule or sphere_quadrature(n)) if problem.dim.is_odd
                            else descent_rule(n, rule))
        k = len(field.radial_center)
        return radial_sum_center(center, field.radial_center), _radial_rule(k, means.dim.n, count)

    def terms(roles, h: float, count: int, magnitude: bool = False) -> dict[str, float]:
        return {role: _means_term(means, role, *placement(fields[role], count), t, spec, h,
                                  magnitude)
                for role in roles}

    scale = solution_constant(means.dim.n)
    u_terms = terms(fields, spec.h, count)
    u = scale * sum(u_terms.values())
    err = math.nan
    if with_error:
        # stencil truncation (h against h / 2) plus the reduced rule's
        # quadrature error (count against 2 count nodes). Each difference is
        # doubled: where refining at least halves the error, the error of the
        # coarser value is at most twice its distance to the finer one.
        err = 2.0 * abs(u - scale * sum(terms(fields, spec.h / 2.0, count).values()))
        if radial:
            u_radial = scale * sum(u_terms[role] for role in radial)
            err += 2.0 * abs(u_radial - scale * sum(terms(radial, spec.h, 2 * count).values()))
        # polynomial data are summed exactly; what is left is rounding, which
        # the h against h / 2 difference does not see
        exact = [role for role, f in fields.items() if f.degree is not None]
        err += scale * sum(terms(exact, spec.h, count, magnitude=True).values())
    return SolutionSample(x, t, u, method, err)


def solve_odd_point(problem: CauchyProblem, x, t: float,
                    spec: RadialDerivativeSpec | None = None,
                    rule: SphereQuadrature | None = None,
                    with_error: bool = True) -> SolutionSample:
    """Spherical-means solution at one point; odd dimensions >= 3."""
    if not problem.dim.is_odd or problem.dim.n < 3:
        raise ValueError("spherical-means solver needs an odd dimension >= 3")
    return _solve_means_point(problem, x, t, "spherical_means", spec, rule, with_error)


def solve_even_point(problem: CauchyProblem, x, t: float,
                     spec: RadialDerivativeSpec | None = None,
                     rule: SphereQuadrature | None = None,
                     with_error: bool = True) -> SolutionSample:
    """Weighted-means solution at one point; even dimensions 2 <= n <= 10.

    By Hadamard descent: the odd spherical-means solver in n + 1 dimensions
    at (x, 0), on data that ignore x_(n+1), with the rule from `descent_rule`.
    `weighted_ball_mean` is the direct formula, kept as its test oracle.
    """
    if problem.dim.is_odd:
        raise ValueError("weighted-means solver needs an even dimension")
    return _solve_means_point(problem, x, t, "weighted_means", spec, rule, with_error)


def solve_dalembert_point(problem: CauchyProblem, x: float, t: float) -> SolutionSample:
    """The 1-D traveling-wave solution with adaptive quadrature for the velocity term."""
    if problem.dim.n != 1:
        raise ValueError("d'Alembert solver is for dimension 1")
    if t < 0:
        raise ValueError("time must be non-negative")
    from scipy.integrate import quad

    x = float(np.asarray(x, dtype=np.float64).reshape(()))
    phi, psi = problem.phi, problem.psi
    travel = 0.5 * (float(phi(np.array([x - t]))) + float(phi(np.array([x + t]))))
    if psi.is_zero or t == 0.0:
        integral, abserr = 0.0, 0.0
    else:
        integral, abserr = quad(lambda s: float(psi(np.array([s]))), x - t, x + t,
                                epsabs=1e-12, epsrel=1e-12, limit=200)
    return SolutionSample(np.array([x]), t, travel + 0.5 * integral, "dalembert", 0.5 * abserr)


def solve_point(problem: CauchyProblem, x, t: float, **kwargs) -> SolutionSample:
    """Dispatch to d'Alembert (n = 1) or the parity-appropriate means solver."""
    if problem.dim.n == 1:
        return solve_dalembert_point(problem, x, t)
    if problem.dim.is_odd:
        return solve_odd_point(problem, x, t, **kwargs)
    return solve_even_point(problem, x, t, **kwargs)


# ---------------------------------------------------------------------------
# Spectral oracle on a periodic grid
# ---------------------------------------------------------------------------


#: most points a spectral grid may have in total: at 2^24 its real values
#: take 128 MB and each half spectrum about as much
MAX_GRID_POINTS = 1 << 24


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid on [-L, L)^n with N points per axis."""

    half_width: float
    points: int
    dim: int

    def __post_init__(self):
        if self.half_width <= 0 or self.points < 2 or not 1 <= self.dim:
            raise ValueError("invalid grid specification")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    def axis(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.points)

    def sample(self, field: ScalarField) -> np.ndarray:
        """field on the (N,) * n grid, evaluated at stacked (..., n)
        coordinates one slab along axis 0 at a time, each slab's coordinates
        at most _CHUNK_BYTES; the full coordinate mesh is never built."""
        axis = self.axis()
        out = np.empty((self.points,) * self.dim)
        rows = max(1, _CHUNK_BYTES // (self.points ** (self.dim - 1) * self.dim * 8))
        for start in range(0, self.points, rows):
            slab = np.meshgrid(axis[start:start + rows], *[axis] * (self.dim - 1),
                               indexing="ij", copy=False)
            out[start:start + rows] = field(np.stack(slab, axis=-1))
        return out

    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """The rfftn half lattice, shape (N,) * (n - 1) + (N // 2 + 1,), as shells
        |k| = radii[shell] = (pi/L) sqrt(m), m the sum of the squared integer frequencies:
        an int32 index per mode, one increasing radius per distinct m, marked in a table
        over 0..max m on the orthant |i_d| <= N // 2 (n = 1: each mode is its own shell)."""
        scale = math.pi / self.half_width
        half = np.arange(self.points // 2 + 1, dtype=np.int32)
        if self.dim == 1:
            return half, scale * half
        m = sum(np.ix_(*[half * half] * self.dim))
        used = np.zeros(self.dim * (self.points // 2) ** 2 + 1, dtype=bool)
        used[m] = True
        orthant = (np.cumsum(used, dtype=np.int32) - 1)[m]
        full = np.minimum(np.arange(self.points), self.points - np.arange(self.points))
        return orthant[np.ix_(*[full] * (self.dim - 1))], scale * np.sqrt(np.flatnonzero(used))


@dataclass(frozen=True)
class SpectralState:
    """Half-lattice (rfftn) Fourier coefficients of the initial data on a
    periodic lattice, with the lattice's |k|^2 shells: |k| = radii[shell]."""

    grid: GridSpec
    phi_hat: np.ndarray
    psi_hat: np.ndarray
    shell: np.ndarray
    radii: np.ndarray


@dataclass(frozen=True)
class SolutionGrid:
    values: np.ndarray
    grid: GridSpec
    t: float
    method: str
    error_estimate: float

    def value_at_index(self, index) -> float:
        return float(self.values[tuple(index)])

    def to_binary(self, path) -> None:
        """Little-endian layout: magic 'WAVE', version u32, n u32, N per axis
        (u32 each), L f64, t f64, then the values as f64 in C order."""
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<II", BINARY_VERSION, self.grid.dim))
            fh.write(struct.pack(f"<{self.grid.dim}I", *([self.grid.points] * self.grid.dim)))
            fh.write(struct.pack("<dd", self.grid.half_width, self.t))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())


def solution_grid_from_binary(path) -> SolutionGrid:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, dim = struct.unpack("<II", fh.read(8))
        if version != BINARY_VERSION:
            raise ValueError(f"unsupported version {version}")
        counts = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        if len(set(counts)) != 1:
            raise ValueError("only uniform per-axis point counts are written")
        half_width, t = struct.unpack("<dd", fh.read(16))
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(counts)
    return SolutionGrid(values.copy(), GridSpec(half_width, counts[0], dim), t,
                        "binary", math.nan)


def _half_spectrum(field: ScalarField, grid: GridSpec, shape: tuple[int, ...]) -> np.ndarray:
    """rfftn of the field sampled on the grid, transformed in place in one
    half-lattice buffer of the given shape; a zero field is not sampled."""
    out = np.zeros(shape, dtype=np.complex128)
    if not field.is_zero:
        np.fft.rfftn(grid.sample(field), out=out)
    return out


def spectral_state(problem: CauchyProblem, grid: GridSpec) -> SpectralState:
    if grid.dim != problem.dim.n:
        raise ValueError("grid dimension does not match the problem")
    shell, radii = grid.shells()
    return SpectralState(grid, _half_spectrum(problem.phi, grid, shell.shape),
                         _half_spectrum(problem.psi, grid, shell.shape), shell, radii)


def _check_wraparound(problem: CauchyProblem, grid: GridSpec, t: float) -> None:
    for field in (problem.phi, problem.psi):
        if field.is_zero or field.periodic:
            continue  # wrap-safe: nothing to alias
        if not math.isfinite(field.support_radius):
            raise DomainSizeError("spectral solver needs compactly supported data "
                                  "(finite support_radius)")
        if grid.half_width <= field.support_radius + t:
            raise DomainSizeError(
                f"grid half-width {grid.half_width:g} <= support "
                f"{field.support_radius:g} + t {t:g}: the periodic images would "
                "contaminate the solution"
            )


def spectral_solve(problem: CauchyProblem, grid: GridSpec, t: float,
                   state: SpectralState | None = None) -> SolutionGrid:
    """Evolve the half spectrum by the exact per-mode oscillator factors and
    invert it: complex inverse FFTs in place over the leading axes, then one
    real inverse FFT over the last, the steps of irfftn without its
    per-axis copies.

    The error estimate is the transform's rounding scale,
    eps * log2(N^n) * max|u|; like any rounding-only figure it says nothing
    about aliasing or resolution.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    _check_wraparound(problem, grid, t)
    state = state or spectral_state(problem, grid)
    if state.grid != grid:
        raise ValueError("spectral state was built on a different grid")
    u_hat = _kernels.wave_multiplier(state.phi_hat, state.psi_hat, state.shell, state.radii, t)
    for axis in range(grid.dim - 1):
        np.fft.ifft(u_hat, axis=axis, out=u_hat)
    # n= fixes the length of the last axis, which the half spectrum leaves
    # ambiguous for odd N
    u = np.fft.irfft(u_hat, n=grid.points, axis=-1)
    rounding = np.finfo(np.float64).eps * grid.dim * math.log2(grid.points)
    return SolutionGrid(u, grid, float(t), "spectral", rounding * float(max(u.max(), -u.min())))


def hermitian_defect(problem: CauchyProblem, grid: GridSpec) -> float:
    """Max deviation of a full fftn of the sampled data from the conjugate
    symmetry real data must satisfy.

    The half spectra of `spectral_state` are symmetric by construction, so
    the data are sampled and transformed in full here.
    """
    worst = 0.0
    for field in (problem.phi, problem.psi):
        if field.is_zero:
            continue
        arr = np.fft.fftn(grid.sample(field))
        mirrored = arr
        for axis in range(arr.ndim):
            mirrored = np.roll(np.flip(mirrored, axis=axis), 1, axis=axis)
        worst = max(worst, float(np.max(np.abs(arr - np.conj(mirrored)))))
    return worst


def spectral_energy(state: SpectralState, t: float) -> float:
    """Discrete energy sum |u_hat_t|^2 + |k|^2 |u_hat|^2 over the full lattice;
    conserved in t.

    The half spectrum drops the conjugate of every last-axis column except
    column 0 and, for even N, the Nyquist column N/2, so the other columns
    count twice.
    """
    knorm = state.radii[state.shell]
    zt = knorm * t
    u_hat = _kernels.wave_multiplier(state.phi_hat, state.psi_hat, state.shell, state.radii, t)
    ut_hat = -state.phi_hat * knorm * np.sin(zt) + state.psi_hat * np.cos(zt)
    weights = np.full(knorm.shape[-1], 2.0)
    weights[0] = 1.0
    if state.grid.points % 2 == 0:
        weights[-1] = 1.0
    return float(np.sum(weights * (np.abs(ut_hat) ** 2 + (knorm * np.abs(u_hat)) ** 2)))


# ---------------------------------------------------------------------------
# Discrete wave-operator residual on an (x, t) slab
# ---------------------------------------------------------------------------


def wave_residual(values: np.ndarray, h_x: float, h_t: float) -> float:
    """Max |second time difference - discrete Laplacian| on slab interior.

    values has the time axis first: shape (T, N_1, ..., N_d) with T >= 3 and
    every spatial extent >= 3.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2:
        raise ValueError("slab must have a time axis and at least one space axis")
    if values.shape[0] < 3 or any(s < 3 for s in values.shape[1:]):
        raise ValueError("slab too thin: need >= 3 points along every axis")
    interior = values[(slice(1, -1),) * values.ndim]
    u_tt = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h_t * h_t)
    u_tt = u_tt[(slice(None),) + (slice(1, -1),) * (values.ndim - 1)]
    lap = np.zeros_like(interior)
    for axis in range(1, values.ndim):
        lo = [slice(1, -1)] * values.ndim
        hi = [slice(1, -1)] * values.ndim
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        lap += (values[tuple(hi)] - 2.0 * interior + values[tuple(lo)]) / (h_x * h_x)
    return float(np.max(np.abs(u_tt - lap)))
