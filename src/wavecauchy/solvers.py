"""Point and grid solvers for the wave-equation Cauchy problem.

Two independent routes:

* odd dimensions >= 3: iterated radial derivatives of r^(n-2)-scaled sphere
  averages of the data (Kirchhoff's formula when n = 3), (1/t d/dt)^m for
  psi and its d/dt, t (1/t d/dt)^(m+1), for phi: one chain for both;
* n = 1: the two traveling waves plus the integrated velocity.

Even dimensions 2 <= n <= 10 use the odd route by Hadamard descent: data
extended to R^(n+1) without dependence on x_(n+1) have sphere means over
S^n equal to twice the weighted ball means over B^n, so the solution at x
is the (n+1)-dimensional one at (x, 0) (Poisson's formula when n = 2).
The weighted ball mean itself stays as `weighted_ball_mean`, the paper's
direct formula, kept as a test oracle.

Every field's sphere sums go through `geometry.sphere_sums`, and
`means_series` turns them into the stencil samples the radial derivative
acts on, for the solver's terms and for the kernel identities and the
distribution functional of `kernels` alike; only the rule and the centre
depend on the data. A field with a `degree` (harmonic, constant) takes the
product rule of that order, which sums it exactly. Any other field with a
`radial_center` (gaussian, bump) takes the paper's single-coordinate
reduction, two coordinates after descent, as a rule on the sphere
(`geometry._radial_rule`), summed about the point on the ray from its
centre at the probe's distance (`geometry.radial_sum_center`).
Any other field takes the default product rule at the probe. A caller's
`rule` replaces both product rules; each is built only when a field needs it.

`solve_points` solves a batch of P (point, time) pairs, in any order,
together: each distinct time's stencil and node count are resolved once,
the pairs go in groups of one node count, taken time by time, each field's
sphere sums are taken once per stencil radius set for a whole group, and
each field's radial chain is one row of stencil weights per distinct time
(`radial.chain_weights`), gathered per pair: u, its h/2 value, the null-sum
term and the rounding bound's a_j all come from those rows. For radial data
on the reduced rule, pairs with the same summing centre (the probe moved onto
the ray from the data's centre) and the same time share one sphere, summed
once. Each pair's value and error estimate are the ones it gets alone, to the
bit, so one point is a batch of one: `solve_points(problem, [x], t)[0]`.

A periodic FFT solver provides an independent oracle: each Fourier mode is a
harmonic oscillator, so the evolution is exact multiplication by cos(|k| t)
and sin(|k| t) / |k|, computed once per |k|^2 shell (`GridSpec.shells`). The
data are real, so their spectra are Hermitian and the half lattice of `rfftn`
carries every mode. Each slab of samples is rfft'd as it is made, on two
threads for phi and psi: no mesh, sampled lattice or spare full-lattice array.
Each 128 KB slab of the half spectrum (`_kernels._SLAB_BYTES`) is evolved to
every time while it sits in L2 (`_kernels.evolved_slabs`): `spectral_solve`
gathers the slabs into u_hat and inverts it in place, and `spectral_probes` sums
them at lattice points with no inverse, in one pass for all its times, each
slab's product with the probes' twiddles small enough for OpenBLAS to keep on
the calling thread.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainSizeError, EvaluationError
from .fields import ScalarField
from .geometry import (
    Dimension,
    SphereQuadrature,
    _leggauss,
    _null_weights,
    _omega,
    _osc_nodes,
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
from .radial import RadialDerivativeSpec, chain_weights, resolve_spec, stencil_radii

#: cap on one slab of grid coordinates in `GridSpec.slabs`: with the field's values
#: and their rfft it fits a 2 MB L2 cache (8 MB slabs ran about 15 % slower)
_CHUNK_BYTES = 1 << 20

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


def weighted_ball_mean(psi: ScalarField, x, t: float, rule: SphereQuadrature | None = None) -> float:
    """Weighted average of psi over the ball of radius t centered at x.

    The weight is (t^2 - |x - y|^2)^(-1/2) with normalization 1/(v_n t^n);
    the boundary singularity is removed by the r = t sin(theta) substitution
    and `_osc_nodes(t / length_scale)` Gauss nodes in theta. Even n only. The
    paper's direct formula and the package's only direct one; the solvers and
    the kernel identities reach it by descent, and it stays their test oracle.
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
    u, wu = _leggauss(_osc_nodes(t / psi.length_scale))
    theta = (math.pi / 4.0) * (u + 1.0)
    sin_theta = np.sin(theta)
    sums = sphere_sums(psi, x, t * sin_theta, rule)
    w = (sums * sin_theta ** (rule.n - 1)) @ ((math.pi / 4.0) * wu)
    return float(w / (unit_ball_volume(psi.dim) * t))


# ---------------------------------------------------------------------------
# Point solvers
# ---------------------------------------------------------------------------


#: fewest nodes per coordinate of the reduced rule for radial data
MIN_RADIAL_NODES = 64

#: most nodes per coordinate L of the reduced rule: L nodes at odd n, L * L / 2
#: after descent. At even n = 10 that is 2^21 unit vectors in R^11, 0.18 GB,
#: and its null weights (`geometry._null_weights`, 2 NULL_DEGREES columns)
#: 0.13 GB more, built in 0.2 s. The 1-D Gauss rule of L = 2048 nodes takes
#: 0.1 s and a 4.4 MB peak to build (see `geometry.MAX_OSC_NODES`).
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


#: factor on the largest null rule's value in the error estimate's quadrature
#: term (`geometry._null_weights`)
QUADRATURE_MARGIN = 2.0

#: factor of the error estimate's rounding bound ROUNDING_FACTOR eps sum_j
#: |a_j| M_j, a_j the chain's weight on sample j and M_j its sum of |field|
#: (|sample| for data that are not polynomial). Over 1260 seeded harmonic
#: draws at n = 2..11 the error reached 29 eps sum_j |a_j| M_j, rounding that
#: is the same at h and h / 2 and so hides from their difference
ROUNDING_FACTOR = 128


def means_series(g, center, rule: SphereQuadrature, t, degree: int,
                 h, coarse: np.ndarray | None = None, null: np.ndarray | None = None):
    """g's r^(N-2)-scaled sphere sums over omega_N, N = rule.n, at the degree + 1
    stencil radii of spacing h around t: the samples (1/t d/dt)^m acts on, and
    the only place sphere sums become them. One centre (shape (N,) or a
    scalar) gives samples of shape (R,), or (R, D) for t and h of shape (D,),
    g seeing the D R radii flat; P centres (shape (P, N)) give (R, P), at one
    t and h or each at its own (shape (P,)).
    With coarse, the samples at spacing 2 h (degree even), only the odd offsets
    are summed: offset 2k is coarse's offset k, the same radius to the bit.
    With null weights (`geometry._null_weights`) and P centres, also the null
    sums scaled as the samples are, shaped (R, Q, P): (samples, nulls).
    StencilError when the stencil reaches a radius <= 0."""
    summed = stencil_radii(t, degree, h)
    if coarse is not None:
        offsets = np.arange(degree + 1) - degree // 2
        odd = offsets % 2 == 1
        summed = summed[..., odd]
    if np.ndim(center) == 2:  # sums (P, [k,] R), the radii shared or one row per centre
        sums = sphere_sums(g, center, summed, rule, null)
        sums, tails = sums if null is not None else (sums, None)
        summed = summed.reshape(-1, *[1] * (sums.ndim - 2), summed.shape[-1])
    else:
        sums = sphere_sums(g, center, summed.ravel(), rule)
        sums = sums.reshape(sums.shape[:-1] + summed.shape)
    values = (summed ** (rule.n - 2) * sums / _omega(rule.n)).T
    if null is not None:
        return values, np.moveaxis(summed[..., None] ** (rule.n - 2) * tails / _omega(rule.n),
                                   0, -1)
    if coarse is None:
        return values
    full = np.empty_like(coarse)
    full[odd], full[~odd] = values, coarse[degree // 2 + offsets[~odd] // 2]
    return full


def means_rule(n: int, rule: SphereQuadrature | None = None) -> SphereQuadrature:
    """The product rule the means path sums an n-dimensional field on: rule or
    the default one on S^(n-1) for odd n, its S^n rule by descent for even n."""
    return (rule or sphere_quadrature(n)) if n % 2 else descent_rule(n, rule)


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


def _distinct(centres: np.ndarray, t: list[float]) -> tuple[np.ndarray, np.ndarray] | None:
    """Each distinct (centre, time) pair's first index and each pair's place
    among them, centres compared as exact bytes; None when no two are equal."""
    data, width = centres.tobytes(), centres.shape[1] * centres.itemsize
    slot = {}
    inverse = [slot.setdefault((data[i * width:(i + 1) * width], ti), len(slot))
               for i, ti in enumerate(t)]
    if len(slot) == len(inverse):
        return None
    return np.unique(inverse, return_index=True)[1], np.array(inverse)


def _solve_means_points(problem: CauchyProblem, xs: np.ndarray, t: list[float],
                        spec: RadialDerivativeSpec | None, rule: SphereQuadrature | None,
                        with_error: bool) -> list[SolutionSample]:
    method = "spherical_means" if problem.dim.is_odd else "weighted_means"
    samples = [None] * len(xs)
    zero = [i for i, ti in enumerate(t) if ti == 0.0]
    for i, u in zip(zero, problem.phi(xs[zero]) if zero else []):
        samples[i] = SolutionSample(xs[i], 0.0, float(u), method, 0.0)
    if len(zero) == len(xs):
        return samples
    n = problem.dim.n
    centers, means = xs, problem
    if not problem.dim.is_odd:
        # descent: the (n+1)-dimensional solution at (x, 0), with the same
        # derivative order (n - 2) / 2
        check_descent(n)
        centers = np.hstack([xs, np.zeros((len(xs), 1))])
        means = CauchyProblem(_lift(problem.phi), _lift(problem.psi), Dimension(n + 1))
    # keyed by role: a problem may pass one field as both phi and psi
    fields = {role: f for role, f in (("psi", means.psi), ("phi", means.phi)) if not f.is_zero}
    # the fields on the reduced rule, the only ones with its quadrature error
    radial = [role for role, f in fields.items()
              if f.radial_center is not None and f.degree is None]
    m, constant = means.dim.derivative_order, solution_constant(means.dim.n)
    # each distinct time's h and node count, checked in input order so that the
    # first offending time raises; the pairs grouped by node count
    steps, groups = {}, {}
    for i, ti in enumerate(t):
        if ti == 0.0:
            continue
        if ti not in steps:
            resolved = resolve_spec(m, ti, spec)
            nodes = max((radial_node_count(fields[role], ti) for role in radial),
                        default=MIN_RADIAL_NODES)
            # the same at every time: the caller's degree, or the default 2 m + 4
            degrees = {"psi": resolved.degree, "phi": resolved.degree + 2}
            if ti <= (resolved.degree + 2) * resolved.h:  # a stencil may reach radius 0
                for role in fields:
                    stencil_radii(ti, degrees[role], resolved.h)
            steps[ti] = resolved.h, nodes
        groups.setdefault(steps[ti][1], []).append(i)

    for count, members in groups.items():
        members.sort(key=t.__getitem__)  # each time's pairs one run of radius rows
        c = centers[members]
        tp = [t[i] for i in members]
        # each radial field's probes moved onto its ray, once for every pass
        moved = {role: radial_sum_center(c, fields[role].radial_center) for role in radial}

        def placement(role: str) -> tuple[np.ndarray, SphereQuadrature]:
            # product rules are built (memoized) only when a field asks for one; a
            # degree's rule is never larger than the default one it replaces
            field = fields[role]
            if (field.degree is not None and rule is None
                    and field.degree <= default_sphere_order(means.dim.n)):
                return c, sphere_quadrature_for_order(means.dim.n, field.degree)
            if field.radial_center is None or field.degree is not None:
                return c, means_rule(n, rule)
            return moved[role], _radial_rule(len(field.radial_center), means.dim.n, count)

        # radial data's pairs with one summing centre (the probe moved onto the ray)
        # and one time share each pass's sphere sums
        distinct = {role: _distinct(moved[role], tp) for role in radial if len(tp) > 1}
        times = {}  # the group's distinct times, and each pair's among them
        at = np.array([times.setdefault(ti, len(times)) for ti in tp])
        td, hd = np.array(list(times)), np.array([steps[ti][0] for ti in times])
        # polynomial data stack |field| on their h pass for the rounding bound
        exact = [role for role, f in fields.items() if f.degree is not None and with_error]

        def sample(role: str, h, coarse=None, magnitude=False, null=None):
            field = fields[role]
            g = (lambda points: np.stack([v := field(points), np.abs(v)], axis=-3)
                 ) if magnitude else field
            centre, on = placement(role)
            # the distinct spheres summed, their samples (and null sums) scattered back
            first, inverse = distinct.get(role) or (slice(None), slice(None))
            out = means_series(g, centre[first], on, td[at[first]], degrees[role], h[at[first]],
                               None if coarse is None else coarse.T[first].T, null)
            return out.T[inverse].T if null is None else tuple(a.T[inverse].T for a in out)

        def weights(role: str, h) -> np.ndarray:
            # each distinct time's stencil weights, one row per pair: (1/t d/dt)^m for
            # psi's r^(n-2)-scaled mean, t (1/t d/dt)^(m+1), its d/dt, for phi's
            w = chain_weights(degrees[role], m + (role == "phi"), td, h)
            return (w if role == "psi" else td[:, None] * w)[at]

        def weigh(w: np.ndarray, s: np.ndarray) -> np.ndarray:
            # each pair's weights times its samples (R, P), one contiguous row, as alone
            return np.ascontiguousarray(w * s.T).sum(axis=-1)

        stacked, nulls = {}, {}
        for role in fields:
            if role in radial and with_error:  # the null sums too, for the quadrature bound
                null = _null_weights(len(fields[role].radial_center), means.dim.n, count)
                stacked[role], nulls[role] = sample(role, hd, null=null)
            else:
                stacked[role] = sample(role, hd, magnitude=role in exact)
        # samples stacked (R, 2, P) with |field|'s
        series = {role: s[:, 0] if role in exact else s for role, s in stacked.items()}
        w = {role: weights(role, hd) for role in fields}
        zeros = np.zeros(len(members))
        u = constant * sum((weigh(w[role], s) for role, s in series.items()), zeros)
        err = np.full(len(members), math.nan)
        if with_error:
            # stencil truncation: where halving h at least halves the error, the
            # error at h is at most 2 |u_h - u_(h/2)|; h / 2 sums its odd offsets only
            err = 2.0 * abs(u - constant * sum((weigh(weights(role, hd / 2.0),
                                                      sample(role, hd / 2.0, series[role]))
                                                for role in fields), zeros))
            # the reduced rule's quadrature error: the largest of the integrand's
            # last coefficients (its null sums, (R, Q, P)) taken through the chain,
            # with a margin
            for role, tail in nulls.items():
                chained = constant * weigh(w[role][:, None], tail)
                err += QUADRATURE_MARGIN * abs(chained).max(axis=1)
            # rounding, which both differences can miss (ROUNDING_FACTOR): each
            # pair's weights a_j against its samples' magnitudes
            for role, s in series.items():
                magnitudes = stacked[role][:, 1] if role in exact else np.abs(s)
                err += constant * (ROUNDING_FACTOR * np.finfo(np.float64).eps
                                   * weigh(abs(w[role]), magnitudes))
        for i, ux, ex in zip(members, u, err):
            samples[i] = SolutionSample(xs[i], t[i], float(ux), method, float(ex))
    return samples


def solve_points(problem: CauchyProblem, xs, t,
                 spec: RadialDerivativeSpec | None = None,
                 rule: SphereQuadrature | None = None,
                 with_error: bool = True) -> list[SolutionSample]:
    """The solution at P (point, time) pairs: the points xs, shape (P, n), at
    the time t, or each at its own time, t of shape (P,), in any order. One
    sample per pair, in their order. d'Alembert for n = 1; otherwise the
    means solver, which groups the pairs by node count, takes each group's
    time by time, sums each field once per stencil radius set (radial data
    each distinct sphere, summing centre and time, once), and gives each pair
    the value it gets alone, to the bit."""
    n = problem.dim.n
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"points must have shape (P, {n})")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1 or t.ndim == 1 and len(t) != len(xs):
        raise ValueError(f"times must be a scalar or have shape ({len(xs)},)")
    times = t.tolist() if t.ndim else [float(t)]
    if any(ti < 0 for ti in times):  # checked before a scalar is repeated, for no points too
        raise ValueError("time must be non-negative")
    t = times if t.ndim else times * len(xs)
    if n == 1:
        return [solve_dalembert_point(problem, x, tx) for x, tx in zip(xs, t)]
    return _solve_means_points(problem, xs, t, spec, rule, with_error) if len(xs) else []


def solve_dalembert_point(problem: CauchyProblem, x: float, t: float) -> SolutionSample:
    """The 1-D traveling-wave solution with adaptive quadrature for the velocity term,
    over [x - t, x + t] cut to psi's support [-S, S], S its support_radius: a long
    interval's quadrature nodes may all miss narrow data."""
    if problem.dim.n != 1:
        raise ValueError("d'Alembert solver is for dimension 1")
    if t < 0:
        raise ValueError("time must be non-negative")
    from scipy.integrate import quad

    x = float(np.asarray(x, dtype=np.float64).reshape(()))
    phi, psi = problem.phi, problem.psi
    travel = 0.5 * (float(phi(np.array([x - t]))) + float(phi(np.array([x + t]))))
    low, high = max(x - t, -psi.support_radius), min(x + t, psi.support_radius)
    if psi.is_zero or not low < high:
        integral, abserr = 0.0, 0.0
    else:
        integral, abserr = quad(lambda s: float(psi(np.array([s]))), low, high,
                                epsabs=1e-12, epsrel=1e-12, limit=200)
    return SolutionSample(np.array([x]), t, travel + 0.5 * integral, "dalembert", 0.5 * abserr)


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

    def slabs(self, field: ScalarField):
        """(rows, field's values) for each slab of rows along axis 0 of the (N,) * n
        grid: the axis broadcast into each contiguous plane of one (n, rows, N, ...)
        buffer of at most _CHUNK_BYTES, which the field gets as a (..., n) view."""
        axis, n = self.axis(), self.dim
        rows = min(self.points, max(1, _CHUNK_BYTES // (self.points ** (n - 1) * n * 8)))
        slab = np.empty((n, rows) + (self.points,) * (n - 1))
        for d in range(1, n):
            slab[d] = axis.reshape((-1,) + (1,) * (n - 1 - d))
        for start in range(0, self.points, rows):
            part = slab[:, :min(rows, self.points - start)]
            part[0] = axis[start:start + rows].reshape((-1,) + (1,) * (n - 1))
            yield slice(start, start + rows), field(np.moveaxis(part, 0, -1))

    def sample(self, field: ScalarField) -> np.ndarray:
        """field on the (N,) * n grid, gathered from `slabs`; no full mesh is built."""
        out = np.empty((self.points,) * self.dim)
        for rows, values in self.slabs(field):
            out[rows] = values
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
    #: (sum w |phi_hat|, sum w |psi_hat|), w the column counts of `_half_weights`
    magnitudes: tuple[float, float]


@dataclass(frozen=True)
class SolutionGrid:
    values: np.ndarray
    grid: GridSpec
    t: float
    error_estimate: float

    def to_binary(self, path) -> None:
        """Little-endian layout: magic 'WAVE', version u32, n u32, N per axis
        (u32 each), L f64, t f64, then the values as f64 in C order."""
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<II", BINARY_VERSION, self.grid.dim))
            fh.write(struct.pack(f"<{self.grid.dim}I", *([self.grid.points] * self.grid.dim)))
            fh.write(struct.pack("<dd", self.grid.half_width, self.t))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())


def _half_spectrum(field: ScalarField, grid: GridSpec, out: np.ndarray) -> None:
    """rfftn of the field on the grid into the zeroed half-lattice buffer out, with
    rfftn's steps and bits but no real lattice: each slab is rfft'd along the last
    axis into its rows, then axes n - 2 down to 0 in place. A zero field is not sampled."""
    if field.is_zero:
        return
    if grid.dim == 1:  # the slab axis is the transformed one: take it whole
        np.fft.rfft(grid.sample(field), out=out)
        return
    for rows, values in grid.slabs(field):
        np.fft.rfft(values, out=out[rows])
    for axis in range(grid.dim - 2, -1, -1):
        np.fft.fft(out, axis=axis, out=out)


def spectral_state(problem: CauchyProblem, grid: GridSpec) -> SpectralState:
    """The problem's half spectra on the grid, the non-zero fields' transformed at
    once on min(their count, usable CPUs) threads, each as it is alone (numpy's
    ufuncs and FFTs release the GIL). The spectra's allocation and the magnitudes'
    BLAS products stay on the calling thread; a zero field's magnitude is 0.0, with
    no pass over its zero spectrum."""
    # imported here, as it brings logging (about 6 ms) that the means paths never use
    from concurrent.futures import ThreadPoolExecutor
    if grid.dim != problem.dim.n:
        raise ValueError("grid dimension does not match the problem")
    shell, radii = grid.shells()
    fields = (problem.phi, problem.psi)
    spectra = [np.zeros(shell.shape, dtype=np.complex128) for _ in fields]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(max(1, sum(not f.is_zero for f in fields)), cpus or 1)) as pool:
        list(pool.map(lambda f, out: _half_spectrum(f, grid, out), fields, spectra))
    magnitudes = tuple(0.0 if f.is_zero else float(np.sum(np.abs(a) @ _half_weights(grid)))
                       for f, a in zip(fields, spectra))
    return SpectralState(grid, *spectra, shell, radii, magnitudes)


def evolution_state(problem: CauchyProblem, grid: GridSpec, t: float,
                    state: SpectralState | None = None) -> SpectralState:
    """state, or the problem's on the grid, built only once the periodic images
    are shown not to reach it by time t (DomainSizeError if they do)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    for field in (problem.phi, problem.psi):
        if field.is_zero or field.periodic:
            continue  # wrap-safe: nothing to alias
        if not math.isfinite(field.support_radius):
            raise DomainSizeError("spectral solver needs compactly supported data "
                                  "(finite support_radius)")
        if grid.half_width <= field.support_radius + t:
            raise DomainSizeError(f"grid half-width {grid.half_width:g} <= support "
                                  f"{field.support_radius:g} + t {t:g}: the periodic images "
                                  "would contaminate the solution")
    state = state or spectral_state(problem, grid)
    if state.grid != grid:
        raise ValueError("spectral state was built on a different grid")
    return state


def _rounding(grid: GridSpec) -> float:
    """The inverse transform's rounding relative to its scale, eps * log2(N^n)."""
    return np.finfo(np.float64).eps * grid.dim * math.log2(grid.points)


def _half_weights(grid: GridSpec) -> np.ndarray:
    """Last-axis column counts in the full lattice: 1 if self-conjugate (2k = 0 mod N), else 2."""
    return np.where(2 * np.arange(grid.points // 2 + 1) % grid.points == 0, 1.0, 2.0)


def spectral_solve(problem: CauchyProblem, grid: GridSpec, t: float,
                   state: SpectralState | None = None) -> SolutionGrid:
    """Evolve the half spectrum by the exact per-mode oscillator factors and
    invert it: complex inverse FFTs in place over the leading axes, then one
    real inverse FFT over the last, the steps of irfftn without its per-axis copies.

    The error estimate is the transform's rounding scale,
    eps * log2(N^n) * max|u|; like any rounding-only figure it says nothing
    about aliasing or resolution.
    """
    state = evolution_state(problem, grid, t, state)
    u_hat = _evolved(*_spectra(state), state, t)
    for axis in range(grid.dim - 1):
        np.fft.ifft(u_hat, axis=axis, out=u_hat)
    # n= fixes the length of the last axis, which the half spectrum leaves
    # ambiguous for odd N
    u = np.fft.irfft(u_hat, n=grid.points, axis=-1)
    return SolutionGrid(u, grid, float(t), _rounding(grid) * float(max(u.max(), -u.min())))


#: bytes of per-time partial sums, factor tables and slab buffers one probe pass
#: holds; further times go in further passes, so memory does not grow with their count
_PASS_BYTES = 1 << 25


def _evolved(phi_hat, psi_hat, state: SpectralState, t: float) -> np.ndarray:
    """The half spectrum u_hat of the data (phi_hat, psi_hat) on the state's shells at
    the time t, gathered from `_kernels.evolved_slabs`."""
    u_hat = np.empty(state.shell.shape, dtype=np.complex128)
    for slab, (part,) in _kernels.evolved_slabs(phi_hat, psi_hat, state.shell, state.radii, t):
        u_hat[slab] = part
    return u_hat


def _spectra(state: SpectralState) -> list[np.ndarray | None]:
    """phi_hat and psi_hat, None for a zero one (magnitude 0.0), which is then not read."""
    return [None if a == 0.0 else hat
            for a, hat in zip(state.magnitudes, (state.phi_hat, state.psi_hat))]


def spectral_probes(problem: CauchyProblem, grid: GridSpec, t, index,
                    state: SpectralState | None = None) -> tuple[np.ndarray, np.ndarray | float]:
    """u at the P lattice indices index, shape (P, n), at the time t, values (P,) and
    one estimate, or at each of the times t, (T, P) and (T,), each time's as it gets
    alone, to the bit; with no u_hat or u over the lattice. One pass over the half
    spectrum per group of times whose temporaries fit in _PASS_BYTES evolves each slab
    to every time (`_kernels.evolved_slabs`) and sums it over its last axis against the
    columns' weights times e^(2 pi i k j / N), k j reduced mod N in integers so each
    twiddle is exact, then each time's sums over the other axes (`_kernels.contract_axes`).
    The error estimate is `spectral_solve`'s with max|u| replaced by its bound S = (sum
    w |phi_hat| + t sum w |psi_hat|) / N^n, whose two sums the state holds
    (`SpectralState.magnitudes`)."""
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1 or np.any(times < 0):  # each time, as the guard takes the largest
        raise ValueError("times must be non-negative, a scalar or of shape (T,)")
    state = evolution_state(problem, grid, times.max(initial=0.0), state)
    index = np.asarray(index, dtype=np.int64).reshape(-1, grid.dim)
    tables = [np.exp(2j * math.pi / grid.points * (np.outer(np.arange(size), j) % grid.points))
              for size, j in zip(state.shell.shape, index.T)]
    weights = _half_weights(grid)
    last = weights[:, None] * tables.pop()
    # n = 1 as one row, so the slabs run along axis 0 in every dimension
    shell = np.atleast_2d(state.shell)
    spectra = [hat if hat is None else hat.reshape(shell.shape) for hat in _spectra(state)]
    # times per pass: their partial sums, factor tables and slab buffers within _PASS_BYTES
    group = max(1, _PASS_BYTES // (16 * (shell.size // len(weights) * len(index)
                                         + len(state.radii)) + 2 * _kernels._SLAB_BYTES))
    flat, values = times.reshape(-1), []
    acc = [np.empty(shell.shape[:-1] + (len(index),), dtype=np.complex128)
           for _ in range(min(group, flat.size))]  # each pass's partial sums, overwritten
    for first in range(0, flat.size, group):
        pass_times = flat[first:first + group]
        for slab, parts in _kernels.evolved_slabs(*spectra, shell, state.radii, pass_times):
            for part, sums in zip(parts, acc):
                np.dot(part.reshape(-1, len(weights)), last,
                       out=sums[slab].reshape(-1, len(index)))
        values += [_kernels.contract_axes(sums, tables).real for sums in acc[:len(pass_times)]]
    values = np.reshape(values, times.shape + (len(index),)) / grid.points ** grid.dim
    a_phi, a_psi = state.magnitudes
    estimates = _rounding(grid) * (a_phi + times * a_psi) / grid.points ** grid.dim
    return values, estimates if times.ndim else float(estimates)


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
        mirrored = np.roll(np.flip(arr), 1, axis=tuple(range(arr.ndim)))  # arr at -k
        worst = max(worst, float(np.max(np.abs(arr - np.conj(mirrored)))))
    return worst


def spectral_energy(state: SpectralState, t: float) -> float:
    """Discrete energy sum |u_hat_t|^2 + |k|^2 |u_hat|^2 over the full lattice;
    conserved in t. u_hat_t is the evolution of the data (psi_hat, -|k|^2 phi_hat).

    Each last-axis column counts as often as in the full lattice (`_half_weights`).
    """
    knorm = state.radii[state.shell]
    u_hat = _evolved(state.phi_hat, state.psi_hat, state, t)
    ut_hat = _evolved(state.psi_hat, -knorm * knorm * state.phi_hat, state, t)
    return float(np.sum(_half_weights(state.grid)
                        * (np.abs(ut_hat) ** 2 + (knorm * np.abs(u_hat)) ** 2)))


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
