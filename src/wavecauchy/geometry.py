"""Spheres and balls in R^n: constants, product quadrature, reduction rules.

The central objects are a product quadrature on the unit sphere S^{n-1}
(Gauss rules in the cosines of the polar angles, uniform rule in the
azimuth), the reduced rules on S^{n-1} for radial data, and one summation
routine for both (`sphere_sums`). The reduced rules are built from
one-dimensional rules for integrals of the form

    integral_{-R}^{R} f(s) (R^2 - s^2)^{(n-3)/2} ds,

which is what an n-dimensional ball or sphere integral of a function of a
single coordinate collapses to; the reduction formulas sum on them too.
Every Gauss rule, Legendre or Gegenbauer, comes from `_gauss_gegenbauer`.
Everything here is float64 and pure; rule construction is memoized per
dimension and node count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError

#: Gamma-overflow policy: dimensions above this are rejected outright.
MAX_DIMENSION = 12

#: cap on the transient point array of one sphere_sums chunk. Larger arrays
#: are mmapped by the allocator and zero-faulted afresh on every call.
_CHUNK_BYTES = 1 << 23

#: cap on the point array of a group of sphere_sums centres whose chunk is
#: smaller than this: one array for several centres saves calls, and a
#: larger one ran slower
_GROUP_BYTES = 1 << 20

# Default polynomial order of the product sphere rule per n (7 above n = 8).
# Node counts grow like order^(n-1), so the order has to shrink with n; data
# of a lower degree take the smaller rule of their own order instead.
_DEFAULT_SPHERE_ORDERS = {2: 127, 3: 95, 4: 47, 5: 23, 6: 15, 7: 11, 8: 9}


def _check_dimension(n: int, minimum: int = 1) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    n = int(n)
    if n < minimum:
        raise ValueError(f"dimension must be >= {minimum}, got {n}")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the supported maximum {MAX_DIMENSION}")
    return n


@dataclass(frozen=True)
class Dimension:
    """A validated space dimension with the parity data the solvers need."""

    n: int

    def __post_init__(self):
        _check_dimension(self.n)

    @property
    def parity(self) -> str:
        return "odd" if self.n % 2 else "even"

    @property
    def is_odd(self) -> bool:
        return self.n % 2 == 1

    @property
    def derivative_order(self) -> int:
        """Iterations of (1/t d/dt) in the closed-form solution: (n-3)/2 for
        odd n >= 3 and (n-2)/2 for even n >= 2."""
        if self.is_odd:
            if self.n < 3:
                raise ValueError("derivative order undefined for n = 1")
            return (self.n - 3) // 2
        return (self.n - 2) // 2


def double_factorial(k: int) -> int:
    """k!! with the empty product equal to 1 (k <= 0 returns 1)."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _omega(n: int) -> float:
    # unguarded: the even-dimension descent route peeks one dimension up
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2).

    n = 1 gives 2, the counting measure of the two-point set {-1, +1}.
    """
    return _omega(_check_dimension(n))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    n = _check_dimension(n)
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def solution_constant(n: int) -> float:
    """Normalization of the means-based solution formula.

    1/(n-2)!! for odd n >= 3 and 1/n!! for even n >= 2; this is the constant
    that makes the iterated radial derivative of the r^(n-2)-scaled sphere
    average (odd) or r^n-scaled weighted ball average (even) reproduce the
    wave propagator.
    """
    n = _check_dimension(n, minimum=2)
    if n % 2:
        return 1.0 / double_factorial(n - 2)
    return 1.0 / double_factorial(n)


# ---------------------------------------------------------------------------
# Gauss rules for the weights (1 - x^2)^(lam - 1/2) on [-1, 1]
# ---------------------------------------------------------------------------


#: Newton steps a Gauss rule may take; every rule the package builds (up to
#: MAX_OSC_NODES nodes, and lam = 1/2 .. 5 at up to 64) converges in at most 5
_GAUSS_STEPS = 12

#: node pairs in one block of the Aberth sums: 2 MB, at any node count
_PAIR_BLOCK = 1 << 18


def _gegenbauer_flux(count: int, lam: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(x) and (1 - x^2) C'(x) for C = C_count^lam, by the three-term recurrence."""
    prev, value = np.ones_like(x), 2.0 * lam * x
    for j in range(1, count):
        prev, value = value, (2.0 * (j + lam) * x * value - (j + 2.0 * lam - 1.0) * prev) / (j + 1)
    return value, (count + 2.0 * lam - 1.0) * prev - count * x * value


def _aberth_sums(x: np.ndarray) -> np.ndarray:
    """sum over j != i of 1 / (x_i - x_j), for every i, in row blocks."""
    out = np.empty_like(x)
    rows = max(1, _PAIR_BLOCK // len(x))
    for start in range(0, len(x), rows):
        diff = x[start:start + rows, None] - x
        diff[np.arange(len(diff)), np.arange(start, start + len(diff))] = np.inf
        out[start:start + rows] = (1.0 / diff).sum(axis=1)
    return out


def _gauss_gegenbauer(count: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of `count` nodes for the weight (1 - x^2)^(lam - 1/2) on
    [-1, 1]: ascending nodes, the zeros of C_count^lam, and weights summing to
    sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1). lam = 1/2 is Gauss-Legendre.

    Newton on the recurrence, all nodes at once, from the guesses
    -cos((k + lam/2 - 1/2) pi / (count + lam)), each step with the
    Aberth-Ehrlich correction: it keeps two nodes off one zero, where plain
    Newton collapses them (lam = 5 from 12 nodes). The weights are
    1 / ((1 - x^2) C'(x)^2), scaled to the total. Elementwise numpy only,
    O(count^2) work and O(count) memory. EvaluationError, and no rule, when
    the steps have not converged within _GAUSS_STEPS.
    """
    k = np.arange(1, count + 1)
    x = -np.cos((k + 0.5 * lam - 0.5) * (math.pi / (count + lam)))
    for _ in range(_GAUSS_STEPS):
        value, flux = _gegenbauer_flux(count, lam, x)
        newton = value * (1.0 - x) * (1.0 + x) / flux
        step = newton / (1.0 - newton * _aberth_sums(x))
        x = x - step
        if np.abs(step).max() <= 1e-14:
            break
    else:
        raise EvaluationError(f"the {count}-node Gauss rule for lam = {lam:g} did not converge "
                              f"in {_GAUSS_STEPS} Newton steps")
    # mirror-symmetric to the bit, as `_radial_rule`'s fold expects; the
    # weights follow, since the recurrence gives C(-x) = +-C(x) exactly
    x = 0.5 * (x - x[::-1])
    _, flux = _gegenbauer_flux(count, lam, x)
    w = (1.0 - x) * (1.0 + x) / (flux * flux)
    w *= math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0) / w.sum()
    if not (-1.0 < x[0] and x[-1] < 1.0 and (np.diff(x) > 0).all()
            and np.isfinite(w).all() and (w > 0).all()):
        raise EvaluationError(f"the {count}-node Gauss rule for lam = {lam:g} has nodes out of "
                              "order or weights that are not positive")
    return x, w


@lru_cache(maxsize=512)
def _leggauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_gegenbauer(count, 0.5)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# 1-D rules for the weight (R^2 - s^2)^{(n-3)/2} on (-R, R)
# ---------------------------------------------------------------------------


DEFAULT_OSC_NODES = 64
#: most nodes of an oscillatory 1-D rule, reached at R|xi| ~ 1275. A Gauss
#: rule costs O(count^2) work in O(count) memory: 0.3-0.4 s and a 4.4 MB peak
#: at this count, 0.1 s at 2048 (2-core Xeon, numpy 2.4)
MAX_OSC_NODES = 4096


def _osc_nodes(kappa, base: int = DEFAULT_OSC_NODES):
    """Node count for the oscillatory 1-D rules, or an int array of them for an
    array of R|xi|; grows linearly past R|xi| ~ 30 to keep at least ~10 nodes
    per oscillation period. EvaluationError past MAX_OSC_NODES, and for an
    infinite or NaN R|xi|, naming the first such value."""
    kappa = np.asarray(kappa, dtype=np.float64)
    over = ~(kappa <= 30.0) & ~(3.2 * kappa + 16 <= MAX_OSC_NODES)
    if over.any():
        raise EvaluationError(f"R|xi| = {kappa[over].flat[0]:.3g} needs more than "
                              f"{MAX_OSC_NODES} oscillatory quadrature nodes")
    counts = np.where(kappa <= 30.0, base, np.maximum(base, np.ceil(3.2 * kappa) + 16)).astype(int)
    return int(counts) if counts.ndim == 0 else counts


@lru_cache(maxsize=512)
def _unit_gegenbauer(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on [-1, 1] for the weight (1 - x^2)^{(n-3)/2}.

    Odd n: the weight is a polynomial, so plain Gauss-Legendre absorbs it
    into the weights. Even n: substitute x = sin(theta) to remove the
    algebraic endpoint behavior and use Gauss-Legendre in theta. n = 2
    (weight (1 - x^2)^{-1/2}) is allowed here for the descent machinery even
    though the public reduction operations start at n = 3.
    """
    if n < 2:
        raise ValueError("reduction weight defined for n >= 2 only")
    if n % 2:
        m = (n - 3) // 2
        x, w = _leggauss(count)
        weights = w * (1.0 - x * x) ** m
        nodes = x.copy()
    else:
        theta, w = _leggauss(count)
        theta = theta * (math.pi / 2.0)  # map to (-pi/2, pi/2)
        nodes = np.sin(theta)
        weights = (math.pi / 2.0) * w * np.cos(theta) ** (n - 2)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# Reduction formulas for integrands depending on a single coordinate
# ---------------------------------------------------------------------------


def reduce_sphere_integral(f, radius: float, n: int, count: int = 64) -> float:
    """integral over the sphere of radius R in R^n of f(x_n), reduced to 1-D.

    Collapses to omega_{n-1} R^{n-1} * integral of f against the
    (1 - x^2)^{(n-3)/2} weight on [-1, 1]: the sphere sum on the reduced
    rule `_radial_rule(n, n, count)`, whose first coordinate carries that
    weight (x_n and x_1 are alike on the sphere).
    """
    n = _check_dimension(n, minimum=3)
    if radius <= 0:
        raise ValueError("radius must be positive")
    sums = sphere_sums(lambda points: f(points[..., 0]), 0.0, np.array([radius]),
                       _radial_rule(n, n, count))
    return radius ** (n - 1) * float(sums[0])


def reduce_ball_integral(f, radius: float, n: int, count: int = 64) -> float:
    """integral over the ball of radius R in R^n of f(x_n), by nested quadrature.

    Outer 64-node Gauss-Legendre rule in the radius, inner sphere sums on
    the reduced rule of `count` nodes, as in `reduce_sphere_integral`.
    """
    n = _check_dimension(n, minimum=3)
    if radius <= 0:
        raise ValueError("radius must be positive")
    u, wu = _leggauss(64)
    rho = 0.5 * radius * (u + 1.0)
    w_rho = 0.5 * radius * wu
    sums = sphere_sums(lambda points: f(points[..., 0]), 0.0, rho, _radial_rule(n, n, count))
    return float((w_rho * rho ** (n - 1)) @ sums)


# ---------------------------------------------------------------------------
# Product quadrature on the unit sphere S^{n-1}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes (unit vectors) and weights summing to the sphere area omega_n."""

    dim: Dimension
    nodes: np.ndarray  # (K, n), the transpose of the built rule's contiguous (n, K)
    weights: np.ndarray  # (K,)
    order: int  # polynomial exactness

    @property
    def n(self) -> int:
        return self.dim.n

    def to_csv(self, path) -> None:
        """Write `index, node components..., weight` rows."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index"] + [f"x{k + 1}" for k in range(self.n)] + ["weight"])
            for i, (node, w) in enumerate(zip(self.nodes, self.weights)):
                writer.writerow([i] + [repr(float(c)) for c in node] + [repr(float(w))])


@lru_cache(maxsize=128)
def _build_sphere_rule(n: int, polar: int, azimuth: int) -> SphereQuadrature:
    if n == 1:
        nodes = np.array([[1.0, -1.0]])
        weights = np.array([1.0, 1.0])
        order = 10**6  # the two-point rule is exact for every polynomial
    elif n == 2:
        theta = 2.0 * math.pi * (np.arange(azimuth) + 0.5) / azimuth
        nodes = np.stack([np.cos(theta), np.sin(theta)])
        weights = np.full(azimuth, 2.0 * math.pi / azimuth)
        order = azimuth - 1
    else:
        # polar angles phi_1..phi_{n-2}: Gauss rule in zeta = cos(phi_k) for
        # the absorbed weight (1 - zeta^2)^{(p-1)/2}, with sin-power
        # p = n - 1 - k; azimuth: uniform midpoint rule.
        zetas, zweights = [], []
        for k in range(1, n - 1):
            p = n - 1 - k
            z, w = _gauss_gegenbauer(polar, p / 2.0)
            zetas.append(z)
            zweights.append(w)
        theta = 2.0 * math.pi * (np.arange(azimuth) + 0.5) / azimuth
        grids = np.meshgrid(*zetas, theta, indexing="ij")
        zeta_grids, theta_grid = grids[:-1], grids[-1]
        wgrids = np.meshgrid(*zweights, np.full(azimuth, 2.0 * math.pi / azimuth), indexing="ij")

        sines = [np.sqrt(np.clip(1.0 - z * z, 0.0, None)) for z in zeta_grids]
        coords = [None] * n
        prefix = 1.0
        # x_n = zeta_1, x_{n-1} = sin(phi_1) zeta_2, ..., x_2/x_1 from azimuth
        for k, z in enumerate(zeta_grids):
            coords[n - 1 - k] = prefix * z
            prefix = prefix * sines[k]
        coords[1] = prefix * np.cos(theta_grid)
        coords[0] = prefix * np.sin(theta_grid)

        nodes = np.stack([c.ravel() for c in coords])
        weights = np.ones_like(theta_grid)
        for w in wgrids:
            weights = weights * w
        weights = weights.ravel()
        order = min(2 * polar - 1, azimuth - 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereQuadrature(Dimension(n), nodes.T, weights, order)


def default_sphere_order(n: int) -> int:
    """Polynomial order of the default product rule on S^{n-1}."""
    return _DEFAULT_SPHERE_ORDERS.get(n, 7)


def sphere_quadrature(n: int) -> SphereQuadrature:
    """The default product quadrature on S^{n-1}; memoized per n."""
    n = _check_dimension(n)
    return sphere_quadrature_for_order(n, default_sphere_order(n))


def sphere_quadrature_for_order(n: int, order: int) -> SphereQuadrature:
    """Smallest product rule exact for all polynomials of degree <= order."""
    n = _check_dimension(n)
    polar = max(2, (order + 2) // 2)
    azimuth = max(4, order + 1 + (order + 1) % 2)
    return _build_sphere_rule(n, polar, azimuth)


#: Largest even dimension whose descent rule on S^n stays within MAX_DIMENSION.
MAX_DESCENT_DIMENSION = MAX_DIMENSION - 2


def check_descent(n: int) -> None:
    """Reject an n that is odd or whose descent would leave MAX_DIMENSION."""
    if n % 2 or not 2 <= n <= MAX_DESCENT_DIMENSION:
        raise ValueError(f"descent needs an even n <= {MAX_DESCENT_DIMENSION}, got {n}")


def descent_rule(n: int, rule: SphereQuadrature | None = None) -> SphereQuadrature:
    """The S^n rule for an even-n means value by Hadamard descent from n + 1;
    a rule on S^(n-1) gives way to the S^n rule of the same polynomial order."""
    check_descent(n)
    if rule is None:
        return sphere_quadrature(n + 1)
    if rule.n == n:
        return sphere_quadrature_for_order(n + 1, rule.order)
    if rule.n != n + 1:
        raise ValueError(f"rule on S^{rule.n - 1} does not fit dimension {n}")
    return rule


def sphere_sums(g, center, radii: np.ndarray, rule: SphereQuadrature,
                null: np.ndarray | None = None):
    """S(r_j) = sum_i w_i g(center + r_j node_i), chunked over nodes: omega_n
    times the mean of g over the sphere of radius r_j. g takes points shaped
    (..., n), a view of one coordinate-major (n, [P,] R, chunk) buffer whose
    planes points[..., d] are contiguous, and must not write into them. It may
    be complex-valued, or stack k values per point before the radius and node
    axes for sums (k, R) or (P, k, R). The only place a field is evaluated on
    spheres: the product rules and the reduced rules of radial data
    (`_radial_rule`) both come through here. The sums are checked, not each
    value: the weights are positive, so a non-finite value leaves its sum
    non-finite.

    center is one point, shape (n,) or a scalar, and gives sums of shape
    (R,); or P points, shape (P, n), and gives (P, R), the radii shared,
    shape (R,), or one row per centre, shape (P, R). The node chunks depend
    on R and n only. Each run of adjacent centres with one radius row goes in
    groups whose point array stays within _GROUP_BYTES, or one at a time when
    one centre's chunk is larger, so each centre's sums are the ones it gets
    alone, to the bit.

    With null, weights shaped (nodes, Q) (`_null_weights`), also the Q null
    sums of each sum from the same values, shaped (..., R, Q): (sums, nulls).
    They are a separate product, so the sums keep their bits."""
    centers, radii = np.asarray(center, dtype=np.float64), np.asarray(radii)
    n, n_radii, nodes = rule.n, max(radii.shape[-1], 1), rule.nodes.T
    chunk = min(max(1, _CHUNK_BYTES // (n_radii * n * 8)), nodes.shape[1])
    group = max(1, _GROUP_BYTES // (n_radii * chunk * n * 8))
    if centers.ndim < 2:
        parts = [(centers[..., None, None], radii)]
    else:  # each run of adjacent centres with one radius row, in groups
        rows = radii if radii.ndim > 1 else radii[None]  # the shared row, or one per centre
        changes = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1 if len(rows) > 1 else []
        runs = [0, *changes, len(centers)]
        parts = [(centers[first:min(first + group, stop)].T[..., None, None], rows[start])
                 for start, stop in zip(runs, runs[1:]) for first in range(start, stop, group)]
    sums, nulls = [], []
    for part, r in parts:  # centres (n, [G,] 1, 1), or a scalar's (1, 1), and their radii
        out = tail = 0.0
        for i in range(0, nodes.shape[1], chunk):  # einsum outruns a broadcast r * node
            points = np.einsum("r,dk->drk", r, nodes[:, i:i + chunk], order="C")
            if part.ndim > 3:  # a group: one copy per centre, in place for one
                points = np.add(points[:, None], part, order="C",
                                out=points[:, None] if len(part[0]) == 1 else None)
            else:
                points += part
            values = np.asarray(g(np.moveaxis(points, 0, -1)))
            out = out + values @ rule.weights[i:i + chunk]
            if null is not None:
                tail = tail + values @ null[i:i + chunk]
        sums.append(out)
        nulls.append(tail)
    if centers.ndim < 2:
        out, tail = sums[0], nulls[0]
    else:
        out = np.concatenate(sums or [np.zeros((0, radii.shape[-1]))])
        tail = None if null is None else np.concatenate(
            nulls or [np.zeros((0, radii.shape[-1], null.shape[1]))])
    if not np.isfinite(out).all():
        raise EvaluationError("g returned non-finite values on a sphere")
    return out if null is None else (out, tail)


def _folded_zeta(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The zeta rule of `_unit_gegenbauer(n, count)` folded onto its upper
    ceil(count / 2) nodes, for integrands even in zeta."""
    zeta, vz = _unit_gegenbauer(n, count)
    zeta, vz = zeta[count // 2:], 2.0 * vz[count // 2:]
    if count % 2:
        vz[0] /= 2.0  # the middle node zeta = 0 is its own mirror image
    return zeta, vz


@lru_cache(maxsize=64)
def _radial_rule(k: int, n: int, count: int) -> SphereQuadrature:
    """The single-coordinate reduction as a rule on S^(n-1), with `count`
    nodes per coordinate: exact for radial data only (order 0), data that
    depend on |y' - c|, y' the first k = n or n - 1 coordinates of y, summed
    about a centre on the ray c + d e_1 (`radial_sum_center`).

    k = n: nodes (s, sqrt(1 - s^2), 0, ...), s weighted by (1 - s^2)^((n-3)/2)
    with the factor omega_(n-1): |y' - c|^2 = d^2 + 2 d r s + r^2 depends on
    s alone. k = n - 1 (data lifted by descent): omega = (sqrt(1 - zeta^2)
    eta, zeta) with eta on S^(k-1) reduced as above and zeta weighted by
    (1 - zeta^2)^((n-3)/2): a tensor rule, zeta major. zeta and -zeta give the
    same |y' - c|, so the zeta rule is folded onto its upper ceil(count / 2)
    nodes.
    """
    s, v = _unit_gegenbauer(k, count)
    weights = _omega(k - 1) * v
    nodes = np.zeros((n, count))
    nodes[0], nodes[1] = s, np.sqrt(1.0 - s * s)
    if k != n:
        zeta, vz = _folded_zeta(n, count)
        nodes = np.sqrt(1.0 - zeta * zeta)[:, None] * nodes[:, None, :]
        nodes[-1] = zeta[:, None]
        nodes = nodes.reshape(n, -1)
        weights = np.outer(vz, weights).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return SphereQuadrature(Dimension(n), nodes.T, weights, 0)


#: degrees per coordinate that the null rules of a reduced rule cover: its last
#: NULL_DEGREES in s, and after descent in zeta^2 too
NULL_DEGREES = 4


def _null_columns(k: int, count: int, weights: np.ndarray, fold: bool = False) -> np.ndarray:
    """weights p_j sqrt(h_0) for the last NULL_DEGREES degrees j that the 1-D rule
    of `_unit_gegenbauer(k, count)` sums exactly against each other: the columns
    of its null rules. The rule is Gauss-Legendre in x; for odd k its weights
    carry (1 - x^2)^m, m = (k - 3) / 2, and p_j are the polynomials orthonormal
    for that weight (Gegenbauer, lam = m + 1/2, total h_0), to degree count - 1 - m;
    for even k (s = sin(pi x / 2)) the Legendre ones, to degree count - 1. They
    come from the recurrence x p_j = b_(j+1) p_(j+1) + b_j p_(j-1) with
    b_j^2 = j (j + 2 lam - 1) / (4 (j + lam) (j + lam - 1)). With fold, the
    rule's upper half (nodes x >= 0, weights given) and the even degrees."""
    x, m = _leggauss(count)[0], (k - 3) // 2 if k % 2 else 0
    top, step, lam = count - 1 - m, 2 if fold else 1, m + 0.5
    top -= top % step
    degrees = range(max(0, top - step * (NULL_DEGREES - 1)), top + 1, step)
    x = x[count // 2:] if fold else x
    prev, p, b, out = np.zeros_like(x), np.ones_like(x), 0.0, []
    for j in range(top + 1):
        if j in degrees:
            out.append(p)
        b_next = math.sqrt((j + 1) * (j + 2 * lam) / (4 * (j + 1 + lam) * (j + lam)))
        prev, p, b = p, (x * p - b * prev) / b_next, b_next
    return weights[:, None] * np.stack(out, axis=1)


@lru_cache(maxsize=64)
def _null_weights(k: int, n: int, count: int) -> np.ndarray:
    """The null rules of `_radial_rule(k, n, count)`, shape (nodes, Q): each
    column, applied to the values the rule sums, gives the integrand's
    coefficient of one orthonormal polynomial (`_null_columns`) in the units of
    the sum, and sums every polynomial of a lower degree to zero. The columns are
    the last NULL_DEGREES degrees in s; after descent they are tensored with the
    whole zeta rule, and the whole s rule with the last NULL_DEGREES degrees in
    zeta^2 on the folded zeta rule, so odd zeta degrees never appear."""
    v = _omega(k - 1) * _unit_gegenbauer(k, count)[1]
    null = _null_columns(k, count, v)
    if k != n:  # zeta major, as the rule's nodes
        vz = _folded_zeta(n, count)[1]
        z_null = _null_columns(n, count, vz, fold=True)
        s_null, q = null, null.shape[1]
        null = np.empty((len(vz), count, q + z_null.shape[1]))
        np.multiply(vz[:, None, None], s_null, out=null[..., :q])
        np.multiply(z_null[:, None, :], v[:, None], out=null[..., q:])
        null = null.reshape(-1, null.shape[-1])
    null.setflags(write=False)
    return null


def radial_sum_center(x, radial_center) -> np.ndarray:
    """Points x, shape (P, n), each with its first k = len(c) coordinates x'
    moved to c + |x' - c| e_1. Sphere sums of data radial about c are the
    same there as at x, and the point lies on the ray that `_radial_rule`
    expects. Each distance is the square root of its own dot product, the
    bits of np.linalg.norm at a fifth of its call cost; a norm over an axis
    rounds differently."""
    centers = np.array(x, dtype=np.float64)
    c = np.asarray(radial_center, dtype=np.float64)
    d = [math.sqrt(offset.dot(offset)) for offset in centers[:, :c.shape[0]] - c]
    centers[:, :c.shape[0]] = c
    centers[:, 0] += d
    return centers
