"""The iterated radial derivative (1/t d/dt)^m from equally spaced samples.

The operator is applied analytically to a local polynomial fit: with
a_{m,j} defined by the recurrence a_{m+1,j} = (j - 2m) a_{m,j} + a_{m,j-1},

    (1/t d/dt)^m F(t) = sum_{j=1..m} a_{m,j} t^(j-2m) F^(j)(t),

and the derivatives F^(j)(t) come from interpolating F through a symmetric
stencil of degree+1 equally spaced points. The result is exact (to rounding)
whenever F is a polynomial of degree <= the fit degree, which is what makes
polynomial test data bit-tight downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, StencilError

#: Below h = CONDITIONING_FLAG * t the divided differences start to lose
#: digits faster than the fit gains them; flag such requests.
CONDITIONING_FLAG = 1e-6


@dataclass(frozen=True)
class RadialDerivativeSpec:
    """How to realize (1/t d/dt)^iterations numerically.

    iterations: m, the number of (1/t d/dt) applications.
    h: stencil spacing; must satisfy h < t / (2 m + 6) at the evaluation
       radius so the stencil stays well inside t > 0.
    degree: local polynomial degree of the fit (>= iterations + 2).
    """

    iterations: int
    h: float
    degree: int

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not self.h > 0:
            raise StencilError(f"h must be positive, got {self.h:g}")
        if self.degree < self.iterations + 2:
            raise ValueError("degree must be at least iterations + 2")

    def validate_radius(self, t: float) -> None:
        if not 0 < CONDITIONING_FLAG * t <= self.h < t / (2 * self.iterations + 6):
            check_radius(self.iterations, t, self.h)  # numpy only on a raise or warning


def check_radius(m: int, t, h) -> None:
    """`RadialDerivativeSpec.validate_radius` at radii t with spacings h for m
    iterations, scalars or arrays alike, naming the first offender."""
    t, h = np.broadcast_arrays(t, h)
    if (t <= 0).any():
        raise StencilError("evaluation radius must be positive")
    wide = (h >= t / (2 * m + 6)).ravel()
    if wide.any():
        t, h = t.flat[wide.argmax()], h.flat[wide.argmax()]
        raise StencilError(f"h = {h:g} too large for t = {t:g}: need h < t/(2m+6) = "
                           f"{t / (2 * m + 6):g}")
    small = (h < CONDITIONING_FLAG * t).ravel()
    if small.any():
        warnings.warn(f"stencil spacing h = {h.flat[small.argmax()]:g} below "
                      f"{CONDITIONING_FLAG:g}*t; divided differences may be rounding-limited",
                      RuntimeWarning, stacklevel=4)


def default_spec(iterations: int, t: float, oscillation: float = 0.0) -> RadialDerivativeSpec:
    """Spacing tuned to the evaluation radius and the integrand oscillation.

    oscillation is the magnitude of d/dt-frequencies present in F (for the
    exponential averages this is |xi|); h*oscillation ~ 0.05 balances the
    fit truncation against rounding.
    """
    h = t / (2 * iterations + 10)
    if oscillation > 0:
        h = min(h, 0.05 / oscillation)
    if not h > 0:
        raise StencilError(f"h must be positive: t = {t:g} leaves h = {h:g}")
    return RadialDerivativeSpec(iterations, h, 2 * iterations + 4)


def resolve_spec(m: int, t: float,
                 spec: RadialDerivativeSpec | None = None) -> RadialDerivativeSpec:
    """spec, or the default one for m iterations at t, checked against m and t."""
    if spec is None:
        spec = default_spec(m, t)
    elif spec.iterations != m:
        raise ValueError(f"spec.iterations = {spec.iterations}, dimension needs {m}")
    spec.validate_radius(t)
    return spec


@lru_cache(maxsize=64)
def radial_chain_coefficients(m: int) -> tuple[tuple[int, int], ...]:
    """Pairs (j, a_{m,j}) such that D^m F = sum a_{m,j} t^(j-2m) F^(j)."""
    if m == 0:
        return ((0, 1),)
    coeffs = {1: 1}
    for level in range(1, m):
        nxt: dict[int, int] = {}
        for j, a in coeffs.items():
            nxt[j] = nxt.get(j, 0) + (j - 2 * level) * a
            nxt[j + 1] = nxt.get(j + 1, 0) + a
        coeffs = {j: a for j, a in nxt.items() if a != 0}
    return tuple(sorted(coeffs.items()))


def stencil_offsets(degree: int) -> np.ndarray:
    """Symmetric, equally spaced offsets (in units of h) for degree+1 points."""
    npts = degree + 1
    return np.arange(npts, dtype=np.float64) - (npts - 1) / 2.0


def stencil_radii(t, degree: int, h) -> np.ndarray:
    """The degree + 1 stencil radii at spacing h around t, or one row of them per
    pair of t and h of shape (D,); StencilError when one reaches a radius <= 0."""
    radii = np.asarray(t)[..., None] + stencil_offsets(degree) * np.asarray(h)[..., None]
    if min(radii[..., :1].flat) <= 0:
        t, h, first = (np.ravel(a) for a in np.broadcast_arrays(t, h, radii[..., 0]))
        i = first.argmin()
        raise StencilError(f"stencil of degree {degree} with h = {h[i]:g} reaches radius "
                           f"{first[i]:g} <= 0 at t = {t[i]:g}")
    return radii


@lru_cache(maxsize=64)
def _fit_matrix(degree: int) -> np.ndarray:
    """Inverse of the Vandermonde matrix of the stencil scaled to [-1, 1]:
    column i holds the power coefficients of the Lagrange basis polynomial of
    node x_i. Over the integer nodes a_k = 2k - degree = degree * x_k those are
    integer ratios, c_j degree^j / prod_{k != i} (a_i - a_k), and int / int
    rounds each entry once, to the float nearest the exact inverse."""
    nodes = [2 * k - degree for k in range(degree + 1)]
    inv = np.empty((degree + 1, degree + 1))
    for i, a_i in enumerate(nodes):
        poly, denom = [1], 1  # prod_{k != i} (a - a_k), increasing powers of a
        for a_k in nodes[:i] + nodes[i + 1:]:
            poly = [p - a_k * q for p, q in zip([0] + poly, poly + [0])]
            denom *= a_i - a_k
        inv[:, i] = [c * degree**j / denom for j, c in enumerate(poly)]
    inv.setflags(write=False)
    return inv


def _power(x, p: int):
    """x ** p, by element for an array: numpy's array power rounds unlike a float's.
    A float's x ** 0 is 1 and x ** 1 is x, so an array takes no loop for those."""
    if not getattr(x, "ndim", 0):
        return x ** p
    if p in (0, 1):
        return np.ones(x.shape) if p == 0 else np.array(x, dtype=np.float64)
    return np.array([v ** p for v in x.tolist()])


def _fit_derivatives(values: np.ndarray, h, max_order: int) -> np.ndarray:
    """F^(0..max_order) at the stencil center from the polynomial interpolant
    through the samples values, (R,) or (R, ...) with one profile per trailing
    index, shaped (max_order + 1,) + that trailing shape (h: one or D)."""
    degree = len(values) - 1
    if max_order > degree:
        raise StencilError(f"need derivative order {max_order} but fit degree is {degree}")
    scale = stencil_offsets(degree)[-1] * h
    # one matrix-vector product per profile, a contiguous row in any layout of values,
    # which rounds as that profile alone does; one matrix product would not
    profiles = np.ascontiguousarray(values.reshape(degree + 1, -1).T)
    coeffs = np.matmul(_fit_matrix(degree), profiles[..., None])[..., 0].T.reshape(values.shape)
    return np.array(
        [math.factorial(j) * coeffs[j] / _power(scale, j) for j in range(max_order + 1)]
    )


def chain_apply(values: np.ndarray, m: int, t, h):
    """(1/t d/dt)^m at t from the samples values on the stencil of spacing h
    around t. t and h are scalars, or one per profile of samples (R, D), each
    profile's value the one it gets alone. The d/dt of (1/t d/dt)^m is t times
    the chain one order higher, t (1/t d/dt)^(m+1)."""
    try:
        derivs = _fit_derivatives(values, h, m)
        return sum(a * _power(t, j - 2 * m) * derivs[j] for j, a in radial_chain_coefficients(m))
    except OverflowError as exc:  # a float t ** (j - 2m) beyond the float range
        raise EvaluationError(f"(1/t d/dt)^{m} at t = {np.min(t):g} overflows") from exc
