"""Initial-data fields on R^n and the built-in library the CLI exposes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: amplitude threshold defining the numeric support radius of smooth tails
TAIL_CUTOFF = 1e-15


@dataclass(frozen=True)
class ScalarField:
    """A vectorized evaluator with the support, symmetry and degree metadata
    the solvers rely on (the spectral solver refuses data whose numeric support
    does not fit its box, the means solvers reduce the sphere sums of radial
    data to one coordinate and sum polynomial data with a rule of their degree).

    The evaluator gets float64 points shaped (..., n), from the solvers a
    strided view of a coordinate-major buffer whose planes points[..., i] are
    contiguous. It reads each coordinate as points[..., i], writes nothing into
    points, and does not count on points.reshape(-1, n) being free (a copy).
    phi's and psi's evaluators may run at the same time on two threads (the
    spectral state), so neither may mutate shared state without a lock.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dim: int
    support_radius: float = math.inf
    is_zero: bool = False
    #: exactly periodic on any sampling box (constants, lattice modes):
    #: exempt from the spectral wrap-around guard
    periodic: bool = False
    #: the field depends only on |y' - radial_center|, y' the first
    #: len(radial_center) coordinates (all of them, or all but a last one the
    #: field ignores, as after Hadamard descent); None for other data
    radial_center: tuple[float, ...] | None = None
    #: distance over which a radial field changes; sizes the reduced rule
    length_scale: float = math.inf
    #: a promise that the evaluator is a polynomial of total degree <= degree;
    #: the means solvers trust it, as they trust radial_center, and sum the
    #: field with the product rule of that order, which is then exact, unless
    #: that rule would be larger than the default one
    degree: int | None = None
    label: str = field(default="field", compare=False)

    def __post_init__(self):
        if self.radial_center is not None:
            center = tuple(float(c) for c in self.radial_center)
            if not center or len(center) not in (self.dim, self.dim - 1):
                raise ValueError(f"radial_center must have {self.dim} (or {self.dim - 1}) "
                                 "components")
            object.__setattr__(self, "radial_center", center)
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")
        if self.degree is not None:
            if (isinstance(self.degree, bool) or not isinstance(self.degree, (int, np.integer))
                    or self.degree < 0):
                raise ValueError("degree must be a non-negative integer or None")
            object.__setattr__(self, "degree", int(self.degree))

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 0 or points.shape[-1] != self.dim:
            raise ValueError(f"points must have trailing dimension {self.dim}")
        return np.asarray(self.evaluator(points), dtype=np.float64)


def _center(dim: int, center) -> np.ndarray:
    if center is None:
        return np.zeros(dim)
    c = np.asarray(center, dtype=np.float64).reshape(-1)
    if c.size == 1 and dim > 1:
        c = np.full(dim, float(c[0]))
    if c.shape != (dim,):
        raise ValueError(f"center must have {dim} components")
    return c


def _squared_distance(points: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|points - c|^2, summed over the trailing axis one coordinate at a time."""
    out = np.empty(points.shape[:-1])  # the first square, as 0 + x = x for x >= +0
    part = np.empty_like(out)
    for i, ci in enumerate(c):
        target = part if i else out
        np.square(np.subtract(points[..., i], ci, out=target), out=target)
        if i:
            out += part
    return out


def gaussian(dim: int, sigma: float = 1.0, center=None, amplitude: float = 1.0) -> ScalarField:
    """amplitude * exp(-|x - center|^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    c = _center(dim, center)
    two_var = 2.0 * sigma * sigma
    inv = 1.0 / two_var if two_var > 0.0 else math.inf
    if not math.isfinite(inv):
        raise ValueError(f"sigma = {sigma:g} is too small: 1 / (2 sigma^2) is not finite")

    def evaluate(points):
        q = _squared_distance(points, c)
        q *= -inv
        return np.multiply(np.exp(q, out=q), amplitude, out=q)

    cut = abs(amplitude) / TAIL_CUTOFF
    support = sigma * math.sqrt(2.0 * math.log(cut)) if cut > 1 else 0.0
    return ScalarField(evaluate, dim, support_radius=float(np.linalg.norm(c)) + support,
                       radial_center=tuple(c), length_scale=sigma,
                       label=f"gaussian(sigma={sigma})")


def bump(dim: int, radius: float = 1.0, sharpness: float = 1.0, center=None,
         amplitude: float = 1.0) -> ScalarField:
    """C-infinity bump: amplitude * exp(a - a / (1 - |x-c|^2/r^2)) inside |x-c| < r."""
    if radius <= 0 or sharpness <= 0:
        raise ValueError("radius and sharpness must be positive")
    c = _center(dim, center)

    def evaluate(points):
        rho2 = _squared_distance(points, c)
        rho2 /= radius * radius
        out = np.zeros(rho2.shape)
        inside = rho2 < 1.0
        out[inside] = amplitude * np.exp(sharpness - sharpness / (1.0 - rho2[inside]))
        return out

    return ScalarField(evaluate, dim, support_radius=float(np.linalg.norm(c)) + radius,
                       radial_center=tuple(c), length_scale=radius / (4.0 * (1.0 + sharpness)),
                       label=f"bump(radius={radius})")


def constant(dim: int, value: float = 1.0) -> ScalarField:
    v = float(value)

    def evaluate(points):
        return np.full(points.shape[:-1], v)

    # radial about any centre; the origin is as good as another
    return ScalarField(evaluate, dim, support_radius=0.0 if v == 0.0 else math.inf,
                       is_zero=(v == 0.0), periodic=True,
                       radial_center=(0.0,) * dim, degree=0,
                       label=f"constant({v})")


def zero(dim: int) -> ScalarField:
    return constant(dim, 0.0)


# Harmonic polynomials (numerical Laplacian is zero) with their total degree
# and the smallest dimension in which the formula makes sense.
_HARMONIC_POLYS = {
    "linear": (lambda x: x[..., 0], 1, 1),
    "bilinear": (lambda x: x[..., 0] * x[..., 1], 2, 2),
    "saddle": (lambda x: x[..., 0] ** 2 - x[..., 1] ** 2, 2, 2),
    "cubic": (lambda x: x[..., 0] ** 3 - 3.0 * x[..., 0] * x[..., 1] ** 2, 3, 2),
    "triple": (lambda x: x[..., 0] * x[..., 1] * x[..., 2], 3, 3),
}


def harmonic_names() -> list[str]:
    return sorted(_HARMONIC_POLYS)


def harmonic(dim: int, name: str = "linear", amplitude: float = 1.0,
             offset: float = 0.0) -> ScalarField:
    """A harmonic polynomial (plus an optional constant, still harmonic)."""
    try:
        fn, degree, min_dim = _HARMONIC_POLYS[name]
    except KeyError:
        raise ValueError(f"unknown harmonic polynomial {name!r}; have {harmonic_names()}")
    if dim < min_dim:
        raise ValueError(f"harmonic {name!r} needs dimension >= {min_dim}")

    def evaluate(points):
        return amplitude * fn(points) + offset

    return ScalarField(evaluate, dim, degree=degree, label=f"harmonic({name})")


BUILTIN_FIELDS = ("gaussian", "bump", "harmonic", "constant", "zero")


def make_field(kind: str, dim: int, **params) -> ScalarField:
    """Instantiate a built-in field by name (the CLI's data library)."""
    if kind == "gaussian":
        return gaussian(dim, **params)
    if kind == "bump":
        return bump(dim, **params)
    if kind == "harmonic":
        return harmonic(dim, **params)
    if kind == "constant":
        return constant(dim, **params)
    if kind == "zero":
        return zero(dim)
    raise ValueError(f"unknown field kind {kind!r}; have {BUILTIN_FIELDS}")
