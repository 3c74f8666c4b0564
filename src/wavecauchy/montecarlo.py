"""Fixed-seed Monte Carlo estimators used as oracles for the quadrature paths.

Deliberately independent of the quadrature machinery: balls are sampled by
rejection from the bounding cube, spheres by normalized Gaussian directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _check_dimension, unit_sphere_area

DEFAULT_SAMPLES = 10**6


@dataclass(frozen=True)
class MCEstimate:
    value: float
    sigma: float
    samples: int

    def z_score(self, reference: float) -> float:
        if self.sigma == 0.0:
            # zero-variance estimator (constant integrand): exact up to rounding
            scale = max(abs(self.value), abs(reference), 1.0)
            return 0.0 if abs(self.value - reference) <= 1e-12 * scale else float("inf")
        return abs(self.value - reference) / self.sigma


#: samples drawn and evaluated at a time
_BATCH = 1_000_000


def _estimate(draw, samples: int, scale: float) -> MCEstimate:
    """scale times the mean of the values draw(m) returns for m samples at a
    time, _BATCH at most, with the standard error of that mean as sigma."""
    total = total_sq = 0.0
    for done in range(0, samples, _BATCH):
        vals = draw(min(_BATCH, samples - done))
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MCEstimate(scale * mean, float(scale * np.sqrt(var / samples)), samples)


def ball_monte_carlo(fn, radius: float, n: int, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> MCEstimate:
    """Estimate integral of fn over the ball B(0, R) in R^n.

    fn takes points shaped (M, n). Proposals are uniform on the bounding
    cube; points outside the ball contribute zero, so the estimator is the
    cube volume times the mean of the masked values.
    """
    n = _check_dimension(n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)

    def draw(m: int) -> np.ndarray:
        pts = rng.uniform(-radius, radius, size=(m, n))
        inside = np.einsum("ij,ij->i", pts, pts) <= radius * radius
        vals = np.zeros(m)
        if inside.any():
            vals[inside] = fn(pts[inside])
        return vals

    return _estimate(draw, samples, (2.0 * radius) ** n)


def sphere_monte_carlo(fn, radius: float, n: int, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> MCEstimate:
    """Estimate integral of fn over the sphere of radius R in R^n.

    Directions are Gaussians normalized to unit length (uniform on S^{n-1});
    the estimator is the sphere area times the mean of fn on the samples.
    """
    n = _check_dimension(n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)

    def draw(m: int) -> np.ndarray:
        g = rng.standard_normal(size=(m, n))
        g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        return np.asarray(fn(radius * g), dtype=np.float64)

    return _estimate(draw, samples, unit_sphere_area(n) * radius ** (n - 1))
