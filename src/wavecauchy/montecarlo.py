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


def ball_monte_carlo(fn, radius: float, n: int, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0, batch: int = 1_000_000) -> MCEstimate:
    """Estimate integral of fn over the ball B(0, R) in R^n.

    fn takes points shaped (M, n). Proposals are uniform on the bounding
    cube; points outside the ball contribute zero, so the estimator is the
    cube volume times the mean of the masked values.
    """
    n = _check_dimension(n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    cube_volume = (2.0 * radius) ** n
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        pts = rng.uniform(-radius, radius, size=(m, n))
        inside = np.einsum("ij,ij->i", pts, pts) <= radius * radius
        vals = np.zeros(m)
        if inside.any():
            vals[inside] = fn(pts[inside])
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    sigma = cube_volume * np.sqrt(var / samples)
    return MCEstimate(cube_volume * mean, float(sigma), samples)


def sphere_monte_carlo(fn, radius: float, n: int, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0, batch: int = 1_000_000) -> MCEstimate:
    """Estimate integral of fn over the sphere of radius R in R^n.

    Directions are Gaussians normalized to unit length (uniform on S^{n-1});
    the estimator is the sphere area times the mean of fn on the samples.
    """
    n = _check_dimension(n)
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    area = unit_sphere_area(n) * radius ** (n - 1)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        g = rng.standard_normal(size=(m, n))
        g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
        vals = np.asarray(fn(radius * g), dtype=np.float64)
        total += vals.sum()
        total_sq += (vals * vals).sum()
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    sigma = area * np.sqrt(var / samples)
    return MCEstimate(area * mean, float(sigma), samples)
