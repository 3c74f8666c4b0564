"""Numpy hot kernels: the sinc profile and the wave multiplier."""

from __future__ import annotations

import numpy as np

SINC_SERIES_CUTOFF = 1e-4


def sinc_ratio(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with a Taylor branch near the removable singularity."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    z2 = z * z
    series = 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0))
    return np.where(small, series, np.sin(safe) / safe)


def wave_multiplier(phi_hat: np.ndarray, psi_hat: np.ndarray, knorm: np.ndarray,
                    t: float) -> np.ndarray:
    """u_hat = phi_hat * cos(|k| t) + psi_hat * sin(|k| t) / |k| on a frequency lattice;
    the |k| = 0 mode takes the limit t."""
    zt = knorm * t
    psi_factor = np.full(np.shape(zt), float(t))
    np.divide(np.sin(zt), knorm, out=psi_factor, where=knorm != 0)
    return phi_hat * np.cos(zt) + psi_hat * psi_factor


__all__ = ["sinc_ratio", "wave_multiplier"]
