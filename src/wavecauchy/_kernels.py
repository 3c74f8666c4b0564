"""Numpy hot kernels: the sinc profile and the wave multiplier."""

from __future__ import annotations

import numpy as np

SINC_SERIES_CUTOFF = 1e-4

#: bytes of u_hat the wave multiplier fills per slab along axis 0, which
#: bounds its temporaries to a few slabs instead of a few full lattices
_SLAB_BYTES = 1 << 21


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
    the |k| = 0 mode takes the limit t. Filled in slabs along axis 0."""
    u_hat = np.empty(knorm.shape, dtype=np.complex128)
    rows = max(1, _SLAB_BYTES // u_hat[:1].nbytes)
    for start in range(0, len(u_hat), rows):
        slab = slice(start, start + rows)
        k = knorm[slab]
        zt = k * t
        psi_factor = np.full(np.shape(zt), float(t))
        np.divide(np.sin(zt), k, out=psi_factor, where=k != 0)
        u_hat[slab] = phi_hat[slab] * np.cos(zt) + psi_hat[slab] * psi_factor
    return u_hat


__all__ = ["sinc_ratio", "wave_multiplier"]
