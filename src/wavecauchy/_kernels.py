"""Numpy hot kernels: the sinc profile and the wave multiplier, whose
oscillator factors depend on |k| alone and are computed once per |k|^2 shell."""

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


def wave_multiplier(phi_hat: np.ndarray, psi_hat: np.ndarray, shell: np.ndarray,
                    radii: np.ndarray, t: float) -> np.ndarray:
    """u_hat = phi_hat cos(|k| t) + psi_hat sin(|k| t)/|k| with |k| = radii[shell] (limit
    t at |k| = 0); the factors, computed once per shell, are gathered in slabs on axis 0."""
    zt = radii * t
    cos_zt = np.cos(zt)
    psi_factor = np.full(radii.shape, float(t))
    np.divide(np.sin(zt), radii, out=psi_factor, where=radii != 0)
    u_hat = np.empty(shell.shape, dtype=np.complex128)
    rows = max(1, _SLAB_BYTES // u_hat[:1].nbytes)
    for start in range(0, len(u_hat), rows):
        slab = slice(start, start + rows)
        index = shell[slab]
        np.multiply(phi_hat[slab], cos_zt.take(index), out=u_hat[slab])
        u_hat[slab] += psi_hat[slab] * psi_factor.take(index)
    return u_hat


__all__ = ["sinc_ratio", "wave_multiplier"]
