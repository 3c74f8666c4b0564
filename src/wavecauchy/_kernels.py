"""Numpy hot kernels: the sinc profile, the wave multiplier, whose
oscillator factors depend on |k| alone and are computed once per |k|^2 shell,
and the axis-by-axis sum of tensor-grid coefficients against per-axis tables."""

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


def evolved_slabs(phi_hat: np.ndarray, psi_hat: np.ndarray, shell: np.ndarray,
                  radii: np.ndarray, t: float, out: np.ndarray | None = None):
    """(slab, u_hat[slab]) along axis 0, each in out[slab] or a new array of at most
    _SLAB_BYTES: u_hat = phi_hat cos(|k| t) + psi_hat sin(|k| t)/|k| with |k| =
    radii[shell] (limit t at |k| = 0), factors computed once per shell and gathered."""
    zt = radii * t
    cos_zt = np.cos(zt)
    psi_factor = np.full(radii.shape, float(t))
    np.divide(np.sin(zt), radii, out=psi_factor, where=radii != 0)
    rows = max(1, _SLAB_BYTES // (16 * shell[:1].size))
    for start in range(0, len(shell), rows):
        slab = slice(start, start + rows)
        index = shell[slab]
        part = np.multiply(phi_hat[slab], cos_zt.take(index),
                           out=None if out is None else out[slab])
        part += psi_hat[slab] * psi_factor.take(index)
        yield slab, part


def wave_multiplier(phi_hat: np.ndarray, psi_hat: np.ndarray, shell: np.ndarray,
                    radii: np.ndarray, t: float) -> np.ndarray:
    """The evolved half spectrum u_hat of `evolved_slabs` as one array."""
    u_hat = np.empty(shell.shape, dtype=np.complex128)
    for _ in evolved_slabs(phi_hat, psi_hat, shell, radii, t, out=u_hat):
        pass
    return u_hat


def contract_axes(acc: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """sum_k acc[k_1, ..., k_m, p] prod_d tables[d][k_d, p] for acc of shape
    (K_1 ... K_m, P), flattened or not, and (K_d, P) tables, from the last axis."""
    for table in reversed(tables):
        acc = np.einsum("ikp,kp->ip", acc.reshape(-1, len(table), acc.shape[-1]), table)
    return acc.reshape(-1, acc.shape[-1])[0]


__all__ = ["contract_axes", "evolved_slabs", "sinc_ratio", "wave_multiplier"]
