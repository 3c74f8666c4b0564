"""Numpy hot kernels: the sinc profile, the half spectrum evolved slab by slab,
whose oscillator factors depend on |k| alone and are computed once per |k|^2
shell, and the axis-by-axis sum of tensor-grid coefficients against per-axis tables."""

from __future__ import annotations

import numpy as np

#: bytes of u_hat per time that `evolved_slabs` fills per slab along axis 0: a slab of
#: phi_hat, psi_hat and shell stays in a 2 MB L2 cache while it is evolved to every time,
#: and a probe product, (rows N^(n-2), N // 2 + 1) @ (N // 2 + 1, P), stays under
#: OpenBLAS's gemm threading cut (m n k <= 65536 * 4), so it runs on the calling thread
_SLAB_BYTES = 1 << 17


def sinc_ratio(z: np.ndarray) -> np.ndarray:
    """sin(z)/z, 1 at z = 0; the quotient has no cancellation, so it is accurate at
    every z != 0, however small."""
    z = np.asarray(z, dtype=np.float64)
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0)


def evolved_slabs(phi_hat: np.ndarray | None, psi_hat: np.ndarray | None,
                  shell: np.ndarray, radii: np.ndarray, times):
    """(slab, parts) along axis 0, parts[i] = u_hat[slab] at times[i] (a scalar is one
    time) in a buffer of at most _SLAB_BYTES that the next slab reuses:
    u_hat = phi_hat cos(|k| t) + psi_hat sin(|k| t)/|k|, |k| = radii[shell] (limit t at
    |k| = 0). Every time's two factors are computed once per shell into one (shells,
    T, 2) table, whose rows each slab gathers once; each slab is read once for every
    time. A None spectrum is a zero field's; its term is skipped."""
    times = [float(t) for t in np.atleast_1d(times)]
    table = np.empty((len(radii), len(times), 2))
    for i, t in enumerate(times):
        zt = radii * t
        table[:, i, 0] = np.cos(zt)
        table[:, i, 1] = t
        np.divide(np.sin(zt), radii, out=table[:, i, 1], where=radii != 0)
    rows = max(1, _SLAB_BYTES // (16 * shell[:1].size))
    buffers = np.empty((len(times), min(rows, len(shell))) + shell.shape[1:], complex)
    for start in range(0, len(shell), rows):
        slab = slice(start, start + rows)
        factors = table.take(shell[slab], axis=0)
        parts = buffers[:, :len(factors)]
        for i, part in enumerate(parts):
            terms = [(hat[slab], factors[..., i, j])
                     for j, hat in enumerate((phi_hat, psi_hat)) if hat is not None]
            (hat, f), *rest = terms or [(0.0, 0.0)]  # both zero: u_hat = 0
            np.multiply(hat, f, out=part)
            for hat, f in rest:
                part += hat * f
        yield slab, parts


def contract_axes(acc: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """sum_k acc[k_1, ..., k_m, p] prod_d tables[d][k_d, p] for acc of shape
    (K_1 ... K_m, P), flattened or not, and (K_d, P) tables, from the last axis."""
    for table in reversed(tables):
        acc = np.einsum("ikp,kp->ip", acc.reshape(-1, len(table), acc.shape[-1]), table)
    return acc.reshape(-1, acc.shape[-1])[0]


__all__ = ["contract_axes", "evolved_slabs", "sinc_ratio"]
