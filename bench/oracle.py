"""Exact kernel evaluation written for the benchmark, independent of ifmm.

The checks in `workloads.py` measure residuals against these formulas, so a
fault in the library's own kernels, dense oracle or H2 operators cannot
hide itself. Rows are evaluated in small chunks to bound scratch memory.
"""

from __future__ import annotations

import numpy as np

ROW_CHUNK = 64


def benchmark_entries(P: np.ndarray, Q: np.ndarray, d: float) -> np.ndarray:
    """K(r) = 1 at r = 0, r/d below d, d/r from d on."""
    r = np.sqrt(((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=-1))
    return np.where(r == 0.0, 1.0, np.where(r < d, r / d, d / np.maximum(r, d)))


def rpy_entries(P: np.ndarray, Q: np.ndarray, a: float, eta: float) -> np.ndarray:
    """Rotne-Prager-Yamakawa blocks f(r) I + g(r) e e^T, point-major rows.

    r > 2a: f = c (3a/(4r) + a^3/(2r^3)), g = c (3a/(4r) - 3a^3/(2r^3));
    r <= 2a: f = c (1 - 9r/(32a)), g = c 3r/(32a); c = 1/(6 pi eta a).
    """
    diff = P[:, None, :] - Q[None, :, :]
    r = np.sqrt((diff ** 2).sum(axis=-1))
    c = 1.0 / (6.0 * np.pi * eta * a)
    rr = np.where(r > 0.0, r, 1.0)
    far = r > 2.0 * a
    f = c * np.where(far, 0.75 * a / rr + 0.5 * a ** 3 / rr ** 3,
                     1.0 - 9.0 * r / (32.0 * a))
    g = c * np.where(far, 0.75 * a / rr - 1.5 * a ** 3 / rr ** 3,
                     3.0 * r / (32.0 * a))
    e = diff / rr[..., None]
    out = np.einsum("pq,pqi,pqj->piqj", g, e, e)
    for i in range(3):
        out[:, i, :, i] += f
    return out.reshape(3 * len(P), 3 * len(Q))


def exact_entries(kind: str, params: dict, P, Q) -> np.ndarray:
    if kind == "benchmark":
        return benchmark_entries(P, Q, params["d"])
    return rpy_entries(P, Q, params["radius"], params["viscosity"])


def sampled_rows(points_idx: np.ndarray, block_dim: int) -> np.ndarray:
    """Matrix rows of the sampled points, point-major."""
    return (points_idx[:, None] * block_dim + np.arange(block_dim)).ravel()


def sampled_residuals(kind: str, params: dict, points: np.ndarray,
                      sample: np.ndarray, X: np.ndarray, B: np.ndarray
                      ) -> np.ndarray:
    """Per column ||(A X - B)[rows]|| / ||B[rows]|| on the sampled points."""
    bd = 1 if kind == "benchmark" else 3
    AX = np.concatenate([
        exact_entries(kind, params, points[sample[i:i + ROW_CHUNK]], points) @ X
        for i in range(0, len(sample), ROW_CHUNK)])
    Bs = B[sampled_rows(sample, bd)]
    return np.linalg.norm(AX - Bs, axis=0) / np.linalg.norm(Bs, axis=0)
