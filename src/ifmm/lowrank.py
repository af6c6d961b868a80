"""Low-rank compression primitives.

All factorizations return a `LowRankFactor` (U, sigma, V) with orthonormal
U/V and non-increasing positive singular values; a zero matrix yields a
rank-0 factor with empty arrays. Truncation thresholds are absolute: the
caller supplies epsilon * sigma0 where sigma0 is a global reference scale.

The factorization compresses fill-in through one thin SVD per basis
union: `weighted_basis_union` merges an existing orthonormal basis with
fill-in columns, weighting each column before recompressing, and returns
the maps that express both inputs in the new basis. The factorization
passes raw fill blocks with unit weights; since F F^T = U S^2 U^T, this
gives the same new basis as the fill's singular factors U * S would.

`truncated_svd` keeps the singular triplets above a threshold and first
screens on the Frobenius norm: since ||M||_2 <= ||M||_F, a block whose
Frobenius norm is below the threshold yields rank 0 without an SVD. It
is a public helper and a test reference; the factorization applies the
same screen to each fill itself. The randomized SVD is used only for the
global scale sigma0, where the operator is available as matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class LowRankFactor:
    U: np.ndarray       # (m, k), orthonormal columns
    sigma: np.ndarray   # (k,), non-increasing, > 0
    V: np.ndarray       # (n, k), orthonormal columns

    @property
    def rank(self) -> int:
        return len(self.sigma)

    def matrix(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.U.shape[0], self.V.shape[0]))
        return (self.U * self.sigma) @ self.V.T


@dataclass
class BasisUpdate:
    new_basis: np.ndarray    # orthonormal, (m, k_new)
    new_weights: np.ndarray  # (k_new,)
    old_map: np.ndarray      # (k_new, k_old): old_basis ~= new_basis @ old_map
    fillin_map: np.ndarray   # (k_new, k_fill)

    @property
    def rank(self) -> int:
        return self.new_basis.shape[1]


def _empty_factor(m: int, n: int) -> LowRankFactor:
    return LowRankFactor(np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0)))


def truncated_svd(M: np.ndarray, abs_threshold: float) -> LowRankFactor:
    """Partial SVD keeping exactly the singular triplets with sigma > threshold."""
    M = np.asarray(M, dtype=float)
    # ||M||_2 <= ||M||_F: below the threshold no singular value is above it.
    # The slack leaves a block at the threshold to the SVD: the two norms of
    # a rank-1 block are equal, and rounding decides which one is larger.
    if M.size == 0 or np.linalg.norm(M) <= abs_threshold * (1.0 - 1e-10):
        return _empty_factor(*M.shape)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    k = int(np.sum(s > abs_threshold))
    return LowRankFactor(U[:, :k].copy(), s[:k].copy(), Vt[:k].T.copy())


def rank_from_reference(sigmas: np.ndarray, epsilon: float, sigma0_ref: float) -> int:
    """Smallest k with sigma_{k+1} <= epsilon * sigma0_ref (capped at len)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if sigma0_ref <= 0.0:
        raise ValueError("sigma0_ref must be positive")
    sigmas = np.asarray(sigmas, dtype=float)
    return int(np.sum(sigmas > epsilon * sigma0_ref))


def _orthonormalize(Y: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(Y)
    return q


def randomized_svd(apply: Callable[[np.ndarray], np.ndarray],
                   apply_t: Callable[[np.ndarray], np.ndarray],
                   m: int, n: int, abs_threshold: float,
                   oversample: int = 10, power_iters: int = 2,
                   rng: np.random.Generator | None = None,
                   start_rank: int = 16,
                   max_rank: int | None = None) -> LowRankFactor:
    """Randomized SVD of an operator given matvec oracles for M and M^T.

    The oracles take and return matrices (columns are probed together).
    The sketch size doubles until the smallest captured singular value
    drops below the threshold, so the returned factor covers every triplet
    above it with high probability (spectra that decay reasonably fast).
    """
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    if rng is None:
        rng = np.random.default_rng(0)
    full = min(m, n)
    if full == 0:
        return _empty_factor(m, n)
    cap = full if max_rank is None else min(full, max_rank)
    k_try = min(start_rank, cap)

    while True:
        width = min(k_try + oversample, full)
        omega = rng.standard_normal((n, width))
        Y = apply(omega)
        for _ in range(power_iters):
            Y = apply(apply_t(_orthonormalize(Y)))
        Q = _orthonormalize(Y)
        B = apply_t(Q).T  # Q^T M, shape (width, n)
        Wb, s, Vt = np.linalg.svd(B, full_matrices=False)
        if width >= full or k_try >= cap or (len(s) > k_try and s[k_try] <= abs_threshold):
            break
        k_try = min(2 * k_try, cap)

    keep = min(int(np.sum(s > abs_threshold)), cap)
    if keep == 0:
        return _empty_factor(m, n)
    return LowRankFactor(Q @ Wb[:, :keep], s[:keep].copy(), Vt[:keep].T.copy())


def weighted_basis_union(old_basis: np.ndarray, old_weights: np.ndarray,
                         fill_basis: np.ndarray, fill_weights: np.ndarray,
                         abs_threshold: float, min_rank: int = 0) -> BasisUpdate:
    """Merge an orthonormal basis with fill-in columns, weighting columns.

    The fill columns need not be orthonormal: the factorization passes raw
    fill blocks with unit weights.

    Recompresses [old_basis * diag(old_weights) | fill_basis * diag(fill_weights)]
    with one thin SVD, keeping the singular values above the threshold and
    at least `min_rank` directions, and returns maps r, r' with
    old_basis ~= new_basis @ r and fill_basis ~= new_basis @ r'.
    """
    old_weights = np.asarray(old_weights, dtype=float)
    fill_weights = np.asarray(fill_weights, dtype=float)
    if old_basis.shape[1] != len(old_weights):
        raise ValueError("old basis/weight size mismatch")
    if fill_basis.shape[1] != len(fill_weights):
        raise ValueError("fill basis/weight size mismatch")
    if np.any(old_weights <= 0.0) or np.any(fill_weights <= 0.0):
        raise ValueError("weights must be positive")

    k_old = old_basis.shape[1]
    concat = np.hstack([old_basis * old_weights, fill_basis * fill_weights])
    W, s, phi = np.linalg.svd(concat, full_matrices=False)
    # min_rank never keeps an exactly zero direction: weights stay positive
    k = max(int(np.sum(s > abs_threshold)), min(min_rank, int(np.sum(s > 0))))
    scaled = s[:k, None] * phi[:k]  # phi rows are orthonormal
    old_map = scaled[:, :k_old] / old_weights[None, :]
    fill_map = scaled[:, k_old:] / fill_weights[None, :]
    return BasisUpdate(W[:, :k].copy(), s[:k].copy(), old_map, fill_map)
