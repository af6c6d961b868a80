"""Low-rank compression primitives.

Truncation thresholds are absolute: the caller supplies epsilon * sigma0,
where sigma0 is a global reference scale estimated by
`ifmm.graph.estimate_sigma0`.

The factorization compresses fill-in through one thin SVD per basis
union: `weighted_basis_union` merges an existing orthonormal basis with
fill-in columns, weighting each column before recompressing, and returns
the maps that express both inputs in the new basis. The factorization
passes raw fill blocks with unit weights; since F F^T = U S^2 U^T, this
gives the same new basis as the fill's singular factors U * S would. A
union asked for more directions (`min_rank`) than the inputs span is
completed deterministically from the complement columns of a full SVD,
so the U- and V-side bases of a cluster can be brought to equal rank
without random numbers.

`truncated_svd` keeps the singular triplets above a threshold as a
`LowRankFactor` (U, sigma, V) with orthonormal U/V and non-increasing
positive singular values; a zero matrix yields a rank-0 factor with empty
arrays. It first screens on the Frobenius norm: since ||M||_2 <= ||M||_F,
a block whose Frobenius norm is below the threshold yields rank 0 without
an SVD. It is a public helper and a test reference; the factorization
applies the same screen to each fill itself.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def weighted_basis_union(old_basis: np.ndarray, old_weights: np.ndarray,
                         fill_basis: np.ndarray, fill_weights: np.ndarray,
                         abs_threshold: float, min_rank: int = 0) -> BasisUpdate:
    """Merge an orthonormal basis with fill-in columns, weighting columns.

    The fill columns need not be orthonormal (the factorization passes raw
    fill blocks with unit weights), and there may be none: an (m, 0) fill
    block recompresses the old basis alone.

    Recompresses [old_basis * diag(old_weights) | fill_basis * diag(fill_weights)]
    with one thin SVD, keeping the singular values above the threshold and
    at least `min_rank` directions, and returns maps r, r' with
    old_basis ~= new_basis @ r and fill_basis ~= new_basis @ r'. When
    `min_rank` exceeds the number of nonzero singular values, the basis is
    completed with complement columns of a full SVD; they carry zero maps
    and the weight max(threshold, 1e-14 * largest weight). A `min_rank`
    above the row count raises ValueError.
    """
    old_weights = np.asarray(old_weights, dtype=float)
    fill_weights = np.asarray(fill_weights, dtype=float)
    if old_basis.shape[1] != len(old_weights):
        raise ValueError("old basis/weight size mismatch")
    if fill_basis.shape[1] != len(fill_weights):
        raise ValueError("fill basis/weight size mismatch")
    if np.any(old_weights <= 0.0) or np.any(fill_weights <= 0.0):
        raise ValueError("weights must be positive")

    if min_rank > old_basis.shape[0]:
        raise ValueError("min_rank exceeds the basis row count")

    k_old = old_basis.shape[1]
    concat = np.hstack([old_basis * old_weights, fill_basis * fill_weights])
    W, s, phi = np.linalg.svd(concat, full_matrices=False)
    k = max(int(np.sum(s > abs_threshold)), min_rank)
    if k > np.count_nonzero(s):  # complete the basis from the full SVD
        W, s, phi = np.linalg.svd(concat)
    r = min(k, np.count_nonzero(s))
    scaled = np.zeros((k, concat.shape[1]))
    scaled[:r] = s[:r, None] * phi[:r]  # phi rows are orthonormal
    weights = np.full(k, max(abs_threshold, 1e-14 * (s[0] if r else 1.0)))
    weights[:r] = s[:r]
    old_map = scaled[:, :k_old] / old_weights[None, :]
    fill_map = scaled[:, k_old:] / fill_weights[None, :]
    return BasisUpdate(W[:, :k].copy(), weights, old_map, fill_map)
