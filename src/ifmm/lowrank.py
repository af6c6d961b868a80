"""Low-rank compression primitives.

Truncation thresholds are absolute: the caller supplies epsilon * sigma0,
where sigma0 is a global reference scale estimated by
`ifmm.graph.estimate_sigma0`.

The basis weights and unions take their bases from `left_singular`, the
R-SVD of Chan (ACM TOMS 8(1), 1982): one QR and one small SVD give the
complete left singular basis, without the right singular vectors. The
factorization compresses fill-in through one such SVD per basis union:
`weighted_basis_union` merges an existing orthonormal basis with fill-in
columns, weighting each column before recompressing, and returns the
projections of both inputs onto the new basis. The factorization passes
raw fill blocks with unit weights; since F F^T = U S^2 U^T, this gives
the same new basis as the fill's singular factors U * S would. A union
asked for more directions (`min_rank`) than the inputs span takes the
next complement columns of the same complete basis, so the U- and V-side
bases of a cluster can be brought to equal rank without random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BasisUpdate:
    new_basis: np.ndarray    # orthonormal, (m, k_new)
    new_weights: np.ndarray  # (k_new,)
    old_map: np.ndarray      # (k_new, k_old): old_basis ~= new_basis @ old_map
    fillin_map: np.ndarray   # (k_new, k_fill)

    @property
    def rank(self) -> int:
        return self.new_basis.shape[1]


def left_singular(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complete left singular basis W (m x m, orthogonal) and singular values.

    R-SVD: M^T = Q R with the reduced R, so M = R^T Q^T and M shares its
    left singular vectors and singular values with the m x min(m, n) R^T.
    The full SVD of R^T adds the complement columns that span the rest of
    R^m.
    """
    R = np.linalg.qr(M.T, mode="r")
    W, s, _ = np.linalg.svd(R.T)
    return W, s


def weighted_basis_union(old_basis: np.ndarray, old_weights: np.ndarray,
                         fill_basis: np.ndarray, fill_weights: np.ndarray,
                         abs_threshold: float, min_rank: int = 0) -> BasisUpdate:
    """Merge an orthonormal basis with fill-in columns, weighting columns.

    The fill columns need not be orthonormal (the factorization passes raw
    fill blocks with unit weights), and there may be none: an (m, 0) fill
    block recompresses the old basis alone.

    Recompresses [old_basis * diag(old_weights) | fill_basis * diag(fill_weights)]
    with `left_singular`, keeping the directions whose singular values are
    above the threshold and at least `min_rank` of them, and returns the
    projections r = W^T old_basis and r' = W^T fill_basis, so that
    old_basis ~= new_basis @ r and fill_basis ~= new_basis @ r'. When
    `min_rank` exceeds the number of nonzero singular values, the basis is
    completed with complement columns; they carry zero maps and the weight
    max(threshold, 1e-14 * largest weight). A `min_rank` above the row
    count raises ValueError.
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

    W, s = left_singular(np.hstack([old_basis * old_weights,
                                    fill_basis * fill_weights]))
    k = max(int(np.sum(s > abs_threshold)), min_rank)
    r = min(k, np.count_nonzero(s))
    weights = np.full(k, max(abs_threshold, 1e-14 * (s[0] if r else 1.0)))
    weights[:r] = s[:r]
    new_basis = W[:, :k].copy()
    old_map = new_basis.T @ old_basis
    fill_map = new_basis.T @ fill_basis
    old_map[r:] = fill_map[r:] = 0.0  # complement columns: orthogonal to both
    return BasisUpdate(new_basis, weights, old_map, fill_map)
