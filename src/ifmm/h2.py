"""Initial hierarchical representation and its extended sparse graph.

Far-field blocks are built by tensor-product Chebyshev interpolation on a
per-cell n^3 grid: a leaf interpolation matrix maps grid coefficients to
point values, parent-to-child transfer matrices re-expand one grid on the
next, and coupling blocks are kernel evaluations between two cells'
grids. An SVD pass orthonormalizes every basis and absorbs the residual
factors into the couplings, so each cluster carries a single reduced
multipole rank. Vector kernels are handled by Kronecker expansion of the
scalar interpolation.

The extended sparse graph introduces, per cluster at levels >= 2, a local
variable z (incoming far field) and a multipole variable y (outgoing far
field), tied to the unknowns by the interpolation edges and -I couplings.
For a symmetric kernel the edge pattern (and the assembled matrix) is
symmetric, and each pair's transposed block is shared; a kernel marked
non-symmetric has both blocks of every pair evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .lowrank import left_singular
from .tree import ClusterTopology, Octree


def cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev points of the first kind on (-1, 1)."""
    return np.cos((2.0 * np.arange(n) + 1.0) * np.pi / (2.0 * n))


def cheb_interp_1d(targets: np.ndarray, n: int) -> np.ndarray:
    """Interpolation weights S[t, m] from n Chebyshev nodes to targets.

    S_n(x, x_m) = 1/n + (2/n) sum_{k=1}^{n-1} T_k(x) T_k(x_m).
    """
    x = cheb_nodes(n)
    t = np.clip(targets, -1.0, 1.0)
    S = np.full((len(t), n), 1.0 / n)
    if n > 1:
        theta_t = np.arccos(t)[:, None]
        theta_x = np.arccos(x)[:, None]
        k = np.arange(1, n)[None, :]
        Tt = np.cos(theta_t * k)      # (len(t), n-1)
        Tx = np.cos(theta_x * k)      # (n, n-1)
        S += (2.0 / n) * Tt @ Tx.T
    return S


def _grid(center: np.ndarray, half_width: float, n: int) -> np.ndarray:
    """Tensor-product Chebyshev grid of a cubic cell, n^3 x 3."""
    g1 = cheb_nodes(n)
    gx, gy, gz = np.meshgrid(g1, g1, g1, indexing="ij")
    unit = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    return center + half_width * unit


def _interp_matrix(points: np.ndarray, center: np.ndarray, half_width: float,
                   n: int) -> np.ndarray:
    """Maps n^3 grid coefficients of the cell to values at the points."""
    rel = (points - center) / half_width
    Sx = cheb_interp_1d(rel[:, 0], n)
    Sy = cheb_interp_1d(rel[:, 1], n)
    Sz = cheb_interp_1d(rel[:, 2], n)
    return np.einsum("pi,pj,pk->pijk", Sx, Sy, Sz).reshape(len(points), n ** 3)


def _kron_bd(M: np.ndarray, bd: int) -> np.ndarray:
    if bd == 1:
        return M
    return np.kron(M, np.eye(bd))


@dataclass
class H2Operators:
    tree: Octree
    topology: ClusterTopology
    kernel: Kernel
    n_cheb: int
    rank: dict[int, int]                       # cluster -> multipole rank
    leaf_u: dict[int, np.ndarray]              # leaf -> (pts*bd, k)
    leaf_v: dict[int, np.ndarray]
    transfer_u: dict[int, np.ndarray]          # child -> (k_child, k_parent)
    transfer_vt: dict[int, np.ndarray]         # child -> (k_parent, k_child)
    coupling: dict[tuple[int, int], np.ndarray]  # (i, j) -> K block, j in I_i
    near: dict[tuple[int, int], np.ndarray]    # leaf pairs -> dense block
    sigma_u: dict[int, np.ndarray] = field(default_factory=dict)
    sigma_v: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def block_dim(self) -> int:
        return self.kernel.block_dim

    @property
    def dim(self) -> int:
        return self.tree.n_points * self.kernel.block_dim

    def max_rank(self) -> int:
        return max(self.rank.values()) if self.rank else 0


def chebyshev_operators(tree: Octree, topology: ClusterTopology, kernel: Kernel,
                        n: int, epsilon: float = 0.0) -> H2Operators:
    """Build the hierarchical operators with an SVD rank reduction.

    The reduction threshold per block is max(epsilon, 1e-13) times the
    block's leading singular value, so epsilon=0 gives a numerically
    lossless orthonormalization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bd = kernel.block_dim
    cl = tree.clusters
    floor = max(epsilon, 1e-13)

    rank: dict[int, int] = {}
    leaf_u: dict[int, np.ndarray] = {}
    transfer_u: dict[int, np.ndarray] = {}
    reduce_map: dict[int, np.ndarray] = {}  # cluster -> grid coeffs -> reduced rank
    grids: dict[int, np.ndarray] = {}

    def _reduce(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W, s, Zt = np.linalg.svd(M, full_matrices=False)
        k = max(1, int(np.sum(s > floor * s[0])))
        return W[:, :k], s[:k, None] * Zt[:k]

    for cid in tree.leaves():
        c = cl[cid]
        P = _interp_matrix(tree.points[c.start:c.stop], c.center, c.half_width, n)
        basis, G = _reduce(_kron_bd(P, bd))
        leaf_u[cid] = basis
        reduce_map[cid] = G
        rank[cid] = basis.shape[1]

    for level in range(tree.depth - 1, 1, -1):
        for pid in tree.levels[level]:
            p = cl[pid]
            blocks = []
            for c in p.children:
                child_grid = grids.setdefault(
                    c, _grid(cl[c].center, cl[c].half_width, n))
                T = _interp_matrix(child_grid, p.center, p.half_width, n)
                blocks.append(reduce_map[c] @ _kron_bd(T, bd))
            basis, G = _reduce(np.vstack(blocks))
            reduce_map[pid] = G
            rank[pid] = basis.shape[1]
            row = 0
            for c in p.children:
                transfer_u[c] = basis[row:row + rank[c]]
                row += rank[c]

    coupling: dict[tuple[int, int], np.ndarray] = {}
    for level in range(2, tree.depth + 1):
        for i in tree.levels[level]:
            gi = grids.setdefault(i, _grid(cl[i].center, cl[i].half_width, n))
            for j in topology.interactions[i]:
                if (i, j) in coupling:
                    continue
                gj = grids.setdefault(j, _grid(cl[j].center, cl[j].half_width, n))
                Kij = reduce_map[i] @ kernel.block(gi, gj) @ reduce_map[j].T
                coupling[(i, j)] = Kij
                if kernel.symmetric:
                    coupling[(j, i)] = Kij.T
                else:
                    coupling[(j, i)] = (reduce_map[j] @ kernel.block(gj, gi)
                                        @ reduce_map[i].T)

    near: dict[tuple[int, int], np.ndarray] = {}
    for i in tree.leaves():
        ci = cl[i]
        pi = tree.points[ci.start:ci.stop]
        for j in topology.neighbors[i]:
            if (i, j) in near:
                continue
            cj = cl[j]
            pj = tree.points[cj.start:cj.stop]
            S = kernel.block(pi, pj)
            near[(i, j)] = S
            if j != i:
                near[(j, i)] = S.T if kernel.symmetric else kernel.block(pj, pi)

    leaf_v = {cid: U.copy() for cid, U in leaf_u.items()}
    transfer_vt = {cid: T.T.copy() for cid, T in transfer_u.items()}
    return H2Operators(tree, topology, kernel, n, rank, leaf_u, leaf_v,
                       transfer_u, transfer_vt, coupling, near)


def initialize_weights(ops: H2Operators, topology: ClusterTopology) -> H2Operators:
    """Assign basis weights from the magnitude of each cluster's couplings.

    The complete left singular basis of the concatenated outgoing
    (incoming) couplings over the interaction list rotates U (V), so the
    stored weights are exactly the per-column singular values. Clusters
    with an empty interaction list get unit weights.
    """
    tree = ops.tree
    for level in range(2, tree.depth + 1):
        for j in tree.levels[level]:
            k = ops.rank[j]
            ilist = topology.interactions[j]
            if not ilist:
                ops.sigma_u[j] = np.ones(k)
                ops.sigma_v[j] = np.ones(k)
                continue
            P, su = left_singular(np.hstack([ops.coupling[(j, q)] for q in ilist]))
            ops.sigma_u[j] = _pad_weights(su, k)
            if ops.kernel.symmetric:
                # the incoming concatenation is the transpose of the outgoing
                # one; sharing the rotation keeps U = V exactly
                ops.sigma_v[j] = ops.sigma_u[j].copy()
                Q = P
            else:
                Q, sv = left_singular(
                    np.hstack([ops.coupling[(q, j)].T for q in ilist]))
                ops.sigma_v[j] = _pad_weights(sv, k)
            _rotate_u(ops, topology, j, P)
            _rotate_v(ops, topology, j, Q)
    return ops


def _pad_weights(s: np.ndarray, k: int) -> np.ndarray:
    if len(s) == 0:
        return np.ones(k)
    w = np.concatenate([s[:k], np.full(max(0, k - len(s)), s[min(len(s), k) - 1])])
    scale = w[0] if w[0] > 0 else 1.0
    return np.maximum(w, 1e-14 * scale)


def _rotate_u(ops, topology, j, P):
    """Rotate the z-space of cluster j: U <- U P, row of y_j <- P^T row."""
    tree = ops.tree
    if tree.clusters[j].is_leaf:
        ops.leaf_u[j] = ops.leaf_u[j] @ P
    else:
        for c in tree.clusters[j].children:
            ops.transfer_u[c] = ops.transfer_u[c] @ P
    for q in topology.interactions[j]:
        ops.coupling[(j, q)] = P.T @ ops.coupling[(j, q)]
    if j in ops.transfer_u:
        ops.transfer_u[j] = P.T @ ops.transfer_u[j]


def _rotate_v(ops, topology, j, Q):
    """Rotate the y-space of cluster j: V <- V Q, consumers pick up Q."""
    tree = ops.tree
    if tree.clusters[j].is_leaf:
        ops.leaf_v[j] = ops.leaf_v[j] @ Q
    else:
        for c in tree.clusters[j].children:
            ops.transfer_vt[c] = Q.T @ ops.transfer_vt[c]
    for q in topology.interactions[j]:
        ops.coupling[(q, j)] = ops.coupling[(q, j)] @ Q
    if j in ops.transfer_vt:
        ops.transfer_vt[j] = ops.transfer_vt[j] @ Q
