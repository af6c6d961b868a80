"""Initial hierarchical representation and its extended sparse graph.

Far-field blocks are built by tensor-product Chebyshev interpolation on a
per-cell n^3 grid: a leaf interpolation matrix maps grid coefficients to
point values, parent-to-child transfer matrices re-expand one grid on the
next, and coupling blocks are kernel evaluations between two cells'
grids. An SVD pass orthonormalizes every basis and absorbs the residual
factors into the couplings, so each cluster carries a single reduced
multipole rank. The couplings are evaluated in one kernel call per target
cluster per level: its grid against its partners' grids side by side (in
runs of at most COUPLING_ENTRIES entries), reduced on the left by one
product and on the right per pair, straight into the level's stack.
Vector kernels are handled by Kronecker expansion of the scalar
interpolation. The children of one octant share one transfer matrix.

The extended sparse graph introduces, per cluster at levels >= 2, a local
variable z (incoming far field) and a multipole variable y (outgoing far
field), tied to the unknowns by the interpolation edges and -I couplings.
For a symmetric kernel the edge pattern (and the assembled matrix) is
symmetric, and each pair's transposed block is shared; a kernel marked
non-symmetric has both blocks of every pair evaluated.

The near and coupling blocks are stored once, in the layout the fast
matvec applies: per leaf one `NearRow` holding its near blocks side by
side, and per level one `LevelCouplings` with one stack per block shape.
Every reader iterates that storage, so the graph that borrows the blocks
and `h2_matvec` read the same memory; for a symmetric kernel a pair's
reverse block is the transpose of the stored one. `initialize_weights`
rotates the couplings in place. A symmetric operator stores its V side
once, as the U side's arrays and their transposed views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .kernels import Kernel
from .lowrank import left_singular
from .tree import ClusterTopology, Octree


SYMMETRY_RTOL = 1e-12  # near blocks of a kernel marked symmetric
SYMMETRY_POINTS = 4    # points per side of the off-diagonal symmetry check
COUPLING_ENTRIES = 1 << 20  # entries of one coupling kernel call (8 MiB)
ROTATE_ENTRIES = 1 << 18    # block entries of one batched weight rotation (2 MiB)


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


def _octant_transfers(n: int) -> dict[tuple[int, int, int], np.ndarray]:
    """The child-in-parent interpolation matrices of the eight octants.

    In a uniform octree a child's grid sits in its parent's unit cell at
    0.5 * g + (b - 0.5) on each axis, where g is the unit grid and
    b = cell & 1 the child's octant bit on that axis: every child of one
    octant has the same transfer, keyed here by its three bits.
    """
    unit = _grid(np.zeros(3), 1.0, n)
    return {o: _interp_matrix(0.5 * unit + np.array(o) - 0.5, np.zeros(3), 1.0, n)
            for o in itertools.product((0, 1), repeat=3)}


def _kron_bd(M: np.ndarray, bd: int) -> np.ndarray:
    if bd == 1:
        return M
    return np.kron(M, np.eye(bd))


@dataclass
class NearRow:
    """One leaf's near blocks side by side in one array.

    `block` maps the entries `cols` (tree order) to the leaf's entries
    `rows`; the block of each neighbor in `leaves` is a run of columns, in
    that order. For a symmetric kernel the row holds only the neighbors at
    or after the leaf in tree order, its self block first, and the columns
    from `mirrored` on also act transposed: they stand in for the blocks of
    the later leaves' rows. Otherwise `mirrored` is the column count.
    """
    rows: slice
    cols: np.ndarray
    block: np.ndarray
    mirrored: int
    leaves: list[int]

    def apply(self, x: np.ndarray, out: np.ndarray) -> None:
        """out += the row's blocks, and their mirrors, times x (tree order)."""
        out[self.rows] += self.block @ x[self.cols]
        if self.mirrored < len(self.cols):
            out[self.cols[self.mirrored:]] += (
                self.block[:, self.mirrored:].T @ x[self.rows])


@dataclass
class CouplingGroup:
    """The coupling blocks of one level that share a shape, in one stack.

    Block p of `pairs[p] = (i, j)` maps the multipole coefficients of j to
    the local coefficients of i; `tgt` and `src` give i's and j's
    positions in the level. `slots` places each product in the level's
    target-sorted product list, and `mirror_slots` the mirrored one.
    """
    pairs: list[tuple[int, int]]
    blocks: np.ndarray
    tgt: np.ndarray
    src: np.ndarray
    slots: np.ndarray
    mirror_slots: np.ndarray


@dataclass
class LevelCouplings:
    """One level's coupling blocks, one stack per block shape.

    For a symmetric kernel each pair is stored once, with its target
    before its source in tree order, and the block of the reverse pair is
    the transposed view; its product is the mirrored one. The level's
    products, sorted by target, open each target's segment at `starts`;
    `hit` names those targets.
    """
    clusters: list[int]
    kmax: int
    groups: list[CouplingGroup]
    mirrored: bool
    products: int
    starts: np.ndarray
    hit: np.ndarray

    @classmethod
    def empty(cls, clusters: list[int], pairs: list[tuple[int, int]],
              rank: dict[int, int], mirrored: bool) -> LevelCouplings:
        pos = {c: p for p, c in enumerate(clusters)}
        tgt = np.array([pos[i] for i, _ in pairs], dtype=np.intp)
        src = np.array([pos[j] for _, j in pairs], dtype=np.intp)
        targets = np.concatenate([tgt, src]) if mirrored else tgt
        order = np.argsort(targets, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        hit, starts = np.unique(targets[order], return_index=True)
        members: dict[tuple[int, int], list[int]] = {}
        for p, (i, j) in enumerate(pairs):
            members.setdefault((rank[i], rank[j]), []).append(p)
        groups = [CouplingGroup([pairs[p] for p in ps],
                                np.zeros((len(ps),) + shape),
                                tgt[ps], src[ps], slot[ps],
                                slot[len(pairs) + np.array(ps)] if mirrored
                                else np.zeros(0, dtype=np.intp))
                  for shape, ps in members.items()]
        return cls(clusters, max(rank[c] for c in clusters), groups, mirrored,
                   len(targets), starts, hit)

    def blocks(self):
        """Every stored pair (i, j) with its block, a view of the stack."""
        for g in self.groups:
            yield from zip(g.pairs, g.blocks)

    def views(self):
        """(i, j) and its block for every pair, mirrors included."""
        for (i, j), K in self.blocks():
            yield (i, j), K
            if self.mirrored:
                yield (j, i), K.T

    def apply(self, Y: np.ndarray) -> np.ndarray:
        """Local coefficients Z[t] = sum over pairs (t, s) of K(t, s) @ Y[s].

        Y and Z are (clusters, kmax, m), zero past each cluster's rank.
        """
        Z = np.zeros_like(Y)
        if not self.groups:
            return Z
        prod = np.zeros((self.products,) + Y.shape[1:])
        for g in self.groups:
            kt, ks = g.blocks.shape[1:]
            prod[g.slots, :kt] = g.blocks @ Y[g.src, :ks]
            if self.mirrored:
                prod[g.mirror_slots, :ks] = (g.blocks.transpose(0, 2, 1)
                                             @ Y[g.tgt, :kt])
        Z[self.hit] = np.add.reduceat(prod, self.starts)
        return Z


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
    near_rows: list[NearRow]                   # per leaf, tree order
    coupling_levels: list[LevelCouplings]      # levels 2..depth
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

    def near_blocks(self):
        """(i, j) and its block, a view of leaf i's row, for each stored pair."""
        for i, row in zip(self.tree.leaves(), self.near_rows):
            a = 0
            for j in row.leaves:
                w = self.tree.clusters[j].size * self.block_dim
                yield (i, j), row.block[:, a:a + w]
                a += w


def chebyshev_operators(tree: Octree, topology: ClusterTopology, kernel: Kernel,
                        n: int, epsilon: float = 0.0) -> H2Operators:
    """Build the hierarchical operators with an SVD rank reduction.

    The reduction threshold per block is max(epsilon, 1e-13) times the
    block's leading singular value, so epsilon=0 gives a numerically
    lossless orthonormalization. Raises ValueError unless epsilon is in
    [0, 1).

    For a kernel marked symmetric, every leaf self block must equal its
    transpose to SYMMETRY_RTOL relative (Frobenius norm), and so must the
    first off-diagonal near block each leaf forms, K(P, Q) against
    K(Q, P)^T on at most SYMMETRY_POINTS points per side (this catches a
    mislabelled kernel when every leaf holds one point); otherwise a
    ValueError asks for `symmetric=False`.

    Every `kernel.block(P, Q)` result must have shape
    (len(P) * block_dim, len(Q) * block_dim); otherwise a ValueError names
    the kernel and the expected shape.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= epsilon < 1.0:  # also false for nan
        raise ValueError("epsilon must be in [0, 1)")
    bd = kernel.block_dim
    cl = tree.clusters
    floor = max(epsilon, 1e-13)

    rank: dict[int, int] = {}
    leaf_u: dict[int, np.ndarray] = {}
    transfer_u: dict[int, np.ndarray] = {}
    reduce_map: dict[int, np.ndarray] = {}  # cluster -> grid coeffs -> reduced rank
    grids = {c: _grid(cl[c].center, cl[c].half_width, n)
             for level in tree.levels[2:] for c in level}

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

    transfer = {o: _kron_bd(T, bd) for o, T in _octant_transfers(n).items()}
    for level in range(tree.depth - 1, 1, -1):
        for pid in tree.levels[level]:
            p = cl[pid]
            basis, G = _reduce(np.vstack(
                [reduce_map[c] @ transfer[tuple(i & 1 for i in cl[c].cell)]
                 for c in p.children]))
            reduce_map[pid] = G
            rank[pid] = basis.shape[1]
            row = 0
            for c in p.children:
                transfer_u[c] = basis[row:row + rank[c]]
                row += rank[c]

    # one kernel call and one left reduction per target and run of partners;
    # the cap keeps a wide grid (n = 4, 3x3 blocks, 189 partners) from
    # allocating a 55-MiB block plus the kernel's temporaries at once
    width = n ** 3 * bd
    run = max(1, COUPLING_ENTRIES // (width * width))
    coupling_levels: list[LevelCouplings] = []
    for level in range(2, tree.depth + 1):
        ids = tree.levels[level]
        partners = {i: [j for j in topology.interactions[i]
                        if not (kernel.symmetric and j < i)] for i in ids}
        lev = LevelCouplings.empty(
            ids, [(i, j) for i in ids for j in partners[i]], rank,
            kernel.symmetric)
        slot = dict(lev.blocks())
        for i in ids:
            for r in range(0, len(partners[i]), run):
                js = partners[i][r:r + run]
                L = reduce_map[i] @ kernel.checked_block(
                    grids[i], np.concatenate([grids[j] for j in js]))
                for t, j in enumerate(js):
                    np.matmul(L[:, t * width:(t + 1) * width], reduce_map[j].T,
                              out=slot[(i, j)])
        coupling_levels.append(lev)

    def check_symmetric(S, St, what):
        if np.linalg.norm(S - St) > SYMMETRY_RTOL * np.linalg.norm(S):
            raise ValueError(
                f"kernel {kernel.name!r} is marked symmetric, but {what} is "
                "not; build it with symmetric=False")

    near_rows: list[NearRow] = []
    k = SYMMETRY_POINTS
    for i in tree.leaves():
        ci = cl[i]
        pi = tree.points[ci.start:ci.stop]
        row_leaves = [j for j in topology.neighbors[i]
                      if j >= i or not kernel.symmetric]
        S = kernel.checked_block(pi, np.concatenate(
            [tree.points[cl[j].start:cl[j].stop] for j in row_leaves]))
        w = ci.size * bd
        if kernel.symmetric:  # the self block is first, leaf j's next
            check_symmetric(S[:, :w], S[:, :w].T, f"the self block of leaf {i}")
            if len(row_leaves) > 1:
                j = row_leaves[1]
                pj = tree.points[cl[j].start:cl[j].stop][:k]
                check_symmetric(S[:k * bd, w:w + len(pj) * bd],
                                kernel.checked_block(pj, pi[:k]).T,
                                f"the near block of leaves {i} and {j}")
        near_rows.append(NearRow(
            slice(ci.start * bd, ci.stop * bd),
            np.concatenate([np.arange(cl[j].start * bd, cl[j].stop * bd)
                            for j in row_leaves]), S,
            w if kernel.symmetric else S.shape[1], row_leaves))

    # V = U on the same grids; `initialize_weights` rotates a non-symmetric V apart
    leaf_v = dict(leaf_u)
    transfer_vt = {cid: T.T for cid, T in transfer_u.items()}
    return H2Operators(tree, topology, kernel, n, rank, leaf_u, leaf_v,
                       transfer_u, transfer_vt, near_rows, coupling_levels)


def initialize_weights(ops: H2Operators, topology: ClusterTopology) -> H2Operators:
    """Assign basis weights from the magnitude of each cluster's couplings.

    The complete left singular basis of the concatenated outgoing
    (incoming) couplings over the interaction list rotates U (V), so the
    stored weights are exactly the per-column singular values. Clusters
    with an empty interaction list get unit weights. A symmetric kernel
    rotates only U and stores V once: `leaf_v[c]` is `leaf_u[c]`,
    `sigma_v[c]` is `sigma_u[c]`, and `transfer_vt[c]` is `transfer_u[c].T`.

    Each cluster's outgoing and incoming concatenations are gathered in
    one pass over its level's `views` and sorted by partner, so `topology`
    is not read; each stored block is rotated once, in place in its stack.
    """
    tree = ops.tree
    sym = ops.kernel.symmetric
    rot_u: dict[int, np.ndarray] = {}
    rot_v: dict[int, np.ndarray] = {}
    for lev in ops.coupling_levels:
        outgoing = {c: [] for c in lev.clusters}
        incoming = {c: [] for c in lev.clusters}
        for (i, j), K in lev.views():
            outgoing[i].append((j, K))
            if not sym:
                incoming[j].append((i, K.T))
        for c in lev.clusters:
            rot_u[c], ops.sigma_u[c] = _rotation(outgoing[c], ops.rank[c])
            if sym:
                # the incoming concatenation is the transpose of the outgoing
                # one; sharing the rotation keeps U = V exactly
                rot_v[c], ops.sigma_v[c] = rot_u[c], ops.sigma_u[c]
            else:
                rot_v[c], ops.sigma_v[c] = _rotation(incoming[c], ops.rank[c])

    # every rotation is computed before the first block is overwritten; a
    # stack is rotated in place by batched products of at most
    # ROTATE_ENTRIES entries, so that no temporary is large
    for lev in ops.coupling_levels:
        ru = _level_stack(rot_u, lev)
        rv = ru if sym else _level_stack(rot_v, lev)
        for g in lev.groups:
            ki, kj = g.blocks.shape[1:]
            step = max(1, ROTATE_ENTRIES // (ki * kj))
            for s in range(0, len(g.pairs), step):
                K = g.blocks[s:s + step]
                Ru = ru[g.tgt[s:s + step], :ki, :ki]
                Rv = rv[g.src[s:s + step], :kj, :kj]
                K[...] = Ru.transpose(0, 2, 1) @ K @ Rv
    if tree.depth >= 2:
        for cid in tree.leaves():
            ops.leaf_u[cid] = ops.leaf_u[cid] @ rot_u[cid]
            ops.leaf_v[cid] = (ops.leaf_u[cid] if sym
                               else ops.leaf_v[cid] @ rot_v[cid])
    for c, T in ops.transfer_u.items():
        p = tree.clusters[c].parent
        ops.transfer_u[c] = rot_u[c].T @ (T @ rot_u[p])
        ops.transfer_vt[c] = (ops.transfer_u[c].T if sym else
                              (rot_v[p].T @ ops.transfer_vt[c]) @ rot_v[c])
    return ops


def _level_stack(rot: dict, lev: LevelCouplings) -> np.ndarray:
    """The level's rotations in one (clusters, kmax, kmax) stack, in level
    order, each in the top-left corner of its slot."""
    out = np.zeros((len(lev.clusters), lev.kmax, lev.kmax))
    for p, c in enumerate(lev.clusters):
        k = len(rot[c])
        out[p, :k, :k] = rot[c]
    return out


def _rotation(blocks: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complete left singular basis of k-row (partner, block) pairs, the blocks
    side by side in partner order (interaction-list order), and k weights
    from their singular values (the identity and ones for none)."""
    blocks.sort(key=lambda pb: pb[0])
    W, s = left_singular(np.concatenate(
        [np.zeros((k, 0)), *(B for _, B in blocks)], axis=1))
    if len(s) == 0:
        return W, np.ones(k)
    w = np.concatenate([s[:k], np.full(max(0, k - len(s)), s[min(len(s), k) - 1])])
    scale = w[0] if w[0] > 0 else 1.0
    return W, np.maximum(w, 1e-14 * scale)
