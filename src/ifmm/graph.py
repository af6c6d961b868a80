"""Extended sparse graph: nodes, block edges, and assembly from operators.

Node kinds per cluster: 'x' (unknowns; leaf points, or merged child
multipoles on coarser levels), 'z' (local coefficients), 'y' (multipole
coefficients). Edges are dense blocks keyed (target, source); the block
in row a, column b is the contribution of variable b to the equation
stored at node a.

The initial edge pattern realizes, per level l from the leaves up,

    S x + U z = b        (rows of x nodes)
    V^T x - y = 0        (rows of z nodes)
    -z + K y + U_parent z_parent = 0   (rows of y nodes)

with the parent term absent at the top level. Edge counts are tracked
so elimination-time sparsity can be asserted.

The graph borrows the operator blocks: its initial edges are the arrays
of `H2Operators` themselves, not copies, one edge per stored block. The
near and coupling edges are views into the operators' per-leaf near rows
and per-level coupling stacks, so one edge's memory neighbors another's.
This is sound because `initialize_weights` writes that storage in place
only before the graph is assembled, and no edge block is written in
place afterwards. Every update stores a new array, and `merge_to_parent`
places each moved block into a parent block it has just created, without
accumulating.

For a symmetric kernel the graph is kept exactly symmetric: `set_edge`
stores an off-diagonal block together with its mirror, E(s, t) = E(t, s)^T
as a transposed view of the same new array, so assembly sets one block of
each pair. Both directions stay keys: edge counts do not depend on the
kernel. No block is written in place, so a mirror never goes stale; a
placement into a just-created parent block through its mirror writes the
same memory with the same values. Self-edges E(a, a) are not mirrored.
"""

from __future__ import annotations

import itertools

import numpy as np

from .h2 import H2Operators

X, Z, Y = "x", "z", "y"
SIGMA0_SKETCH = 11       # sketch columns of the sigma0 estimate
SIGMA0_POWER_ITERS = 2


class ExtendedGraph:
    def __init__(self, ops: H2Operators):
        tree = ops.tree
        bd = ops.block_dim
        self.tree = tree
        self.topology = ops.topology
        self.block_dim = bd
        self.symmetric = ops.kernel.symmetric

        self.sizes: list[int] = []
        self.kinds: list[str] = []
        self.cluster_of: list[int] = []
        self.node_x: dict[int, int] = {}
        self.node_z: dict[int, int] = {}
        self.node_y: dict[int, int] = {}
        self.edges: dict[tuple[int, int], np.ndarray] = {}
        self.row_sources: dict[int, set[int]] = {}
        self.col_targets: dict[int, set[int]] = {}
        self.eliminated: set[int] = set()
        self.sigma_u = dict(ops.sigma_u)
        self.sigma_v = dict(ops.sigma_v)
        self.peak_edges = 0

        for cid in tree.leaves():
            c = tree.clusters[cid]
            self.node_x[cid] = self._new_node(c.size * bd, X, cid)
        for level in range(2, tree.depth + 1):
            for cid in tree.levels[level]:
                k = ops.rank[cid]
                self.node_z[cid] = self._new_node(k, Z, cid)
                self.node_y[cid] = self._new_node(k, Y, cid)

        # on a symmetric graph set_edge makes every reverse block
        for (i, j), S in ops.near_blocks():
            self.set_edge(self.node_x[i], self.node_x[j], S)
        if tree.depth >= 2:
            for cid in tree.leaves():
                self.set_edge(self.node_x[cid], self.node_z[cid],
                              ops.leaf_u[cid])
                if not self.symmetric:
                    self.set_edge(self.node_z[cid], self.node_x[cid],
                                  ops.leaf_v[cid].T)
        for level in range(2, tree.depth + 1):
            for cid in tree.levels[level]:
                minus_eye = -np.eye(ops.rank[cid])
                self.set_edge(self.node_z[cid], self.node_y[cid], minus_eye)
                if not self.symmetric:
                    self.set_edge(self.node_y[cid], self.node_z[cid], minus_eye)
        for lev in ops.coupling_levels:
            for (i, j), K in lev.blocks():
                self.set_edge(self.node_y[i], self.node_y[j], K)
        for cid, T in ops.transfer_u.items():
            parent = tree.clusters[cid].parent
            self.set_edge(self.node_y[cid], self.node_z[parent], T)
        if not self.symmetric:
            for cid, Tt in ops.transfer_vt.items():
                parent = tree.clusters[cid].parent
                self.set_edge(self.node_z[parent], self.node_y[cid], Tt)

    # -- node/edge bookkeeping -------------------------------------------

    def _new_node(self, size: int, kind: str, cluster: int) -> int:
        nid = len(self.sizes)
        self.sizes.append(size)
        self.kinds.append(kind)
        self.cluster_of.append(cluster)
        self.row_sources[nid] = set()
        self.col_targets[nid] = set()
        return nid

    def set_edge(self, t: int, s: int, block: np.ndarray) -> None:
        """Store E(t, s), and on a symmetric graph its mirror E(s, t)."""
        self._store(t, s, block)
        if self.symmetric and t != s:
            self._store(s, t, block.T)
        self.peak_edges = max(self.peak_edges, len(self.edges))

    def _store(self, t: int, s: int, block: np.ndarray) -> None:
        if (t, s) not in self.edges:
            self.row_sources[t].add(s)
            self.col_targets[s].add(t)
        self.edges[(t, s)] = block

    def add_to_edge(self, t: int, s: int, block: np.ndarray) -> None:
        old = self.edges.get((t, s))
        self.set_edge(t, s, block if old is None else old + block)

    def pop_edge(self, t: int, s: int) -> np.ndarray:
        """Remove and return E(t, s) alone; the caller pops a mirror too."""
        blk = self.edges.pop((t, s))
        self.row_sources[t].discard(s)
        self.col_targets[s].discard(t)
        return blk

    def get_edge(self, t: int, s: int) -> np.ndarray | None:
        return self.edges.get((t, s))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # -- whole-graph operator --------------------------------------------

    def _offsets(self):
        """Row offset of every node in the full vector, and its length.

        Computed from the current sizes: elimination resizes and adds nodes.
        """
        off = list(itertools.accumulate(self.sizes, initial=0))
        return off, off[-1]

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    def apply(self, w: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Action of the extended matrix E, or E^T, on a full node vector."""
        off, total = self._offsets()
        out = np.zeros((total,) + w.shape[1:])
        for (t, s), blk in self.edges.items():
            if transpose:
                t, s, blk = s, t, blk.T
            out[off[t]:off[t] + blk.shape[0]] += blk @ w[off[s]:off[s] + blk.shape[1]]
        return out

    def dense_matrix(self, nodes=None) -> np.ndarray:
        """Dense matrix of the edges among `nodes`, in the given order.

        By default the whole extended matrix; for small-problem oracles
        and tests.
        """
        nodes = range(len(self.sizes)) if nodes is None else nodes
        off = dict(zip(nodes, itertools.accumulate(
            (self.sizes[n] for n in nodes), initial=0)))
        total = sum(self.sizes[n] for n in nodes)
        E = np.zeros((total, total))
        for (t, s), blk in self.edges.items():
            if t in off and s in off:
                E[off[t]:off[t] + blk.shape[0], off[s]:off[s] + blk.shape[1]] = blk
        return E

    def sparsity_pattern(self) -> dict:
        """JSON-able dump of node sizes and edge keys."""
        nodes = [{"id": i, "kind": self.kinds[i], "cluster": self.cluster_of[i],
                  "size": self.sizes[i]} for i in range(len(self.sizes))]
        edges = sorted([t, s] for (t, s) in self.edges)
        return {"nodes": nodes, "edges": edges}


def assemble_extended_graph(ops: H2Operators) -> ExtendedGraph:
    """Build the extended sparse graph for the given operators.

    Requires initialized basis weights.
    """
    if ops.tree.depth >= 2 and not ops.sigma_u:
        raise ValueError("operators have no basis weights; "
                         "run initialize_weights first")
    return ExtendedGraph(ops)


def estimate_sigma0(graph: ExtendedGraph, seed: int = 0) -> float:
    """Leading singular value of the extended matrix E, by one sketch.

    Eleven Gaussian columns go through two power iterations with QR; the
    result is the largest singular value of B = Q^T E.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    omega = rng.standard_normal((graph.dim, min(SIGMA0_SKETCH, graph.dim)))
    sketch = graph.apply(omega)
    for _ in range(SIGMA0_POWER_ITERS):
        sketch = graph.apply(graph.apply(np.linalg.qr(sketch)[0], transpose=True))
    B = graph.apply(np.linalg.qr(sketch)[0], transpose=True).T
    s = np.linalg.svd(B, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def h2_dense(ops: H2Operators) -> np.ndarray:
    """Dense matrix represented by the operators, in tree point order.

    Small-N oracle: composes the far field level by level
    (F_l = K_l + T_u F_{l-1} T_v) and adds the near field.
    """
    tree = ops.tree
    bd = ops.block_dim
    F = None
    for lev in ops.coupling_levels:
        offs = np.cumsum([0] + [ops.rank[c] for c in lev.clusters])
        pos = {c: i for i, c in enumerate(lev.clusters)}
        F_l = np.zeros((offs[-1], offs[-1]))
        for (i, j), K in lev.views():
            F_l[offs[pos[i]]:offs[pos[i] + 1], offs[pos[j]]:offs[pos[j] + 1]] = K
        if F is not None:
            Tu = np.zeros((offs[-1], p_offs[-1]))
            Tv = np.zeros((p_offs[-1], offs[-1]))
            for c in lev.clusters:
                r, q = pos[c], p_pos[tree.clusters[c].parent]
                Tu[offs[r]:offs[r + 1], p_offs[q]:p_offs[q + 1]] = ops.transfer_u[c]
                Tv[p_offs[q]:p_offs[q + 1], offs[r]:offs[r + 1]] = ops.transfer_vt[c]
            F_l = F_l + Tu @ F @ Tv
        F, p_offs, p_pos = F_l, offs, pos

    dim = tree.n_points * bd
    A = np.zeros((dim, dim))
    for row in ops.near_rows:
        A[row.rows, row.cols] = row.block
        A[row.cols[row.mirrored:], row.rows] = row.block[:, row.mirrored:].T
    if F is not None:  # offs and pos are the leaf level's
        U = np.zeros((dim, offs[-1]))
        Vt = np.zeros((offs[-1], dim))
        for c in tree.leaves():
            cc = tree.clusters[c]
            r = pos[c]
            U[cc.start * bd:cc.stop * bd, offs[r]:offs[r + 1]] = ops.leaf_u[c]
            Vt[offs[r]:offs[r + 1], cc.start * bd:cc.stop * bd] = ops.leaf_v[c].T
        A = A + U @ F @ Vt
    return A
