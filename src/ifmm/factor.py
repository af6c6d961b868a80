"""Level-by-level elimination of the extended graph.

Each cluster is eliminated as a 2x2 block pivot over its (x, z) nodes.
The Schur complement creates fill-in between every pair of clusters
adjacent to the eliminated one; fill between neighbors is added to the
existing dense edges. Fill between well-separated clusters is dropped
when its Frobenius norm is at most the global threshold epsilon *
sigma0(E), and otherwise redirected through the multipole coupling
edges: each live cluster that receives such fill has its
interpolation/anterpolation bases widened by one basis union over that
elimination's raw fill blocks and is rebased once, which moves all its
multipole edges onto the new bases; the fill, projected onto the new
bases, is then added to the coupling edge. Once a level is fully
eliminated, the sibling multipole nodes merge into their parent's
unknown node and the graph has the structure of a one-level-shallower
problem. Levels 1 and 0 are not eliminated: the merges carry what
remains up to the root, and the self-edge of the root's x node is the
top-level system.

The factorization records a replayable event log of two typed records:
`Elim` (pivot factors and the popped edge snapshots of one cluster) and
`Merge` (the layout of the children's nodes in their parent's x node).
The log is the only right-hand-side path: `forward_sweep` pushes a
right-hand side through it, and `IFMMFactorization.solve` pulls the
solution back by substitution, for any number of right-hand sides
without refactorizing.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .graph import ExtendedGraph, X, estimate_sigma0
from .lowrank import BasisUpdate, weighted_basis_union


class SingularPivotError(RuntimeError):
    def __init__(self, what):
        super().__init__(f"singular pivot block during elimination: {what}")
        self.what = what


@dataclass
class FillinStats:
    """Fill census of one level.

    A pair of well-separated clusters is compressed when one of its fills
    passes the Frobenius screen, and dropped otherwise. `ranks` holds, for
    each basis union, the rank it adds to its cluster (new rank minus old
    rank); it is negative when the union drops old directions whose
    weights are at or below the threshold.
    """
    level: int
    compressed_pairs: int = 0
    dropped_pairs: int = 0
    ranks: list[int] = field(default_factory=list)
    compress_time: float = 0.0

    @property
    def max_rank(self) -> int:
        return max(self.ranks) if self.ranks else 0

    @property
    def mean_rank(self) -> float:
        return float(np.mean(self.ranks)) if self.ranks else 0.0


@dataclass
class FactorStats:
    levels: list[FillinStats] = field(default_factory=list)
    peak_edges: int = 0
    n_clusters: int = 0
    max_basis_rank: int = 0
    max_fill_rank: int = 0
    forced_rank_truncations: int = 0   # always 0: the unions reach equal rank

    @property
    def edge_bound_constant(self) -> float:
        return self.peak_edges / max(self.n_clusters, 1)


TIMING_KEYS = ("lu_and_triangular_solves", "matmul_updates",
               "lowrank_approximations", "operator_transfer")


@dataclass(frozen=True, slots=True)
class Elim:
    """Elimination of one cluster's (x, z) pair.

    `sources` holds the popped row edges E(x, b) and `targets` the popped
    column edges E(a, x), each as (node, block).
    """
    nx: int
    ny: int
    size_x: int
    size_z: int
    lu_piv: tuple[np.ndarray, np.ndarray] | None
    sources: list[tuple[int, np.ndarray]]
    targets: list[tuple[int, np.ndarray]]


@dataclass(frozen=True, slots=True)
class Merge:
    """Parent x node `px` stacks its children's nodes, as (node, size).

    The parts are the children's y nodes, or their x nodes for children
    without one (level 1, and the leaves of a depth-1 tree).
    """
    px: int
    parts: list[tuple[int, int]]


Event = Elim | Merge


def forward_sweep(events: list[Event],
                  rhs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Push a right-hand side through the recorded elimination.

    `rhs` maps every leaf x node to the right-hand side of its rows; every
    other row starts with a zero right-hand side, which the events never
    read before they set it. Returns a new map whose entries for the
    remaining nodes are the right-hand side of the reduced system and
    whose entry for an eliminated x node is its right-hand side at
    elimination. Neither `rhs` nor its arrays are modified.
    """
    rhs = dict(rhs)
    for ev in events:
        if isinstance(ev, Elim):
            g = _pivot_solve(ev.lu_piv,
                             np.concatenate([rhs[ev.nx], np.zeros(ev.size_z)]))
            for a, blk in ev.targets:
                rhs[a] = rhs[a] - blk @ g[:ev.size_x]
            rhs[ev.ny] = g[ev.size_x:]
        else:
            rhs[ev.px] = np.concatenate([rhs[c] for c, _ in ev.parts])
    return rhs


@dataclass(eq=False)
class IFMMFactorization:
    """Replayable elimination log plus the root's dense factor."""
    n_points: int
    block_dim: int
    perm: np.ndarray
    leaf_slices: list[tuple[int, int, int]]   # (x node, start, stop) point slices
    events: list[Event]
    root: int                                  # x node of the top-level system
    top_lu: tuple[np.ndarray, np.ndarray] | None
    epsilon: float
    sigma0: float
    stats: FactorStats
    timings: dict[str, float]

    @property
    def dim(self) -> int:
        return self.n_points * self.block_dim

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (original point ordering) using the stored factor."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.dim,):
            raise ValueError(f"rhs must have shape ({self.dim},)")
        bd = self.block_dim
        bt = b.reshape(self.n_points, bd)[self.perm].ravel()

        rhs = forward_sweep(self.events, {nx: bt[start * bd:stop * bd]
                                          for nx, start, stop in self.leaf_slices})
        sol = {self.root: _pivot_solve(self.top_lu, rhs[self.root])}
        for ev in reversed(self.events):
            if isinstance(ev, Elim):
                rx = rhs[ev.nx].copy()
                for bnode, blk in ev.sources:
                    rx -= blk @ sol[bnode]
                xz = _pivot_solve(ev.lu_piv, np.concatenate([rx, sol[ev.ny]]))
                sol[ev.nx] = xz[:ev.size_x]
            else:
                off = 0
                for c, s in ev.parts:
                    sol[c] = sol[ev.px][off:off + s]
                    off += s

        out_t = np.concatenate([sol[nx] for nx, _, _ in self.leaf_slices])
        out = np.empty_like(out_t).reshape(self.n_points, bd)
        out[self.perm] = out_t.reshape(self.n_points, bd)
        return out.ravel()


def _pivot_solve(lu_piv, rhs):
    if lu_piv is None:  # zero-dimensional pivot
        return rhs[:0] if rhs.ndim == 1 else rhs[:0, :]
    return sla.lu_solve(lu_piv, rhs)


def _lu(P, what):
    if P.shape[0] == 0:
        return None
    with warnings.catch_warnings():  # a singular pivot raises, below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(P, check_finite=False)
    d = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or (d.size and d.min() == 0.0):
        raise SingularPivotError(what)
    return lu, piv


def factorize(graph: ExtendedGraph, epsilon: float, seed: int = 0,
              sigma0: float | None = None) -> IFMMFactorization:
    """Eliminate the graph level by level and factor the top system.

    Levels from the leaves down to 2 are eliminated, and every level is
    merged into its parent; the top system is the root's merged x node.
    Fill-in between well-separated clusters is compressed with absolute
    threshold epsilon * sigma0, where sigma0 is the leading singular
    value of the initial extended matrix (estimated here unless given,
    and then finite and positive).
    `seed` seeds only that estimate; elimination draws no random numbers,
    so with `sigma0` given the factorization does not depend on `seed`.

    The graph and the returned factor borrow the operator blocks of
    `graph.ops` without copying them; do not modify those arrays in place
    while either is in use.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if sigma0 is not None and not (np.isfinite(sigma0) and sigma0 > 0):
        raise ValueError("sigma0 must be finite and positive")
    tree = graph.tree
    timings = {k: 0.0 for k in TIMING_KEYS}
    timings["sigma0_estimation"] = 0.0

    if sigma0 is None:
        t0 = time.perf_counter()
        sigma0 = estimate_sigma0(graph, seed=seed)
        timings["sigma0_estimation"] = time.perf_counter() - t0
    threshold = epsilon * sigma0

    bd = graph.block_dim
    leaf_slices = [(graph.node_x[c], tree.clusters[c].start, tree.clusters[c].stop)
                   for c in tree.leaves()]

    events: list[Event] = []
    stats = FactorStats(n_clusters=tree.n_clusters)

    for level in range(tree.depth, 0, -1):
        if level >= 2:
            stats.levels.append(
                eliminate_level(graph, level, threshold, events, timings))
        t0 = time.perf_counter()
        merge_to_parent(graph, level, events)
        timings["operator_transfer"] += time.perf_counter() - t0

    root = graph.node_x[tree.levels[0][0]]
    t0 = time.perf_counter()
    top_lu = _lu(graph.get_edge(root, root), "top-level system")
    timings["lu_and_triangular_solves"] += time.perf_counter() - t0

    stats.peak_edges = graph.peak_edges
    stats.max_basis_rank = max((len(w) for w in graph.sigma_u.values()), default=0)
    stats.max_fill_rank = max((ls.max_rank for ls in stats.levels), default=0)

    return IFMMFactorization(
        n_points=tree.n_points, block_dim=bd, perm=tree.perm,
        leaf_slices=leaf_slices, events=events, root=root, top_lu=top_lu,
        epsilon=epsilon, sigma0=sigma0, stats=stats, timings=timings)


def eliminate_level(graph: ExtendedGraph, level: int, threshold: float,
                    events: list[Event], timings: dict) -> FillinStats:
    """Eliminate the (x, z) pair of every cluster at `level`, Morton order."""
    stats = FillinStats(level)
    for cid in graph.tree.levels[level]:
        _eliminate_cluster(graph, cid, threshold, events, stats, timings)
    return stats


def _eliminate_cluster(graph, cid, threshold, events, stats, timings):
    nx = graph.node_x[cid]
    nz = graph.node_z[cid]
    ny = graph.node_y[cid]
    size_x = graph.sizes[nx]
    size_z = graph.sizes[nz]

    t0 = time.perf_counter()
    D = graph.pop_edge(nx, nx)
    U = graph.pop_edge(nx, nz)
    Vt = graph.pop_edge(nz, nx)
    graph.pop_edge(nz, ny)
    graph.pop_edge(ny, nz)
    P = np.block([[D, U], [Vt, np.zeros((size_z, size_z))]])
    lu_piv = _lu(P, f"cluster {cid}")

    sources = [(b, graph.pop_edge(nx, b)) for b in sorted(graph.row_sources[nx])]
    targets = [(a, graph.pop_edge(a, nx)) for a in sorted(graph.col_targets[nx])]
    if graph.row_sources[nz] or graph.col_targets[nz]:
        raise AssertionError("z node unexpectedly has extra edges")

    events.append(Elim(nx, ny, size_x, size_z, lu_piv, sources, targets))
    graph.eliminated.add(cid)

    # Schur complement columns: X_b = P^{-1} [E(x,b); 0], plus the column
    # through the -I edge of the own multipole node.
    xcols = {}
    for b, Eb in sources:
        xcols[b] = _pivot_solve(lu_piv, np.vstack(
            [Eb, np.zeros((size_z, Eb.shape[1]))]))
    xcols[ny] = _pivot_solve(lu_piv, np.vstack(
        [np.zeros((size_x, size_z)), -np.eye(size_z)]))

    timings["lu_and_triangular_solves"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    fills: dict[tuple[int, int], np.ndarray] = {}
    all_targets = targets + [(ny, None)]
    all_sources = [(b, None) for b, _ in sources] + [(ny, None)]
    for a, Ea in all_targets:
        ca = graph.cluster_of[a]
        for b, _ in all_sources:
            Xb = xcols[b]
            F = Xb[size_x:, :] if a == ny else -(Ea @ Xb[:size_x, :])
            cb = graph.cluster_of[b]
            both_done = ca in graph.eliminated and cb in graph.eliminated
            if both_done or graph.topology.are_neighbors(ca, cb):
                # neighbor fill, or fill between two multipole nodes whose
                # same-level coupling edge already exists: add in place
                graph.add_to_edge(a, b, F)
            else:
                fills[(ca, cb)] = F
    timings["matmul_updates"] += time.perf_counter() - t0

    redirect_fillin(graph, fills, threshold, stats, timings)


def _identity_update(basis, weights):
    k = basis.shape[1]
    return BasisUpdate(basis, weights.copy(), np.eye(k), np.zeros((k, 0)))


def _cluster_unions(graph, c, fill_u, fill_v, threshold):
    """U- and V-side basis unions for cluster c, at equal rank.

    `fill_u` and `fill_v` are lists of raw fill blocks whose columns extend
    the U and V bases; they enter the union with unit weights. The z and y
    nodes are tied by -I edges, so both sides must end at one rank: the
    side of lower rank is unioned again with that rank as its minimum.
    """
    nx, nz = graph.node_x[c], graph.node_z[c]
    Uc = graph.get_edge(nx, nz)
    Vc = graph.get_edge(nz, nx).T
    su, sv = graph.sigma_u[c], graph.sigma_v[c]

    def union(basis, weights, blocks, min_rank=0):
        fill = np.hstack(blocks) if blocks else np.zeros((basis.shape[0], 0))
        return weighted_basis_union(basis, weights, fill, np.ones(fill.shape[1]),
                                    threshold, min_rank=min_rank)

    bu_u = union(Uc, su, fill_u) if fill_u else _identity_update(Uc, su)
    bu_v = union(Vc, sv, fill_v) if fill_v else _identity_update(Vc, sv)
    k = max(bu_u.rank, bu_v.rank)
    if bu_u.rank < k:
        bu_u = union(Uc, su, fill_u, k)
    elif bu_v.rank < k:
        bu_v = union(Vc, sv, fill_v, k)
    return bu_u, bu_v


def _apply_rebase(graph, c, bu_u, bu_v):
    """Swap in the new U/V bases of cluster c and rebase its y node's edges.

    The solve keeps no record of it. A live cluster's y node has no edge
    to an x node, so no elimination so far lists it among its targets or
    sources: its right-hand side is still zero, and the backward sweep
    never sees its old basis.
    """
    nx, nz, ny = graph.node_x[c], graph.node_z[c], graph.node_y[c]
    r, t = bu_u.old_map, bu_v.old_map
    k_new = bu_u.rank

    graph.set_edge(nx, nz, bu_u.new_basis)
    graph.set_edge(nz, nx, bu_v.new_basis.T)
    graph.sigma_u[c] = bu_u.new_weights
    graph.sigma_v[c] = bu_v.new_weights

    for b in sorted(graph.row_sources[ny]):
        if b != nz:
            graph.set_edge(ny, b, r @ graph.get_edge(ny, b))
    for a in sorted(graph.col_targets[ny]):
        if a != nz:
            graph.set_edge(a, ny, graph.get_edge(a, ny) @ t.T)

    graph.pop_edge(nz, ny)
    graph.pop_edge(ny, nz)
    graph.sizes[nz] = k_new
    graph.sizes[ny] = k_new
    minus_eye = -np.eye(k_new)
    graph.set_edge(nz, ny, minus_eye)
    graph.set_edge(ny, nz, minus_eye)


def redirect_fillin(graph, fills, threshold, stats, timings):
    """Fold one elimination's well-separated fills into the coupling edges.

    `fills` maps (target cluster, source cluster) to the fill block F
    between their active nodes (x for a live cluster, y for an eliminated
    one). A fill with ||F||_F <= threshold has no singular value above it
    and is dropped. Every live cluster that receives a kept fill takes one
    basis union over the raw kept fills (F into it on the U side, F^T of F
    out of it on the V side) and one rebase of all its y node's edges.
    Each kept fill is then projected onto the new bases and added to the
    y-y edge of its pair.
    """
    t0 = time.perf_counter()
    kept = {key: F for key, F in sorted(fills.items())
            if np.linalg.norm(F) > threshold}
    pairs = {(min(ca, cb), max(ca, cb)) for ca, cb in fills}
    kept_pairs = sorted({(min(ca, cb), max(ca, cb)) for ca, cb in kept})
    if any(cj in graph.eliminated and ck in graph.eliminated for cj, ck in pairs):
        raise AssertionError("both-eliminated fills are added, not redirected")
    stats.compressed_pairs += len(kept_pairs)
    stats.dropped_pairs += len(pairs) - len(kept_pairs)

    # one union and one rebase per live cluster: fills whose target is c
    # extend U_c, fills whose source is c extend V_c
    bus_u, bus_v = {}, {}
    live = sorted({c for pair in kept_pairs for c in pair} - graph.eliminated)
    for c in live:
        bu_u, bu_v = _cluster_unions(
            graph, c, [F for (a, _), F in kept.items() if a == c],
            [F.T for (_, b), F in kept.items() if b == c], threshold)
        stats.ranks.append(bu_u.rank - bu_u.old_map.shape[1])
        _apply_rebase(graph, c, bu_u, bu_v)
        bus_u[c], bus_v[c] = bu_u, bu_v

    # E'(y_a, y_b) = r_a E(y_a, y_b) t_b^T + W_a^T F W_b: the rebases made
    # the first term; W is the new U basis of a live target and the new V
    # basis of a live source, and an eliminated side keeps the fill on its
    # y node unprojected
    for (a, b), F in kept.items():
        if a in bus_u:
            F = bus_u[a].new_basis.T @ F
        if b in bus_v:
            F = F @ bus_v[b].new_basis
        graph.add_to_edge(graph.node_y[a], graph.node_y[b], F)
    dt = time.perf_counter() - t0
    stats.compress_time += dt
    timings["lowrank_approximations"] += dt


def merge_to_parent(graph: ExtendedGraph, level: int,
                    events: list[Event]) -> None:
    """Join the nodes of siblings at `level` into their parent's x node.

    A child joins with its y node, or with its x node if it has none
    (level 1, and the leaves of a depth-1 tree). Every edge of a child
    node moves into the edge of its parent's x node, at the child's
    offset; the other end stays where it is unless it is a child node
    too. Each region of a new parent block receives at most one child
    block, which is placed, not added.
    """
    tree = graph.tree
    parent: dict[int, tuple[int, int]] = {}  # child node -> (parent x, offset)
    for pid in tree.levels[level - 1]:
        kids = [graph.node_y[c] if c in graph.node_y else graph.node_x[c]
                for c in tree.clusters[pid].children]
        parts = [(n, graph.sizes[n]) for n in kids]
        px = graph._new_node(sum(s for _, s in parts), X, pid)
        graph.node_x[pid] = px
        off = 0
        for cy, s in parts:
            parent[cy] = (px, off)
            off += s
        events.append(Merge(px, parts))

    def place(node):
        return parent.get(node, (node, 0))

    moved = [(t, s) for (t, s) in graph.edges if t in parent or s in parent]
    for (t, s) in moved:
        blk = graph.pop_edge(t, s)
        (pt, row), (ps, col) = place(t), place(s)
        tgt = graph.get_edge(pt, ps)
        if tgt is None:
            tgt = np.zeros((graph.sizes[pt], graph.sizes[ps]))
            graph.set_edge(pt, ps, tgt)
        tgt[row:row + blk.shape[0], col:col + blk.shape[1]] = blk
