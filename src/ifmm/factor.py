"""Level-by-level elimination of the extended graph.

Each cluster is eliminated as a 2x2 block pivot over its (x, z) nodes.
The Schur complement creates fill-in between every pair of clusters
adjacent to the eliminated one; fill between neighbors is added to the
existing dense edges. Fill between well-separated clusters is dropped
when its Frobenius norm is at most the global threshold epsilon *
sigma0(E), and otherwise redirected through the multipole coupling
edges: each live cluster that receives such fill has its
interpolation/anterpolation bases widened by one basis union over that
elimination's raw fill blocks and is rebased once, and the fill enters
the coupling edge projected onto the new bases. Once a level is fully
eliminated, the sibling multipole nodes merge into their parent's
unknown node and the graph has the structure of a one-level-shallower
problem.

The factorization records a replayable event log (pivot factors, edge
snapshots, rebase maps, merge layouts), so any number of right-hand
sides can be pushed through elimination and pulled back through
substitution without refactorizing.
"""

from __future__ import annotations

import time
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
    added: int = 0
    dropped_pairs: int = 0
    ranks: list[int] = field(default_factory=list)
    compress_time: float = 0.0
    forced_rank_truncations: int = 0

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
    forced_rank_truncations: int = 0

    @property
    def edge_bound_constant(self) -> float:
        return self.peak_edges / max(self.n_clusters, 1)


TIMING_KEYS = ("lu_and_triangular_solves", "matmul_updates",
               "lowrank_approximations", "operator_transfer")


class IFMMFactorization:
    """Replayable elimination log plus the top-level dense factor."""

    def __init__(self, n_points, block_dim, perm, init_sizes, leaf_slices,
                 events, top_nodes, top_sizes, top_lu, epsilon, sigma0,
                 stats, timings):
        self.n_points = n_points
        self.block_dim = block_dim
        self.perm = perm
        self.init_sizes = init_sizes
        self.leaf_slices = leaf_slices      # (x node, start, stop) point slices
        self.events = events
        self.top_nodes = top_nodes
        self.top_sizes = top_sizes
        self.top_lu = top_lu
        self.epsilon = epsilon
        self.sigma0 = sigma0
        self.stats = stats
        self.timings = timings

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

        rhs = {nid: np.zeros(s) for nid, s in enumerate(self.init_sizes)}
        for nx, start, stop in self.leaf_slices:
            rhs[nx] = bt[start * bd:stop * bd].copy()

        for ev in self.events:
            tag = ev[0]
            if tag == "elim":
                _, nx, nz, ny, size_x, size_z, lu_piv, sources, targets = ev
                g = _pivot_solve(lu_piv,
                                 np.concatenate([rhs[nx], np.zeros(size_z)]))
                for a, blk in targets:
                    rhs[a] = rhs[a] - blk @ g[:size_x]
                rhs[ny] = rhs[ny] + g[size_x:]
            elif tag == "rebase":
                _, ny, r = ev
                rhs[ny] = r @ rhs[ny]
            else:  # merge
                _, px, parts = ev
                rhs[px] = np.concatenate([rhs[cy] for cy, _ in parts]) \
                    if parts else np.zeros(0)

        sol: dict[int, np.ndarray] = {}
        if self.top_nodes:
            top_rhs = np.concatenate([rhs[t] for t in self.top_nodes])
            y = _pivot_solve(self.top_lu, top_rhs)
            off = 0
            for t, s in zip(self.top_nodes, self.top_sizes):
                sol[t] = y[off:off + s]
                off += s

        for ev in reversed(self.events):
            tag = ev[0]
            if tag == "elim":
                _, nx, nz, ny, size_x, size_z, lu_piv, sources, targets = ev
                rx = rhs[nx].copy()
                for bnode, blk in sources:
                    rx -= blk @ sol[bnode]
                xz = _pivot_solve(lu_piv, np.concatenate([rx, sol[ny]]))
                sol[nx] = xz[:size_x]
                sol[nz] = xz[size_x:]
            elif tag == "merge":
                _, px, parts = ev
                off = 0
                for cy, s in parts:
                    sol[cy] = sol[px][off:off + s]
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
    lu, piv = sla.lu_factor(P, check_finite=False)
    d = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or (d.size and d.min() == 0.0):
        raise SingularPivotError(what)
    return lu, piv


def factorize(graph: ExtendedGraph, epsilon: float, seed: int = 0,
              sigma0: float | None = None) -> IFMMFactorization:
    """Eliminate the graph level by level and factor the top system.

    Fill-in between well-separated clusters is compressed with absolute
    threshold epsilon * sigma0, where sigma0 is the leading singular
    value of the initial extended matrix (estimated here unless given).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    tree = graph.tree
    rng = np.random.Generator(np.random.PCG64(seed))
    timings = {k: 0.0 for k in TIMING_KEYS}
    timings["sigma0_estimation"] = 0.0

    if sigma0 is None:
        t0 = time.perf_counter()
        sigma0 = estimate_sigma0(graph, seed=seed)
        timings["sigma0_estimation"] = time.perf_counter() - t0
    threshold = epsilon * sigma0

    init_sizes = list(graph.sizes)
    bd = graph.block_dim
    leaf_slices = [(graph.node_x[c], tree.clusters[c].start, tree.clusters[c].stop)
                   for c in tree.leaves()]

    events: list = []
    stats = FactorStats(n_clusters=tree.n_clusters)

    for level in range(tree.depth, 1, -1):
        stats.levels.append(
            eliminate_level(graph, level, threshold, rng, events, timings))
        if level > 2:
            t0 = time.perf_counter()
            merge_to_parent(graph, level, events)
            timings["operator_transfer"] += time.perf_counter() - t0

    if tree.depth >= 2:
        top_nodes = [graph.node_y[c] for c in tree.levels[2]]
    else:
        top_nodes = [graph.node_x[c] for c in tree.leaves()]
    top_sizes = [graph.sizes[t] for t in top_nodes]
    t0 = time.perf_counter()
    top_lu = _assemble_top(graph, top_nodes, top_sizes)
    timings["lu_and_triangular_solves"] += time.perf_counter() - t0

    stats.peak_edges = graph.peak_edges
    stats.max_basis_rank = max((len(w) for w in graph.sigma_u.values()), default=0)
    stats.max_fill_rank = max((ls.max_rank for ls in stats.levels), default=0)
    stats.forced_rank_truncations = sum(
        ls.forced_rank_truncations for ls in stats.levels)

    return IFMMFactorization(tree.n_points, bd, graph.tree.perm, init_sizes,
                             leaf_slices, events, top_nodes, top_sizes, top_lu,
                             epsilon, sigma0, stats, timings)


def _assemble_top(graph: ExtendedGraph, top_nodes, top_sizes):
    offs = {}
    total = 0
    for t, s in zip(top_nodes, top_sizes):
        offs[t] = total
        total += s
    if total == 0:
        return None
    M = np.zeros((total, total))
    node_set = set(top_nodes)
    for (t, s), blk in graph.edges.items():
        if t in node_set and s in node_set:
            M[offs[t]:offs[t] + blk.shape[0], offs[s]:offs[s] + blk.shape[1]] = blk
    return _lu(M, "top-level system")


def eliminate_level(graph: ExtendedGraph, level: int, threshold: float,
                    rng: np.random.Generator, events: list,
                    timings: dict) -> FillinStats:
    """Eliminate the (x, z) pair of every cluster at `level`, Morton order."""
    stats = FillinStats(level)
    for cid in graph.tree.levels[level]:
        _eliminate_cluster(graph, cid, threshold, rng, events, stats, timings)
    return stats


def _eliminate_cluster(graph, cid, threshold, rng, events, stats, timings,
                       compress_ws: bool = True):
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

    events.append(("elim", nx, nz, ny, size_x, size_z, lu_piv, sources, targets))
    graph.eliminated.add(cid)

    # Schur complement columns: X_b = P^{-1} [E(x,b); 0], plus the column
    # through the -I edge of the own multipole node.
    xcols = {}
    for b, Eb in sources:
        xcols[b] = _pivot_solve(lu_piv, np.vstack(
            [Eb, np.zeros((size_z, Eb.shape[1]))]))
    xcols[ny] = _pivot_solve(lu_piv, np.vstack(
        [np.zeros((size_x, size_z)), -np.eye(size_z)]))

    # keep the stored right-hand side in lockstep with the elimination
    g = _pivot_solve(lu_piv, np.concatenate([graph.rhs[nx], np.zeros(size_z)]))
    for a, blk in targets:
        graph.rhs[a] = graph.rhs[a] - blk @ g[:size_x]
    graph.rhs[ny] = graph.rhs[ny] + g[size_x:]
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
            if (not compress_ws) or both_done \
                    or graph.topology.are_neighbors(ca, cb):
                # neighbor fill, or fill between two multipole nodes whose
                # same-level coupling edge already exists: add in place
                graph.add_to_edge(a, b, F)
                stats.added += 1
            else:
                fills[(ca, cb)] = F
    timings["matmul_updates"] += time.perf_counter() - t0

    redirect_fillin(graph, fills, threshold, rng, events, stats, timings)


def _identity_update(basis, weights):
    k = basis.shape[1]
    return BasisUpdate(basis, weights.copy(), np.eye(k), np.zeros((k, 0)))


def _extend_update(bu: BasisUpdate, k_target: int, floor: float,
                   rng: np.random.Generator) -> BasisUpdate:
    """Pad a basis update with orthonormal complement directions.

    The extra directions carry zero reconstruction maps and a weight at
    the truncation threshold; they only widen the representation space.
    """
    m, k = bu.new_basis.shape
    extra = min(k_target, m) - k
    if extra <= 0:
        return bu
    G = rng.standard_normal((m, extra))
    G -= bu.new_basis @ (bu.new_basis.T @ G)
    Q, _ = np.linalg.qr(G)
    w = max(floor, 1e-14 * (bu.new_weights.max() if k else 1.0))
    return BasisUpdate(np.hstack([bu.new_basis, Q[:, :extra]]),
                       np.concatenate([bu.new_weights, np.full(extra, w)]),
                       np.vstack([bu.old_map, np.zeros((extra, bu.old_map.shape[1]))]),
                       np.vstack([bu.fillin_map, np.zeros((extra, bu.fillin_map.shape[1]))]))


def _truncate_update(bu: BasisUpdate, k: int) -> BasisUpdate:
    return BasisUpdate(bu.new_basis[:, :k], bu.new_weights[:k],
                       bu.old_map[:k], bu.fillin_map[:k])


def _cluster_unions(graph, c, fill_u, fill_v, threshold, rng, stats):
    """U- and V-side basis unions for cluster c, forced to equal rank.

    `fill_u` and `fill_v` are lists of raw fill blocks whose columns extend
    the U and V bases; they enter the union with unit weights.
    """
    nx, nz = graph.node_x[c], graph.node_z[c]
    Uc = graph.get_edge(nx, nz)
    Vc = graph.get_edge(nz, nx).T
    su, sv = graph.sigma_u[c], graph.sigma_v[c]

    def union(basis, weights, blocks, min_rank=0):
        fill = np.hstack(blocks)
        return weighted_basis_union(basis, weights, fill, np.ones(fill.shape[1]),
                                    threshold, min_rank=min_rank)

    bu_u = union(Uc, su, fill_u) if fill_u else _identity_update(Uc, su)
    bu_v = union(Vc, sv, fill_v) if fill_v else _identity_update(Vc, sv)

    if bu_u.rank != bu_v.rank:
        k = max(bu_u.rank, bu_v.rank)
        if bu_u.rank < k and fill_u:
            bu_u = union(Uc, su, fill_u, k)
        if bu_v.rank < k and fill_v:
            bu_v = union(Vc, sv, fill_v, k)
        if bu_u.rank < k:
            bu_u = _extend_update(bu_u, k, threshold, rng)
        if bu_v.rank < k:
            bu_v = _extend_update(bu_v, k, threshold, rng)
        if bu_u.rank != bu_v.rank:  # complement exhausted on one side
            k = min(bu_u.rank, bu_v.rank)
            bu_u, bu_v = _truncate_update(bu_u, k), _truncate_update(bu_v, k)
            stats.forced_rank_truncations += 1
    return bu_u, bu_v


def _apply_rebase(graph, c, bu_u, bu_v, partners, events):
    """Swap in the new U/V bases of cluster c and rebase its edges.

    The edges between c's y node and the y nodes in `partners` are left
    untouched; the caller rewrites them with the fill folded in.
    """
    nx, nz, ny = graph.node_x[c], graph.node_z[c], graph.node_y[c]
    r, t = bu_u.old_map, bu_v.old_map
    k_new = bu_u.rank

    graph.set_edge(nx, nz, bu_u.new_basis)
    graph.set_edge(nz, nx, bu_v.new_basis.T)
    graph.sigma_u[c] = bu_u.new_weights
    graph.sigma_v[c] = bu_v.new_weights

    for b in sorted(graph.row_sources[ny]):
        if b == nz or b in partners:
            continue
        graph.set_edge(ny, b, r @ graph.get_edge(ny, b))
    for a in sorted(graph.col_targets[ny]):
        if a == nz or a in partners:
            continue
        graph.set_edge(a, ny, graph.get_edge(a, ny) @ t.T)

    graph.pop_edge(nz, ny)
    graph.pop_edge(ny, nz)
    graph.sizes[nz] = k_new
    graph.sizes[ny] = k_new
    eye = np.eye(k_new)
    graph.set_edge(nz, ny, -eye)
    graph.set_edge(ny, nz, -eye.copy())

    graph.rhs[ny] = r @ graph.rhs[ny]
    if not (r.shape[0] == r.shape[1] and np.array_equal(r, np.eye(r.shape[0]))):
        events.append(("rebase", ny, r))


def redirect_fillin(graph, fills, threshold, rng, events, stats, timings):
    """Fold one elimination's well-separated fills into the coupling edges.

    `fills` maps (target cluster, source cluster) to the fill block F
    between their active nodes (x for a live cluster, y for an eliminated
    one). A fill with ||F||_F <= threshold has no singular value above it
    and is dropped. Every live cluster that receives a kept fill takes one
    basis union over the raw kept fills (F into it on the U side, F^T of F
    out of it on the V side) and one rebase; each kept pair's two y-y edges
    are rewritten from the edges as they were before the rebase.
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

    # pair edges before any rebase; the rebases below skip them
    old = {}
    for cj, ck in kept_pairs:
        for a, b in ((ck, cj), (cj, ck)):
            ya, yb = graph.node_y[a], graph.node_y[b]
            blk = graph.get_edge(ya, yb)
            old[(a, b)] = (blk if blk is not None
                           else np.zeros((graph.sizes[ya], graph.sizes[yb])))

    # one union and one rebase per live cluster: fills whose target is c
    # extend U_c, fills whose source is c extend V_c
    bus_u, bus_v = {}, {}
    live = sorted({c for pair in kept_pairs for c in pair} - graph.eliminated)
    for c in live:
        bu_u, bu_v = _cluster_unions(
            graph, c, [F for (a, _), F in kept.items() if a == c],
            [F.T for (_, b), F in kept.items() if b == c], threshold, rng, stats)
        stats.ranks.append(bu_u.rank - bu_u.old_map.shape[1])
        partners = {graph.node_y[p] for pair in kept_pairs if c in pair
                    for p in pair if p != c}
        _apply_rebase(graph, c, bu_u, bu_v, partners, events)
        bus_u[c], bus_v[c] = bu_u, bu_v

    # E'(y_a, y_b) = r_a E(y_a, y_b) t_b^T + W_a^T F W_b, where W is the
    # new U basis of a live target and the new V basis of a live source;
    # an eliminated side keeps the fill on its y node unprojected
    for (a, b), blk in old.items():
        if a in bus_u:
            blk = bus_u[a].old_map @ blk
        if b in bus_v:
            blk = blk @ bus_v[b].old_map.T
        F = kept.get((a, b))
        if F is not None:
            if a in bus_u:
                F = bus_u[a].new_basis.T @ F
            if b in bus_v:
                F = F @ bus_v[b].new_basis
            blk = blk + F
        graph.set_edge(graph.node_y[a], graph.node_y[b], blk)
    dt = time.perf_counter() - t0
    stats.compress_time += dt
    timings["lowrank_approximations"] += dt


def merge_to_parent(graph: ExtendedGraph, level: int, events: list) -> None:
    """Join the multipole nodes of siblings into their parent's x node."""
    tree = graph.tree
    parent_x: dict[int, int] = {}
    offsets: dict[int, int] = {}
    for pid in tree.levels[level - 1]:
        children = tree.clusters[pid].children
        parts = []
        off = 0
        for c in children:
            cy = graph.node_y[c]
            offsets[cy] = off
            s = graph.sizes[cy]
            parts.append((cy, s))
            off += s
        px = graph._new_node(off, X, pid)
        graph.node_x[pid] = px
        parent_x[pid] = px
        graph.rhs[px] = np.concatenate([graph.rhs[cy] for cy, _ in parts]) \
            if parts else np.zeros(0)
        events.append(("merge", px, parts))

    owner = {}
    for pid in tree.levels[level - 1]:
        for c in tree.clusters[pid].children:
            owner[graph.node_y[c]] = pid

    moved = [(t, s) for (t, s) in graph.edges if t in owner or s in owner]
    for (t, s) in moved:
        blk = graph.pop_edge(t, s)
        if t in owner and s in owner:
            px, qx = parent_x[owner[t]], parent_x[owner[s]]
            tgt = graph.get_edge(px, qx)
            if tgt is None:
                tgt = np.zeros((graph.sizes[px], graph.sizes[qx]))
                graph.set_edge(px, qx, tgt)
            tgt[offsets[t]:offsets[t] + blk.shape[0],
                offsets[s]:offsets[s] + blk.shape[1]] += blk
        elif t in owner:
            # transfer column edge E(y_child, z_parent) -> U(p_x, p_z) rows
            px = parent_x[owner[t]]
            tgt = graph.get_edge(px, s)
            if tgt is None:
                tgt = np.zeros((graph.sizes[px], graph.sizes[s]))
                graph.set_edge(px, s, tgt)
            tgt[offsets[t]:offsets[t] + blk.shape[0], :] += blk
        else:
            # transfer row edge E(z_parent, y_child) -> V^T(p_z, p_x) cols
            qx = parent_x[owner[s]]
            tgt = graph.get_edge(t, qx)
            if tgt is None:
                tgt = np.zeros((graph.sizes[t], graph.sizes[qx]))
                graph.set_edge(t, qx, tgt)
            tgt[:, offsets[s]:offsets[s] + blk.shape[1]] += blk
