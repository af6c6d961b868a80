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

For a symmetric kernel (`Kernel.symmetric`) the graph stays exactly
symmetric (see `ifmm.graph`) and elimination does the symmetric half of
the work: each fill is formed, recorded and screened once (adding it
stores its mirror), each cluster takes one basis union with V = U, and a
rebase rewrites only its y node's rows.
Non-symmetric kernels take the two-sided path.

The factorization records its solve plan as it runs, as a `Replay` on
one vector of shape (size,) or (size, m), a block of m right-hand sides
replayed once: the leaf x nodes own the first segments, in the permuted
point order (so a right-hand side is copied straight in), and each y
node the next free one at its cluster's elimination. A merge computes
nothing and records nothing: it renames the children's unknowns, so a
parent's x segment is the run of its children's segments. Each
elimination appends a step holding its pivot factors and popped edges
(the row edges as one array, and on the two-sided path the column edges
as another; on the symmetric path the column edges are the transposes of
the rows). Going forward, an elimination is one pivot solve and one
product scattered into its targets' segments; going back, one gathered
product and one pivot solve. On a block each of these acts on all m
columns at once: getrs (called directly) takes them as one multi-column
solve and the products are matrix-matrix. `forward_sweep` (the test
oracles' entry, on a plan recorded so far) and `IFMMFactorization.solve`
run the same replay; the solve pulls the solution back by substitution,
for any number of right-hand sides without refactorizing.

`factorize` accounts for its time and its compression in one record per
eliminated level, `LevelStats`, kept in `FactorStats.levels`: the seconds
of each phase of the level (pivot, fill products, screen, unions,
rebases, projected adds, merge), its fill census and dropped mass, and
its edge peak and step bytes. `FactorStats` adds the sigma0 estimate and
the top-level system; `IFMMFactorization.timings` sums the phases.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgetrs

from .graph import ExtendedGraph, X, estimate_sigma0
from .lowrank import BasisUpdate, weighted_basis_union


class SingularPivotError(RuntimeError):
    def __init__(self, what):
        super().__init__(f"singular pivot block during elimination: {what}")
        self.what = what


@dataclass
class LevelStats:
    """What eliminating one level cost, and what it compressed.

    The `_s` fields are the seconds of each phase: `pivot_s` the edge
    pops, pivot LU and Schur solve of each elimination, `products_s` the
    fill products, `screen_s` the Frobenius screen of the well-separated
    fills, `unions_s` the basis unions, `rebases_s` the rebases, `adds_s`
    the projected adds of the kept fills, and `merge_s` the merge of the
    level into its parent.

    A pair of well-separated clusters is compressed when one of its fills
    passes the screen, and dropped otherwise. `dropped_mass` is the
    Frobenius norm of all dropped fill, sqrt(sum ||F||_F^2), mirrors
    included on a symmetric graph. `ranks` holds, for each basis union
    (one per rebase), the rank it adds to its cluster (new rank minus old
    rank); it is negative when the union drops old directions whose
    weights are at or below the threshold. `peak_edges` is the graph's
    edge peak so far at the end of the level, and `step_bytes` the bytes
    of the solve steps the level recorded.
    """
    level: int
    pivot_s: float = 0.0
    products_s: float = 0.0
    screen_s: float = 0.0
    unions_s: float = 0.0
    rebases_s: float = 0.0
    adds_s: float = 0.0
    merge_s: float = 0.0
    compressed_pairs: int = 0
    dropped_pairs: int = 0
    dropped_mass: float = 0.0
    ranks: list[int] = field(default_factory=list)
    peak_edges: int = 0
    step_bytes: int = 0

    @property
    def max_rank(self) -> int:
        return max(self.ranks) if self.ranks else 0


@dataclass
class FactorStats:
    levels: list[LevelStats] = field(default_factory=list)
    sigma0_s: float = 0.0    # the sigma0 estimate; 0 when sigma0 is given
    top_s: float = 0.0       # the level-1 merge and the top-level LU
    peak_edges: int = 0
    n_clusters: int = 0
    max_basis_rank: int = 0
    max_fill_rank: int = 0
    forced_rank_truncations: int = 0   # always 0: the unions reach equal rank

    @property
    def edge_bound_constant(self) -> float:
        return self.peak_edges / max(self.n_clusters, 1)

    @property
    def timings(self) -> dict[str, float]:
        """Seconds of each level phase summed over the levels, then
        sigma0_s and top_s: together, all of `factorize`."""
        out = {f.name: sum((getattr(ls, f.name) for ls in self.levels), 0.0)
               for f in fields(LevelStats) if f.name.endswith("_s")}
        return {**out, "sigma0_s": self.sigma0_s, "top_s": self.top_s}


class _ElimStep(NamedTuple):
    xs: slice                 # segment of the x node
    ys: slice                 # segment of the y node
    lu_piv: tuple[np.ndarray, np.ndarray] | None
    src: np.ndarray           # gather index of the sources' segments
    tgt: np.ndarray           # gather index of the targets' segments
    rows: np.ndarray          # E(x, sources)
    fwd: np.ndarray           # E(targets, x): its own array, or `rows.T`


@dataclass(slots=True)
class Replay:
    """The solve plan on one vector of shape (size,) or (size, m).

    Every node a step touches owns the fixed segment `segments[node]`: a
    leaf x node from the start, a y node from its cluster's elimination,
    and a parent x node the run of its children's segments, which it
    takes over at the merge. `forward` pushes the right-hand side held in
    the vector through the steps: an elimination leaves the right-hand
    side of its x node at elimination in the x segment and sets its y
    segment. `backward` takes the vector with the solution of the
    remaining nodes in their segments and substitutes back through the
    steps in reverse, leaving each eliminated x node's solution in its
    segment. A (size, m) vector is m columns pushed through each step at
    once.
    """
    segments: dict[int, slice]
    size: int
    steps: list[_ElimStep] = field(default_factory=list)

    @classmethod
    def for_graph(cls, graph: ExtendedGraph) -> Replay:
        """An empty plan whose leaf x segments tile [0, dim) in the
        permuted point order."""
        bd, tree = graph.block_dim, graph.tree
        return cls({graph.node_x[c]: slice(tree.clusters[c].start * bd,
                                           tree.clusters[c].stop * bd)
                    for c in tree.leaves()}, tree.n_points * bd)

    def new_segment(self, node: int, n: int) -> slice:
        """Give `node` the next n free entries."""
        s = self.segments[node] = slice(self.size, self.size + n)
        self.size += n
        return s

    def gather(self, nodes) -> np.ndarray:
        """Gather index of the segments of `nodes`, in order."""
        segs = [self.segments[n] for n in nodes]
        return np.concatenate([np.arange(s.start, s.stop, dtype=np.int32)
                               for s in segs] or [np.zeros(0, np.int32)])

    def forward(self, v: np.ndarray) -> None:
        tail = v.shape[1:]
        for xs, ys, lu_piv, _, tgt, _, fwd in self.steps:
            sx = xs.stop - xs.start
            # Fortran order: getrs takes a block as one multi-column solve
            g = np.zeros((sx + ys.stop - ys.start,) + tail, order="F")
            g[:sx] = v[xs]
            g = _pivot_solve(lu_piv, g)
            v[tgt] -= fwd @ g[:sx]
            v[ys] = g[sx:]

    def backward(self, v: np.ndarray) -> None:
        tail = v.shape[1:]
        for xs, ys, lu_piv, src, _, rows, _ in reversed(self.steps):
            sx = xs.stop - xs.start
            r = np.empty((sx + ys.stop - ys.start,) + tail, order="F")
            np.subtract(v[xs], rows @ v[src], out=r[:sx])
            r[sx:] = v[ys]
            v[xs] = _pivot_solve(lu_piv, r)[:sx]


def forward_sweep(replay: Replay,
                  rhs: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Push a right-hand side through the plan recorded so far.

    `rhs` maps leaf x nodes to the right-hand side of their rows; every
    other row starts with a zero right-hand side. Returns a map from every
    node with a segment to its right-hand side after the steps: for the
    remaining nodes, that of the reduced system, and for an eliminated x
    node, that at its elimination. The arrays are views of one vector, so
    a merged child's view is part of its parent's; neither `rhs` nor its
    arrays are modified.
    """
    v = np.zeros(replay.size)
    for node, r in rhs.items():
        v[replay.segments[node]] = r
    replay.forward(v)
    return {node: v[s] for node, s in replay.segments.items()}


@dataclass(eq=False)
class IFMMFactorization:
    """The solve plan plus the root's dense factor."""
    n_points: int
    block_dim: int
    perm: np.ndarray
    replay: Replay
    root: int                                  # x node of the top-level system
    top_lu: tuple[np.ndarray, np.ndarray] | None
    epsilon: float
    sigma0: float
    stats: FactorStats

    @property
    def timings(self) -> dict[str, float]:
        return self.stats.timings

    @property
    def dim(self) -> int:
        return self.n_points * self.block_dim

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (original point ordering) using the stored factor.

        b has shape (dim,) or (dim, m); a block is replayed once, every
        step acting on all m columns. Raises ValueError for any other
        shape and for non-finite entries.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.dim:
            raise ValueError(f"expected shape ({self.dim},) or ({self.dim}, m), "
                             f"got {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError("rhs must be finite (it has nan or inf entries)")
        n, bd, tail = self.n_points, self.block_dim, b.shape[1:]
        # the leaf x segments tile [0, dim) in the permuted point order
        v = np.zeros((self.replay.size,) + tail)
        v[:self.dim] = b.reshape(n, bd, *tail)[self.perm].reshape(self.dim, *tail)
        self.replay.forward(v)
        rs = self.replay.segments[self.root]
        v[rs] = _pivot_solve(self.top_lu, v[rs])
        self.replay.backward(v)
        out = np.empty((n, bd) + tail)
        out[self.perm] = v[:self.dim].reshape(n, bd, *tail)
        return out.reshape(b.shape)


def _pivot_solve(lu_piv, b):
    """P^{-1} b by LAPACK getrs; overwrites b if it is Fortran-contiguous."""
    if lu_piv is None:  # zero-dimensional pivot: b has no rows
        return b
    return dgetrs(lu_piv[0], lu_piv[1], b, overwrite_b=1)[0]


def _lu(P, what):
    """LU factors of P; a Fortran-ordered P is overwritten by them."""
    if P.shape[0] == 0:
        return None
    with warnings.catch_warnings():  # a singular pivot raises, below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(P, overwrite_a=True, check_finite=False)
    # min and max are finite iff every entry is: no n x n temporary
    d = np.abs(np.diag(lu))
    if not (np.isfinite(lu.min()) and np.isfinite(lu.max())) or d.min() == 0.0:
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

    The graph is consumed: `factorize` pops every edge, and the top
    system is factored in place; a second call on it raises ValueError.
    The graph borrows the operator blocks without copying them; do not
    modify those arrays in place while it is in use. The returned factor
    keeps no operator block: each elimination step concatenates the edges
    it records into arrays of its own, and a depth-0 root block, the
    caller's near block, is copied.
    """
    tree = graph.tree
    if any(graph.get_edge(graph.node_x[c], graph.node_x[c]) is None
           for c in tree.leaves()):
        raise ValueError("the graph was already factorized (factorize consumes "
                         "it): assemble a new one")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if sigma0 is not None and not (np.isfinite(sigma0) and sigma0 > 0):
        raise ValueError("sigma0 must be finite and positive")
    stats = FactorStats(n_clusters=tree.n_clusters)
    if sigma0 is None:
        t0 = time.perf_counter()
        sigma0 = estimate_sigma0(graph, seed=seed)
        stats.sigma0_s = time.perf_counter() - t0
    threshold = epsilon * sigma0

    replay = Replay.for_graph(graph)
    for level in range(tree.depth, 1, -1):
        ls = eliminate_level(graph, level, threshold, replay)
        t0 = time.perf_counter()
        merge_to_parent(graph, level, replay)
        ls.merge_s = time.perf_counter() - t0
        ls.peak_edges = graph.peak_edges
        stats.levels.append(ls)

    # level 1 merges into the root's x node, whose self-edge is the top
    # system; it is factored in place: the merge made it Fortran-ordered,
    # except in a depth-0 tree, where it is the caller's near block
    t0 = time.perf_counter()
    if tree.depth >= 1:
        merge_to_parent(graph, 1, replay)
    root = graph.node_x[tree.levels[0][0]]
    top = graph.pop_edge(root, root)
    if tree.depth == 0:
        top = np.array(top, order="F")
    top_lu = _lu(top, "top-level system")
    stats.top_s = time.perf_counter() - t0

    stats.peak_edges = graph.peak_edges
    stats.max_basis_rank = max((len(w) for w in graph.sigma_u.values()), default=0)
    stats.max_fill_rank = max((ls.max_rank for ls in stats.levels), default=0)

    return IFMMFactorization(
        n_points=tree.n_points, block_dim=graph.block_dim, perm=tree.perm,
        replay=replay, root=root, top_lu=top_lu, epsilon=epsilon,
        sigma0=sigma0, stats=stats)


def eliminate_level(graph: ExtendedGraph, level: int, threshold: float,
                    replay: Replay) -> LevelStats:
    """Eliminate the (x, z) pair of every cluster at `level`, Morton order,
    appending one step per cluster to `replay`; returns the level's record,
    whose merge and edge peak the caller fills in."""
    stats = LevelStats(level)
    for cid in graph.tree.levels[level]:
        _eliminate_cluster(graph, cid, threshold, replay, stats)
    return stats


def _eliminate_cluster(graph, cid, threshold, replay, stats):
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

    # the popped edges are stacked into the arrays the step keeps, and
    # the fill products below read views of them
    src_nodes = sorted(graph.row_sources[nx])
    if graph.symmetric:
        for b in src_nodes:
            graph.pop_edge(b, nx)
    sources, rows = _pop_stacked(graph, nx, src_nodes, 1)
    offs = np.cumsum([0] + [n for _, n in sources] + [size_z])
    xs, ys = replay.segments[nx], replay.new_segment(ny, size_z)
    src = replay.gather(n for n, _ in sources)
    if graph.symmetric:
        targets, cols, tgt = sources, rows.T, src
    else:
        targets, cols = _pop_stacked(graph, nx, sorted(graph.col_targets[nx]), 0)
        tgt = replay.gather(n for n, _ in targets)
    toffs = np.cumsum([0] + [n for _, n in targets])
    col_blocks = [(a, cols[toffs[j]:toffs[j + 1]])
                  for j, (a, _) in enumerate(targets)]
    replay.steps.append(_ElimStep(xs, ys, lu_piv, src, tgt, rows, cols))
    owned = (rows, src) if graph.symmetric else (rows, src, cols, tgt)
    stats.step_bytes += sum(a.nbytes for a in owned + (lu_piv or ()))
    if graph.row_sources[nz] or graph.col_targets[nz]:
        raise AssertionError("z node unexpectedly has extra edges")

    # Schur complement columns, in one solve: X_b = P^{-1} [E(x,b); 0] for
    # every source b, and the column through the -I edge of the own
    # multipole node; the solve overwrites its Fortran-ordered scratch
    rhs = np.zeros((size_x + size_z, offs[-1]), order="F")
    rhs[:size_x, :offs[-2]] = rows
    rhs[size_x:, offs[-2]:] = -np.eye(size_z)
    X = _pivot_solve(lu_piv, rhs)
    src_nodes.append(ny)
    xcols = {b: X[:, offs[j]:offs[j + 1]] for j, b in enumerate(src_nodes)}

    graph.eliminated.add(cid)
    t1 = time.perf_counter()
    stats.pivot_s += t1 - t0

    # F(a, b) = -E(a, x) X_b[:x] for a target a, and the z rows X_b[z:] for
    # the own multipole node, whose only column edge is -I on z. On a
    # symmetric graph F(b, a) = F(a, b)^T: only b at or after a is formed.
    # The x rows of X are negated once here, not every product after it
    # (negation is exact: the fills are the same).
    np.negative(X[:size_x], out=X[:size_x])
    fills: dict[tuple[int, int], np.ndarray] = {}
    all_targets = col_blocks + [(ny, None)]
    for i, (a, Ea) in enumerate(all_targets):
        ca = graph.cluster_of[a]
        for b in (src_nodes[i:] if graph.symmetric else src_nodes):
            Xb = xcols[b]
            # a copy: a stored fill must not keep all of X alive
            F = Xb[size_x:, :].copy() if a == ny else Ea @ Xb[:size_x, :]
            cb = graph.cluster_of[b]
            both_done = ca in graph.eliminated and cb in graph.eliminated
            if both_done or graph.topology.are_neighbors(ca, cb):
                # neighbor fill, or fill between two multipole nodes whose
                # same-level coupling edge already exists: add to it (and
                # to its mirror)
                graph.add_to_edge(a, b, F)
            else:
                fills[(ca, cb)] = F
    stats.products_s += time.perf_counter() - t1

    redirect_fillin(graph, fills, threshold, stats)


def _pop_stacked(graph, node, ends, axis):
    """Pop the edges of `node` to `ends` and stack them into one new array.

    Axis 1 pops the row edges E(node, b) side by side, axis 0 the column
    edges E(a, node) on top of each other. Returns ((end, width), ...)
    and the array; the popped blocks are dropped on return.
    """
    blocks = [graph.pop_edge(node, b) if axis == 1 else graph.pop_edge(b, node)
              for b in ends]
    parts = tuple((b, blk.shape[axis]) for b, blk in zip(ends, blocks))
    if not blocks:
        n = graph.sizes[node]
        return parts, np.zeros((n, 0) if axis == 1 else (0, n))
    return parts, np.concatenate(blocks, axis=axis)


def _identity_update(basis, weights):
    k = basis.shape[1]
    return BasisUpdate(basis, weights.copy(), np.eye(k), np.zeros((k, 0)))


def _cluster_unions(graph, c, fill_u, fill_v, threshold):
    """U- and V-side basis unions for cluster c, at equal rank.

    `fill_u` and `fill_v` are lists of raw fill blocks whose columns extend
    the U and V bases; they enter the union with unit weights. On a
    symmetric graph V = U, and one union over both lists serves both
    sides: a fill out of c, transposed, is a fill into c. Otherwise the z
    and y nodes, tied by -I edges, make both sides end at one rank: the
    side of lower rank is unioned again with that rank as its minimum.
    """
    nx, nz = graph.node_x[c], graph.node_z[c]
    Uc, su = graph.get_edge(nx, nz), graph.sigma_u[c]

    def union(basis, weights, blocks, min_rank=0):
        fill = np.hstack(blocks) if blocks else np.zeros((basis.shape[0], 0))
        return weighted_basis_union(basis, weights, fill, np.ones(fill.shape[1]),
                                    threshold, min_rank=min_rank)

    if graph.symmetric:
        bu_u = union(Uc, su, fill_u + fill_v)
        return bu_u, bu_u
    bu_u = union(Uc, su, fill_u) if fill_u else _identity_update(Uc, su)
    Vc, sv = graph.get_edge(nz, nx).T, graph.sigma_v[c]
    bu_v = union(Vc, sv, fill_v) if fill_v else _identity_update(Vc, sv)
    k = max(bu_u.rank, bu_v.rank)
    if bu_u.rank < k:
        bu_u = union(Uc, su, fill_u, k)
    elif bu_v.rank < k:
        bu_v = union(Vc, sv, fill_v, k)
    return bu_u, bu_v


def _apply_rebase(graph, c, bu_u, bu_v):
    """Swap in the new U/V bases of cluster c and rebase its y node's edges.

    Rows of y_c go through r, columns through t^T. On a symmetric graph
    t = r and only the rows are rewritten: `set_edge` mirrors each one
    into its column, and the self-edge becomes r E r^T.

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
            blk = r @ graph.get_edge(ny, b)
            graph.set_edge(ny, b, blk @ t.T if graph.symmetric and b == ny
                           else blk)
    if not graph.symmetric:
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


def redirect_fillin(graph, fills, threshold, stats):
    """Fold one elimination's well-separated fills into the coupling edges.

    `fills` maps (target cluster, source cluster) to the fill block F
    between their active nodes (x for a live cluster, y for an eliminated
    one). A fill with ||F||_F <= threshold has no singular value above it
    and is dropped. Every live cluster that receives a kept fill takes one
    basis union over the raw kept fills (F into it on the U side, F^T of F
    out of it on the V side) and one rebase of all its y node's edges.
    Each kept fill is then projected onto the new bases and added to the
    y-y edge of its pair. Each fill has one record: on a symmetric graph
    `fills` holds F(a, b) alone, F(b, a) = F(a, b)^T is its mirror, and
    adding it stores the mirror too.
    """
    t0 = time.perf_counter()
    norms = {key: np.linalg.norm(F) for key, F in fills.items()}
    kept = {key: F for key, F in sorted(fills.items()) if norms[key] > threshold}
    pairs = {(min(ca, cb), max(ca, cb)) for ca, cb in fills}
    kept_pairs = sorted({(min(ca, cb), max(ca, cb)) for ca, cb in kept})
    if any(cj in graph.eliminated and ck in graph.eliminated for cj, ck in pairs):
        raise AssertionError("both-eliminated fills are added, not redirected")
    stats.compressed_pairs += len(kept_pairs)
    stats.dropped_pairs += len(pairs) - len(kept_pairs)
    # a symmetric graph drops each fill's mirror with it
    dropped = sum(n * n for key, n in norms.items() if key not in kept)
    stats.dropped_mass = math.hypot(
        stats.dropped_mass, math.sqrt(dropped * (2 if graph.symmetric else 1)))
    t1 = time.perf_counter()
    stats.screen_s += t1 - t0

    # one union and one rebase per live cluster: fills whose target is c
    # extend U_c, fills whose source is c extend V_c
    bus_u, bus_v = {}, {}
    live = sorted({c for pair in kept_pairs for c in pair} - graph.eliminated)
    for c in live:
        bu_u, bu_v = _cluster_unions(
            graph, c, [F for (a, _), F in kept.items() if a == c],
            [F.T for (_, b), F in kept.items() if b == c], threshold)
        t2 = time.perf_counter()
        stats.unions_s += t2 - t1
        stats.ranks.append(bu_u.rank - bu_u.old_map.shape[1])
        _apply_rebase(graph, c, bu_u, bu_v)
        bus_u[c], bus_v[c] = bu_u, bu_v
        t1 = time.perf_counter()
        stats.rebases_s += t1 - t2

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
    stats.adds_s += time.perf_counter() - t1


def merge_to_parent(graph: ExtendedGraph, level: int, replay: Replay) -> None:
    """Join the nodes of siblings at `level` into their parent's x node.

    A child joins with its y node, or with its x node if it has none
    (level 1, and the leaves of a depth-1 tree). Every edge of a child
    node moves into the edge of its parent's x node, at the child's
    offset; the other end stays where it is unless it is a child node
    too. Each region of a new parent block receives at most one child
    block, which is placed, not added. At level 1 the only new block is
    the root's self-edge, the top-level system; it is Fortran-ordered, so
    that LAPACK factors it in place.

    The solve needs no step for it: the parent's x segment is the run of
    its children's segments, which lie side by side in child order (a
    level is eliminated in Morton order, the order children are listed
    in), so the parent's view is its children's memory, and a child's
    offset in the parent block is its offset in that run.
    """
    tree = graph.tree
    parent: dict[int, tuple[int, int]] = {}  # child node -> (parent x, offset)
    for pid in tree.levels[level - 1]:
        kids = [graph.node_y[c] if c in graph.node_y else graph.node_x[c]
                for c in tree.clusters[pid].children]
        segs = [replay.segments[n] for n in kids]
        if any(a.stop != b.start for a, b in zip(segs, segs[1:])):
            raise AssertionError(f"segments of the children of cluster {pid} "
                                 "are not adjacent in child order")
        start, stop = segs[0].start, segs[-1].stop
        px = graph._new_node(stop - start, X, pid)
        graph.node_x[pid] = px
        replay.segments[px] = slice(start, stop)
        for n, s in zip(kids, segs):
            parent[n] = (px, s.start - start)

    def place(node):
        return parent.get(node, (node, 0))

    moved = [(t, s) for (t, s) in graph.edges if t in parent or s in parent]
    for (t, s) in moved:
        blk = graph.pop_edge(t, s)
        (pt, row), (ps, col) = place(t), place(s)
        tgt = graph.get_edge(pt, ps)
        if tgt is None:
            tgt = np.zeros((graph.sizes[pt], graph.sizes[ps]),
                           order="F" if level == 1 else "C")
            graph.set_edge(pt, ps, tgt)
        tgt[row:row + blk.shape[0], col:col + blk.shape[1]] = blk
