import warnings

import numpy as np
import pytest

import ifmm.factor
from ifmm.dense import dense_matrix
from ifmm.factor import (LevelStats, Replay, SingularPivotError,
                         _cluster_unions, _ElimStep, _eliminate_cluster,
                         eliminate_level, factorize, forward_sweep,
                         merge_to_parent)
from ifmm.graph import assemble_extended_graph, estimate_sigma0, h2_dense
from ifmm.h2 import chebyshev_operators, initialize_weights
from ifmm.kernels import (Kernel, benchmark_kernel, cube_uniform,
                          nonsymmetric_kernel, rpy_kernel)
from ifmm.tree import build_octree, compute_topology

from conftest import UNIT_BOX, cell_grid_points, memory_owner, node_rhs


def setup_problem(n_points=400, seed=5, d=1e-2, n=2, leaf_target=12,
                  depth=None, kernel=None):
    pts = cube_uniform(n_points, seed=seed).points
    kern = kernel if kernel is not None else benchmark_kernel(d)
    tree, _ = build_octree(pts, leaf_target, depth=depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, n, epsilon=0.0)
    initialize_weights(ops, topo)
    return pts, kern, tree, topo, ops


def reference_solution(ops, tree, b):
    A_h2 = h2_dense(ops)
    xt = np.linalg.solve(A_h2, b[tree.perm])
    x = np.empty_like(xt)
    x[tree.perm] = xt
    return x


@pytest.mark.parametrize("n_points,leaf_target", [(400, 12), (500, 3)])
def test_lossless_matches_h2_dense_solve(n_points, leaf_target):
    pts, kern, tree, topo, ops = setup_problem(n_points, leaf_target=leaf_target)
    graph = assemble_extended_graph(ops)
    fct = factorize(graph, epsilon=1e-13, seed=0)
    b = np.random.default_rng(1).standard_normal(n_points)
    x = fct.solve(b)
    x_ref = reference_solution(ops, tree, b)
    err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
    assert err < 1e-9


def test_truncated_solve_residual_small():
    n_pts = 800
    pts = cube_uniform(n_pts, seed=0).points
    from ifmm.kernels import scaled_d
    kern = benchmark_kernel(scaled_d(1e-3, n_pts, -1 / 3))
    tree, _ = build_octree(pts, 100)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, 4, epsilon=1e-3)
    initialize_weights(ops, topo)
    A = dense_matrix(pts, kern)
    rng = np.random.default_rng(2)
    x_true = rng.standard_normal(n_pts)
    b = A @ x_true
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-3, seed=0)
    x = fct.solve(b)
    res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert res <= 1e-3


def test_single_leaf_tree_is_dense_lu():
    pts, kern, tree, topo, ops = setup_problem(100, depth=0, leaf_target=500)
    graph = assemble_extended_graph(ops)
    fct = factorize(graph, epsilon=1e-3, seed=0)
    b = np.random.default_rng(3).standard_normal(100)
    x = fct.solve(b)
    A = dense_matrix(pts, kern)
    x_ref = np.linalg.solve(A, b)
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-10


def test_solve_zero_rhs():
    pts, kern, tree, topo, ops = setup_problem(200)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-6, seed=0)
    assert np.array_equal(fct.solve(np.zeros(200)), np.zeros(200))


def test_solve_linearity():
    pts, kern, tree, topo, ops = setup_problem(300)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    rng = np.random.default_rng(4)
    b1, b2 = rng.standard_normal((2, 300))
    lhs = fct.solve(1.7 * b1 - 0.3 * b2)
    rhs = 1.7 * fct.solve(b1) - 0.3 * fct.solve(b2)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-10


def test_solve_rejects_bad_shapes():
    ops = setup_problem(200)[-1]
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    for shape in [(199,), (1, 200), (199, 2), (200, 2, 1), ()]:
        with pytest.raises(ValueError,
                           match=r"expected shape \(200,\) or \(200, m\), got"):
            fct.solve(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(bad):
    ops = setup_problem(200)[-1]
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    b = np.ones(200)
    b[17] = bad
    B = np.ones((200, 3))
    B[17, 2] = bad   # in one column of a block only
    for rhs in (b, B):
        with pytest.raises(ValueError, match="finite"):
            fct.solve(rhs)


def test_solve_rejects_complex_rhs():
    # converting to float would drop the imaginary part with only a
    # warning; int and bool right-hand sides are still taken as floats
    ops = setup_problem(200)[-1]
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    for rhs in (np.ones(200) + 1j, np.ones((200, 2), dtype=complex)):
        with pytest.raises(ValueError, match="rhs must be real, got dtype complex128"):
            fct.solve(rhs)
    for shape in ((200,), (200, 2)):
        x = fct.solve(np.ones(shape))
        for dtype in (int, bool):
            np.testing.assert_array_equal(fct.solve(np.ones(shape, dtype=dtype)), x)


@pytest.mark.parametrize("kernel,n_points,leaf_target", [
    (benchmark_kernel(1e-2), 500, 3), (nonsymmetric_kernel(), 500, 3),
    (rpy_kernel(0.05), 300, 4)], ids=["benchmark", "nonsymmetric", "rpy"])
def test_block_solve_matches_columns(kernel, n_points, leaf_target):
    # a (dim, m) block is replayed once, each step on all m columns; it
    # must give the column-by-column solves up to rounding. Depth 3, so
    # the plan holds merges and level-2 steps after compressed fill; the
    # non-symmetric kernel replays its own column-edge arrays, and the RPY
    # kernel has 3x3 blocks
    pts, kern, tree, topo, ops = setup_problem(n_points, leaf_target=leaf_target,
                                               kernel=kernel)
    assert tree.depth == 3
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-6, seed=0)
    assert sum(ls.compressed_pairs for ls in fct.stats.levels) > 0
    B = np.random.default_rng(12).standard_normal((fct.dim, 5))
    X = fct.solve(B)
    assert X.shape == B.shape
    cols = np.column_stack([fct.solve(B[:, j]) for j in range(B.shape[1])])
    assert np.linalg.norm(X - cols) <= 1e-12 * np.linalg.norm(cols)


def test_block_solve_one_column_keeps_its_shape():
    ops = setup_problem(200)[-1]
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    b = np.random.default_rng(13).standard_normal(200)
    x, x1 = fct.solve(b), fct.solve(b[:, None])
    assert x1.shape == (200, 1)
    assert np.linalg.norm(x1[:, 0] - x) <= 1e-12 * np.linalg.norm(x)


def test_block_solve_ignores_memory_order():
    # C- and Fortran-ordered blocks hold the same numbers and give the same
    # bits; the block itself is left as it was
    ops = setup_problem(300)[-1]
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    B = np.random.default_rng(14).standard_normal((300, 4))
    B_f = np.asfortranarray(B)
    B_in = B.copy()
    X = fct.solve(B)
    assert np.array_equal(fct.solve(B_f), X)
    assert np.array_equal(B, B_in) and np.array_equal(B_f, B_in)


def test_multiple_rhs_replay_deterministic():
    pts, kern, tree, topo, ops = setup_problem(250)
    b1, b2 = np.random.default_rng(5).standard_normal((2, 250))

    b1_in = b1.copy()

    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=7)
    x1, x2 = fct.solve(b1), fct.solve(b2)
    # same factorization, repeated solve: bitwise identical, and the
    # right-hand side is left as it was
    assert np.array_equal(fct.solve(b1), x1)
    assert np.array_equal(b1, b1_in)
    # independent factorize with the same seed: bitwise identical
    fct2 = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=7)
    assert np.array_equal(fct2.solve(b1), x1)
    assert np.array_equal(fct2.solve(b2), x2)


def test_fill_classification_matches_brute_force():
    # full 4x4x4 leaf grid; points at cell centers
    pts = cell_grid_points(4)
    rng_pts = np.random.default_rng(0)
    pts = np.repeat(pts, 3, axis=0) + rng_pts.uniform(-0.05, 0.05, (64 * 3, 3))
    tree, _ = build_octree(pts, leaf_target=3, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    kern = benchmark_kernel(0.3)
    ops = chebyshev_operators(tree, topo, kern, 2, epsilon=0.0)
    initialize_weights(ops, topo)
    graph = assemble_extended_graph(ops)

    replay = Replay.for_graph(graph)
    eliminated = set()
    for cid in tree.levels[2][:6]:
        # brute-force prediction: well-separated pairs among the neighbors
        predicted = set()
        for j in topo.neighbors[cid]:
            for k in topo.neighbors[cid]:
                if j < k and not topo.are_neighbors(j, k) \
                        and not (j in eliminated and k in eliminated):
                    predicted.add((j, k))
        stats = LevelStats(2)
        _eliminate_cluster(graph, cid, 1e-13, replay, stats)
        eliminated.add(cid)
        assert stats.compressed_pairs + stats.dropped_pairs == len(predicted)
    # the very first (corner) cluster: all neighbors mutually adjacent
    corner = tree.levels[2][0]
    assert tree.clusters[corner].cell == (0, 0, 0)


def test_first_corner_elimination_has_no_compression():
    pts = cell_grid_points(4)
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    corner = tree.levels[2][0]
    assert tree.clusters[corner].cell == (0, 0, 0)
    # neighbors of the corner cell all lie in {0,1}^3: pairwise adjacent
    for j in topo.neighbors[corner]:
        for k in topo.neighbors[corner]:
            assert topo.are_neighbors(j, k)


def live_dense_solve(graph, rhs, removed_nodes=frozenset()):
    """Oracle: dense solve of the remaining system with node rhs `rhs`;
    a node absent from `rhs` has a zero right-hand side at its current
    size."""
    live = [n for n in range(len(graph.sizes)) if n not in removed_nodes]
    E = graph.dense_matrix(live)
    w = np.linalg.solve(E, np.concatenate(
        [rhs.get(n, np.zeros(graph.sizes[n])) for n in live]))
    out = {}
    pos = 0
    for n in live:
        out[n] = w[pos:pos + graph.sizes[n]]
        pos += graph.sizes[n]
    return out


def assert_reduced_matches_unreduced(base, graph, replay, eliminated, b):
    """The reduced system, with b pushed through `replay`, has the live x
    solution of the unreduced extended system `base`."""
    removed = {n for c in eliminated
               for n in (graph.node_x[c], graph.node_z[c])}
    rhs = {n: r for n, r in node_rhs(base, b).items() if base.kinds[n] == "x"}
    reduced = live_dense_solve(graph, forward_sweep(replay, rhs), removed)
    full = live_dense_solve(base, rhs)
    tree = base.tree
    for cid in tree.levels[tree.depth]:
        if cid in eliminated:
            continue
        nx = base.node_x[cid]
        num = np.linalg.norm(reduced[nx] - full[nx])
        den = np.linalg.norm(full[nx])
        assert num <= 1e-9 * max(den, 1.0)


@pytest.mark.parametrize("kernel", [benchmark_kernel(0.2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_redirect_preserves_schur_system(kernel):
    # eliminating one cluster with compression+redirection must leave a
    # remaining system equivalent to the unreduced one; leaves are kept
    # larger than the interpolation rank so the x-to-x Schur fill is
    # nonzero
    pts, kern, tree, topo, ops = setup_problem(900, leaf_target=40, kernel=kernel)
    b = np.random.default_rng(6).standard_normal(len(pts))
    base = assemble_extended_graph(ops)

    # pick a cluster whose elimination creates well-separated fill
    target = None
    for cid in tree.levels[tree.depth]:
        ns = topo.neighbors[cid]
        if any(not topo.are_neighbors(j, k) for j in ns for k in ns):
            target = cid
            break
    assert target is not None

    g = assemble_extended_graph(ops)
    stats = LevelStats(tree.depth)
    replay = Replay.for_graph(g)
    _eliminate_cluster(g, target, 1e-13, replay, stats)
    assert stats.compressed_pairs > 0
    assert_reduced_matches_unreduced(base, g, replay, {target}, b)


@pytest.mark.parametrize("kernel", [benchmark_kernel(0.2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_elimination_matches_dense_schur_complement(kernel):
    # after one elimination, every edge between neighbor clusters (or
    # within one cluster) among the pivot's neighbor nodes N is the dense
    # Schur complement E_NN - E_Np P^{-1} E_pN of the graph before it;
    # the cluster also has well-separated fill, which is redirected
    pts, kern, tree, topo, ops = setup_problem(900, leaf_target=40, kernel=kernel)
    g = assemble_extended_graph(ops)
    cid = next(c for c in tree.levels[tree.depth]
               if any(not topo.are_neighbors(j, k)
                      for j in topo.neighbors[c] for k in topo.neighbors[c]))
    piv = [g.node_x[cid], g.node_z[cid]]
    N = sorted(set().union(*(g.row_sources[n] | g.col_targets[n] for n in piv))
               - set(piv))
    assert g.node_y[cid] in N
    E = g.dense_matrix(piv + N)
    k = sum(g.sizes[n] for n in piv)
    schur = E[k:, k:] - E[k:, :k] @ np.linalg.solve(E[:k, :k], E[:k, k:])
    off = dict(zip(N, np.cumsum([0] + [g.sizes[n] for n in N])))

    stats = LevelStats(tree.depth)
    _eliminate_cluster(g, cid, 1e-13, Replay.for_graph(g), stats)
    assert stats.compressed_pairs > 0
    checked = 0
    for a in N:
        for b in N:
            ca, cb = g.cluster_of[a], g.cluster_of[b]
            if ca != cb and not topo.are_neighbors(ca, cb):
                continue
            ref = schur[off[a]:off[a] + g.sizes[a], off[b]:off[b] + g.sizes[b]]
            got = g.get_edge(a, b)
            assert got is not None
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            checked += 1
    assert checked > len(N)


@pytest.mark.parametrize("kernel", [benchmark_kernel(0.2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_batched_redirect_matches_dense_over_eliminations(monkeypatch, kernel):
    # several eliminations in Morton order, so later ones redirect fill
    # between a live cluster and an already eliminated one; the remaining
    # system must stay equivalent to the unreduced one
    pts, kern, tree, topo, ops = setup_problem(900, leaf_target=40, kernel=kernel)
    b = np.random.default_rng(11).standard_normal(len(pts))
    base = assemble_extended_graph(ops)
    cids = tree.levels[tree.depth][:12]

    mixed, rebased = [], []
    redirect = ifmm.factor.redirect_fillin
    rebase = ifmm.factor._apply_rebase

    def spy(graph, fills, *args):
        mixed.append(any((ca in graph.eliminated) != (cb in graph.eliminated)
                         for ca, cb in fills))
        return redirect(graph, fills, *args)

    def rebase_spy(graph, c, *args):
        rebased.append(graph.node_y[c])
        return rebase(graph, c, *args)

    monkeypatch.setattr(ifmm.factor, "redirect_fillin", spy)
    monkeypatch.setattr(ifmm.factor, "_apply_rebase", rebase_spy)

    g = assemble_extended_graph(ops)
    stats = LevelStats(tree.depth)
    replay = Replay.for_graph(g)
    for cid in cids:
        rebased.clear()
        widths = {c: len(w) for c, w in g.sigma_u.items()}
        n_ranks = len(stats.ranks)
        _eliminate_cluster(g, cid, 1e-13, replay, stats)
        assert len(rebased) == len(set(rebased))
        # each union records the basis width it adds
        grown = [len(w) - widths[c] for c, w in g.sigma_u.items()
                 if len(w) != widths[c]]
        added = [k for k in stats.ranks[n_ranks:] if k]
        assert sorted(added) == sorted(grown)
    assert stats.compressed_pairs > 0
    assert any(mixed)
    assert stats.max_rank > 0
    assert_reduced_matches_unreduced(base, g, replay, set(cids), b)


def test_factorize_calls_traced_names(monkeypatch):
    # the benchmark's tracer rebinds these module globals of ifmm.factor;
    # each must still exist and be looked up when factorize runs
    names = ["estimate_sigma0", "eliminate_level", "merge_to_parent",
             "redirect_fillin", "weighted_basis_union"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(ifmm.factor, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ifmm.factor, name, counted)
    # the tracer names the span factor.l<level>.eliminate after the second
    # positional argument: it must be the level whose clusters are eliminated
    levels = []
    counted_level = ifmm.factor.eliminate_level

    def level_spy(*args):
        graph, before = args[0], set(args[0].eliminated)
        out = counted_level(*args)
        levels.append((args[1], {graph.tree.clusters[c].level
                                 for c in graph.eliminated - before}))
        return out

    monkeypatch.setattr(ifmm.factor, "eliminate_level", level_spy)
    pts, kern, tree, topo, ops = setup_problem(600, leaf_target=4)
    assert tree.depth >= 3
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-6, seed=0)
    assert all(calls[name] > 0 for name in names), calls
    assert levels == [(lv, {lv}) for lv in range(tree.depth, 1, -1)]
    # one redirection per eliminated cluster
    assert calls["redirect_fillin"] == len(fct.replay.steps)
    # and it reads these from the factor
    timings = dict(fct.timings)
    assert timings and all(isinstance(t, float) and t >= 0
                           for t in timings.values())
    assert [ls.level for ls in fct.stats.levels] == list(range(tree.depth, 1, -1))
    for ls in fct.stats.levels:
        assert isinstance(ls.compressed_pairs, int)
        assert isinstance(ls.dropped_pairs, int)
    assert isinstance(fct.stats.peak_edges, int) and fct.stats.peak_edges > 0
    assert isinstance(fct.stats.max_fill_rank, int)
    assert fct.stats.forced_rank_truncations == 0


def test_nonsymmetric_lossless_matches_h2_dense_solve():
    # leaves larger than the interpolation rank, so that fills are kept
    # and the U- and V-side unions differ
    pts, kern, tree, topo, ops = setup_problem(
        900, leaf_target=40, kernel=nonsymmetric_kernel())
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-13, seed=0)
    assert sum(ls.compressed_pairs for ls in fct.stats.levels) > 0
    b = np.random.default_rng(12).standard_normal(len(pts))
    x = fct.solve(b)
    x_ref = reference_solution(ops, tree, b)
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-9


def test_factorize_without_sigma0_estimate_ignores_seed():
    # elimination draws no random numbers: with sigma0 given, the seed
    # changes nothing
    pts, kern, tree, topo, ops = setup_problem(
        600, leaf_target=4, kernel=nonsymmetric_kernel())
    assert tree.depth >= 3
    b = np.random.default_rng(13).standard_normal(len(pts))
    xs = [factorize(assemble_extended_graph(ops), epsilon=1e-6, seed=seed,
                    sigma0=2.0).solve(b) for seed in (0, 1)]
    assert np.array_equal(xs[0], xs[1])


def test_cluster_unions_equalize_ranks():
    # fill on the U side only: the V side is brought to the same rank, and
    # both old bases stay representable in the new ones (a non-symmetric
    # kernel: a symmetric one takes a single union for both sides)
    pts, kern, tree, topo, ops = setup_problem(400, kernel=nonsymmetric_kernel())
    graph = assemble_extended_graph(ops)
    c = max(tree.leaves(), key=lambda cid: tree.clusters[cid].size)
    nx, nz = graph.node_x[c], graph.node_z[c]
    m, k_old = graph.sizes[nx], graph.sizes[nz]
    assert m >= k_old + 3
    Uc, Vc = graph.get_edge(nx, nz), graph.get_edge(nz, nx).T
    F = np.random.default_rng(14).standard_normal((m, 3))
    bu_u, bu_v = _cluster_unions(graph, c, [F], [], 1e-8)
    assert bu_u.rank == bu_v.rank == k_old + 3
    for bu in (bu_u, bu_v):
        np.testing.assert_allclose(bu.new_basis.T @ bu.new_basis,
                                   np.eye(bu.rank), atol=1e-12)
    np.testing.assert_allclose(bu_u.new_basis @ bu_u.old_map, Uc, atol=1e-10)
    np.testing.assert_allclose(bu_u.new_basis @ bu_u.fillin_map, F, atol=1e-10)
    np.testing.assert_allclose(bu_v.new_basis @ bu_v.old_map, Vc, atol=1e-10)


def test_graph_layout_follows_factorize():
    # factorize resizes (rebases) and adds (merges) nodes after the sigma0
    # estimate has applied the graph; the layout must follow. factorize
    # consumes the graph, so the layout is checked where its first level
    # is eliminated and merged and edges remain
    pts, kern, tree, topo, ops = setup_problem(500)
    graph = assemble_extended_graph(ops)
    sigma0 = estimate_sigma0(graph, seed=0)
    sizes = list(graph.sizes)
    replay = Replay.for_graph(graph)
    eliminate_level(graph, tree.depth, 1e-6 * sigma0, replay)
    merge_to_parent(graph, tree.depth, replay)
    assert len(graph.sizes) > len(sizes)
    assert graph.sizes[:len(sizes)] != sizes
    assert graph.dim == sum(graph.sizes)
    E = graph.dense_matrix()
    assert E.shape == (graph.dim, graph.dim)
    assert graph.apply(np.ones(graph.dim)).shape == (graph.dim,)
    # a node subset is assembled in the given order
    off = np.cumsum([0] + graph.sizes)
    with_edges = sorted({n for edge in graph.edges for n in edge})
    assert with_edges
    for nodes in (with_edges, with_edges[::-1]):
        idx = np.concatenate([np.arange(off[t], off[t + 1]) for t in nodes])
        assert np.array_equal(graph.dense_matrix(nodes), E[np.ix_(idx, idx)])

    graph = assemble_extended_graph(ops)
    factorize(graph, epsilon=1e-6, seed=0)
    assert graph.num_edges == 0


def reachable_arrays(root) -> list[np.ndarray]:
    """Every numpy array reachable from `root` through containers and
    object attributes."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(
                obj, (str, bytes, int, float, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__slots__"):
            stack.extend(getattr(obj, s) for s in obj.__slots__ if hasattr(obj, s))
    return found


@pytest.mark.parametrize("kernel", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_factorize_leaves_borrowed_operator_blocks_unchanged(kernel):
    # the graph borrows the operator blocks: no edge update
    # may write one in place, so the operators are bitwise unchanged and a
    # second graph from them gives the same solve (depth 3: merges run;
    # depth 0: the top-level system is the caller's near block). The
    # factor keeps none of them, nor any view into the shared near rows
    # and coupling stacks, which would keep a whole stack alive.
    names = ("leaf_u", "leaf_v", "transfer_u", "transfer_vt", "sigma_u", "sigma_v")

    def storage(ops):
        return ([row.block for row in ops.near_rows]
                + [g.blocks for lev in ops.coupling_levels for g in lev.groups])

    for n_points, leaf_target, depth in [(500, 3, None), (100, 500, 0)]:
        pts, kern, tree, topo, ops = setup_problem(
            n_points, leaf_target=leaf_target, depth=depth, kernel=kernel)
        assert tree.depth >= 3 if depth is None else tree.depth == depth
        if depth == 0:  # Fortran-ordered, LAPACK could factor it in place
            (root,) = ops.near_rows
            root.block = np.asfortranarray(root.block)
        before = {f: {k: v.copy() for k, v in getattr(ops, f).items()}
                  for f in names}
        stored = [a.copy() for a in storage(ops)]
        assert len(stored) > len(ops.near_rows) if depth is None else len(stored) == 1
        b = np.random.default_rng(15).standard_normal(len(pts))
        operator_owners = {id(memory_owner(a)) for a in reachable_arrays(
            [getattr(ops, f) for f in names] + [ops.near_rows, ops.coupling_levels])}
        xs = []
        for _ in range(2):
            fct = factorize(assemble_extended_graph(ops), epsilon=1e-6, seed=0)
            assert not any(id(memory_owner(a)) in operator_owners
                           for a in reachable_arrays(fct))
            xs.append(fct.solve(b))
            for f in names:
                after = getattr(ops, f)
                assert after.keys() == before[f].keys()
                assert all(np.array_equal(after[k], v)
                           for k, v in before[f].items()), f
            assert all(np.array_equal(a, v) for a, v in zip(storage(ops), stored,
                                                            strict=True))
        assert np.array_equal(xs[0], xs[1])


def test_no_edges_between_well_separated_x_nodes():
    pts, kern, tree, topo, ops = setup_problem(500, leaf_target=4, d=0.2)
    graph = assemble_extended_graph(ops)
    replay = Replay.for_graph(graph)
    stats = eliminate_level(graph, tree.depth, 1e-4, replay)
    for (t, s) in graph.edges:
        ct, cs = graph.cluster_of[t], graph.cluster_of[s]
        if tree.clusters[ct].level == tree.clusters[cs].level \
                and graph.kinds[t] == "x" and graph.kinds[s] == "x":
            assert topo.are_neighbors(ct, cs)


def test_merge_single_child_is_relabeling():
    # 8 corner points at depth 3: every level-2 parent has one child
    pts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                    for z in (0.0, 1.0)])
    tree, _ = build_octree(pts, leaf_target=1, depth=3, root_box=UNIT_BOX)
    assert all(len(tree.clusters[p].children) == 1 for p in tree.levels[2])
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, benchmark_kernel(0.1), 2)
    initialize_weights(ops, topo)
    graph = assemble_extended_graph(ops)
    replay = Replay.for_graph(graph)
    eliminate_level(graph, 3, 1e-12, replay)
    snapshot = {}
    for pid in tree.levels[2]:
        cy = graph.node_y[tree.clusters[pid].children[0]]
        snapshot[pid] = {s: blk.copy() for (t, s), blk in graph.edges.items()
                         if t == cy}
    merge_to_parent(graph, 3, replay)
    for pid in tree.levels[2]:
        px = graph.node_x[pid]
        cy = graph.node_y[tree.clusters[pid].children[0]]
        for s, blk in snapshot[pid].items():
            src = graph.node_x[tree.clusters[graph.cluster_of[s]].parent] \
                if graph.kinds[s] == "y" else s
            np.testing.assert_array_equal(graph.get_edge(px, src), blk)


def test_merge_tiling_and_sizes():
    pts, kern, tree, topo, ops = setup_problem(600, leaf_target=4)
    assert tree.depth >= 3
    graph = assemble_extended_graph(ops)
    replay = Replay.for_graph(graph)
    eliminate_level(graph, tree.depth, 1e-12, replay)
    L = tree.depth
    snapshot = {(t, s): blk.copy() for (t, s), blk in graph.edges.items()
                if graph.kinds[t] == "y" and graph.kinds[s] == "y"
                and tree.clusters[graph.cluster_of[t]].level == L
                and tree.clusters[graph.cluster_of[s]].level == L}
    y_sizes = {c: graph.sizes[graph.node_y[c]] for c in tree.levels[L]}
    merge_to_parent(graph, L, replay)

    for pid in tree.levels[L - 1]:
        px = graph.node_x[pid]
        kids = tree.clusters[pid].children
        assert graph.sizes[px] == sum(y_sizes[c] for c in kids)
    # tiling: each child-pair block lands at its offset in the parent block
    for (t, s), blk in snapshot.items():
        ci, cj = graph.cluster_of[t], graph.cluster_of[s]
        pi, pj = tree.clusters[ci].parent, tree.clusters[cj].parent
        big = graph.get_edge(graph.node_x[pi], graph.node_x[pj])
        assert big is not None
        oi = sum(y_sizes[c] for c in tree.clusters[pi].children[
            :tree.clusters[pi].children.index(ci)])
        oj = sum(y_sizes[c] for c in tree.clusters[pj].children[
            :tree.clusters[pj].children.index(cj)])
        np.testing.assert_array_equal(
            big[oi:oi + blk.shape[0], oj:oj + blk.shape[1]], blk)


def test_rpy_lossless():
    pts = cube_uniform(120, seed=8).points * 3.0
    kern = rpy_kernel(0.05)
    tree, _ = build_octree(pts, leaf_target=8)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, 2, epsilon=0.0)
    initialize_weights(ops, topo)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-13, seed=0)
    b = np.random.default_rng(9).standard_normal(360)
    x = fct.solve(b)
    A_h2 = h2_dense(ops)
    xt = np.linalg.solve(A_h2, b.reshape(-1, 3)[tree.perm].ravel())
    x_ref = np.empty_like(xt).reshape(-1, 3)
    x_ref[tree.perm] = xt.reshape(-1, 3)
    err = np.linalg.norm(x - x_ref.ravel()) / np.linalg.norm(xt)
    assert err < 1e-9


def test_singular_pivot_detected():
    def block(P, Q):
        return np.zeros((len(P), len(Q)))

    kern = Kernel("zero", 1, {}, block)
    pts = cube_uniform(200, seed=10).points
    tree, _ = build_octree(pts, leaf_target=20)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, 1)
    initialize_weights(ops, topo)
    graph = assemble_extended_graph(ops)
    with warnings.catch_warnings(record=True) as caught:  # the error alone reports
        warnings.simplefilter("always")
        with pytest.raises(SingularPivotError):
            factorize(graph, epsilon=1e-3, seed=0)
    assert [str(w.message) for w in caught] == []


def test_dropped_fill_means_no_rebase(monkeypatch):
    # with a huge epsilon every well-separated fill is dropped and no
    # basis union runs
    unions = []
    union = ifmm.factor.weighted_basis_union

    def spy(*args, **kwargs):
        unions.append(1)
        return union(*args, **kwargs)

    monkeypatch.setattr(ifmm.factor, "weighted_basis_union", spy)
    pts, kern, tree, topo, ops = setup_problem(300, leaf_target=6)
    graph = assemble_extended_graph(ops)
    fct = factorize(graph, epsilon=0.9, seed=0)
    assert unions == []
    assert all(ls.compressed_pairs == 0 for ls in fct.stats.levels)


@pytest.mark.parametrize("kernel", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_dropped_mass_within_threshold(kernel):
    # every dropped fill has ||F||_F <= threshold, and a dropped pair has at
    # most two: F(a, b) and F(b, a), which on a symmetric graph is a mirror
    pts, kern, tree, topo, ops = setup_problem(500, leaf_target=3, kernel=kernel)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    threshold = fct.epsilon * fct.sigma0
    assert any(ls.dropped_pairs for ls in fct.stats.levels)
    for ls in fct.stats.levels:
        if ls.dropped_pairs:
            assert 0 < ls.dropped_mass <= threshold * np.sqrt(2 * ls.dropped_pairs)
        else:
            assert ls.dropped_mass == 0.0


def test_edge_counter_tracks_peak():
    pts, kern, tree, topo, ops = setup_problem(400, leaf_target=8)
    graph = assemble_extended_graph(ops)
    initial = graph.num_edges
    fct = factorize(graph, epsilon=1e-4, seed=0)
    assert fct.stats.peak_edges >= initial
    assert fct.stats.peak_edges <= 400 * tree.n_clusters
    assert fct.stats.n_clusters == tree.n_clusters


def test_fillin_decay_dichotomy():
    # singular values of well-separated fill decay faster than neighbor
    # fill of comparable size: smaller retained rank at the same threshold
    import scipy.linalg as sla
    from ifmm.graph import estimate_sigma0

    pts, kern, tree, topo, ops = setup_problem(1200, leaf_target=50, d=0.3)
    graph = assemble_extended_graph(ops)
    sigma0 = estimate_sigma0(graph)
    eps = 1e-3

    k_near, k_far = [], []
    for cid in tree.levels[tree.depth][:10]:
        nx, nz = graph.node_x[cid], graph.node_z[cid]
        D = graph.get_edge(nx, nx)
        U = graph.get_edge(nx, nz)
        Vt = graph.get_edge(nz, nx)
        kz = U.shape[1]
        P = np.block([[D, U], [Vt, np.zeros((kz, kz))]])
        lu = sla.lu_factor(P)
        others = [b for b in graph.row_sources[nx] if b != nz]
        for bnode in others:
            Eb = graph.get_edge(nx, bnode)
            X = sla.lu_solve(lu, np.vstack([Eb, np.zeros((kz, Eb.shape[1]))]))
            for anode in graph.col_targets[nx]:
                if anode in (nz, bnode):
                    continue
                F = -(graph.get_edge(anode, nx) @ X[:D.shape[0]])
                if min(F.shape) < 10:
                    continue
                s = np.linalg.svd(F, compute_uv=False)
                k_eps = np.sum(s > eps * sigma0) / min(F.shape)
                ca, cb = graph.cluster_of[anode], graph.cluster_of[bnode]
                if ca == cb:
                    continue
                (k_near if topo.are_neighbors(ca, cb) else k_far).append(k_eps)
    assert len(k_near) > 5 and len(k_far) > 5
    assert np.mean(k_far) < np.mean(k_near)


def test_factorize_rejects_bad_epsilon():
    pts, kern, tree, topo, ops = setup_problem(100, leaf_target=50)
    graph = assemble_extended_graph(ops)
    with pytest.raises(ValueError):
        factorize(graph, epsilon=0.0)


@pytest.mark.parametrize("depth", [0, 2])
def test_factorize_rejects_consumed_graph(depth):
    # factorize pops every edge: a second call names the fault instead of
    # failing on a missing edge
    pts, kern, tree, topo, ops = setup_problem(200, leaf_target=10, depth=depth)
    graph = assemble_extended_graph(ops)
    factorize(graph, epsilon=1e-6, seed=0)
    with pytest.raises(ValueError, match="already factorized"):
        factorize(graph, epsilon=1e-6, seed=0)


@pytest.mark.parametrize("sigma0", [np.nan, np.inf, -1.0, 0.0])
def test_factorize_rejects_bad_sigma0(sigma0):
    # nan or inf would drop every well-separated fill, and a sigma0 <= 0
    # would keep every one
    pts, kern, tree, topo, ops = setup_problem(100, leaf_target=50)
    graph = assemble_extended_graph(ops)
    with pytest.raises(ValueError, match="sigma0"):
        factorize(graph, epsilon=1e-6, sigma0=sigma0)


@pytest.mark.parametrize("kernel", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_rebased_multipole_rows_have_zero_rhs(monkeypatch, kernel):
    # the solve keeps no record of a rebase: when a cluster's basis widens,
    # no step so far may have written its y node's right-hand side or read
    # its solution. Stronger: the node has no segment yet, so its first
    # step, which fixes its segment, sees its final size
    logs, checked = [], []
    eliminate, rebase = ifmm.factor.eliminate_level, ifmm.factor._apply_rebase

    def level_spy(graph, level, threshold, replay):
        logs.append(replay)
        return eliminate(graph, level, threshold, replay)

    def rebase_spy(graph, c, *args):
        ny = graph.node_y[c]
        assert ny not in logs[-1].segments
        checked.append(ny)
        return rebase(graph, c, *args)

    monkeypatch.setattr(ifmm.factor, "eliminate_level", level_spy)
    monkeypatch.setattr(ifmm.factor, "_apply_rebase", rebase_spy)
    pts, kern, tree, topo, ops = setup_problem(500, leaf_target=3, kernel=kernel)
    assert tree.depth == 3
    factorize(assemble_extended_graph(ops), epsilon=1e-10, seed=0)
    assert len(logs) == 2 and logs[0] is logs[1]
    assert checked


@pytest.mark.parametrize("kernel", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["benchmark", "nonsymmetric"])
def test_symmetric_kernel_factors_one_side(monkeypatch, kernel):
    # a symmetric kernel keeps the graph exactly symmetric through every
    # elimination, rebase and merge: mirrored edges, U = V and one set of
    # weights per cluster, elimination steps that keep one side, and one
    # record per well-separated fill: never both F(a, b) and F(b, a)
    symmetric = kernel.symmetric
    checked, rebased, fill_keys = [], [], []
    eliminate, rebase = ifmm.factor.eliminate_level, ifmm.factor._apply_rebase
    redirect = ifmm.factor.redirect_fillin

    def assert_u_equals_v(graph, c):
        assert np.array_equal(graph.sigma_u[c], graph.sigma_v[c])
        if c in graph.node_x:
            nx, nz = graph.node_x[c], graph.node_z[c]
            assert np.array_equal(graph.get_edge(nx, nz),
                                  graph.get_edge(nz, nx).T)

    def assert_symmetric(graph):
        for (a, b), blk in graph.edges.items():
            if a != b:
                assert np.array_equal(blk, graph.edges[(b, a)].T)
        for c in graph.node_z:
            if c not in graph.eliminated:
                assert_u_equals_v(graph, c)
        checked.append(graph.num_edges)

    def level_spy(graph, level, *args):
        if symmetric:
            assert_symmetric(graph)
        out = eliminate(graph, level, *args)
        if symmetric:
            assert_symmetric(graph)
        return out

    def rebase_spy(graph, c, *args):
        out = rebase(graph, c, *args)
        if symmetric:
            assert_u_equals_v(graph, c)
        rebased.append(c)
        return out

    def redirect_spy(graph, fills, *args):
        fill_keys.append(set(fills))
        return redirect(graph, fills, *args)

    monkeypatch.setattr(ifmm.factor, "eliminate_level", level_spy)
    monkeypatch.setattr(ifmm.factor, "_apply_rebase", rebase_spy)
    monkeypatch.setattr(ifmm.factor, "redirect_fillin", redirect_spy)
    pts, kern, tree, topo, ops = setup_problem(500, leaf_target=3, kernel=kernel)
    assert tree.depth == 3
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-10, seed=0)
    assert len(checked) == (4 if symmetric else 0)
    assert rebased
    assert any(fill_keys)
    mirrored = any((b, a) in keys for keys in fill_keys for a, b in keys)
    assert mirrored == (not symmetric)
    assert fct.replay.steps
    for st in fct.replay.steps:
        # the row edges side by side, one column block per source
        sx = st.xs.stop - st.xs.start
        assert st.rows.shape == (sx, len(st.src))
        if symmetric:
            # the column edges are the rows, transposed
            assert st.tgt is st.src and st.fwd.base is st.rows
        else:
            assert st.fwd.shape == (len(st.tgt), sx)


@pytest.mark.parametrize("kernel,depth", [
    (benchmark_kernel(1e-2), None), (nonsymmetric_kernel(), None),
    (benchmark_kernel(1e-2), 1)], ids=["benchmark", "nonsymmetric", "depth1"])
def test_compiled_replay_layout(kernel, depth):
    # the solve replays the plan on one vector: the leaf x segments tile
    # [0, dim) in the permuted point order, every y node gets a segment of
    # its own at its elimination, and a merge adds none: a parent's x
    # segment is the run of its children's segments, in child order. The
    # plan holds one elimination per cluster below level 1, whose gathers
    # take whole segments, each once, and never touch its own x or y rows
    pts, kern, tree, topo, ops = setup_problem(500, leaf_target=3, kernel=kernel,
                                               depth=depth)
    assert tree.depth == (3 if depth is None else depth)
    graph = assemble_extended_graph(ops)
    fct = factorize(graph, epsilon=1e-10, seed=0)
    replay, bd = fct.replay, fct.block_dim
    parents = [c for c in range(tree.n_clusters) if tree.clusters[c].children]
    parent_nodes = {graph.node_x[p] for p in parents}

    def kid_node(c):
        return graph.node_y[c] if c in graph.node_y else graph.node_x[c]

    owner = np.full(replay.size, -1)
    for node, seg in replay.segments.items():
        if node not in parent_nodes:
            assert np.all(owner[seg] == -1), f"segment of node {node} overlaps"
            owner[seg] = node
    for c in tree.leaves():
        cl = tree.clusters[c]
        assert replay.segments[graph.node_x[c]] == slice(cl.start * bd, cl.stop * bd)
    at = np.arange(replay.size)
    for p in parents:
        np.testing.assert_array_equal(
            at[replay.segments[graph.node_x[p]]],
            np.concatenate([at[replay.segments[kid_node(c)]]
                            for c in tree.clusters[p].children]))
    if tree.depth <= 1:
        assert replay.segments[fct.root] == slice(0, fct.dim)
    eliminated = [c for level in tree.levels[2:] for c in level]
    assert replay.size == fct.dim + sum(graph.sizes[graph.node_y[c]]
                                        for c in eliminated)

    def assert_whole_segments(idx):
        if len(idx) == 0:
            return
        nodes = owner[idx]
        runs = nodes[np.r_[0, np.flatnonzero(np.diff(nodes)) + 1]]
        assert len(set(runs)) == len(runs)
        np.testing.assert_array_equal(idx, np.concatenate(
            [at[replay.segments[n]] for n in runs]))

    assert len(replay.steps) == len(eliminated)
    assert all(type(st) is _ElimStep for st in replay.steps)
    for st in replay.steps:
        own = np.r_[at[st.xs], at[st.ys]]
        for idx in (st.src, st.tgt):
            assert_whole_segments(idx)
            assert not np.isin(idx, own).any()

    b = np.random.default_rng(13).standard_normal(len(pts))
    x = fct.solve(b)
    x_ref = reference_solution(ops, tree, b)
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-9
