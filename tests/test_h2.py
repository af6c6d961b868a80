import numpy as np
import pytest

from ifmm import h2
from ifmm.dense import dense_matrix
from ifmm.graph import ExtendedGraph, assemble_extended_graph, estimate_sigma0, h2_dense
from ifmm.h2 import chebyshev_operators, initialize_weights
from ifmm.kernels import Kernel, benchmark_kernel, cube_uniform, nonsymmetric_kernel
from ifmm.tree import build_octree, compute_topology

from conftest import UNIT_BOX, cell_grid_points, memory_owner, node_rhs


def make_ops(points, kernel, n, leaf_target=10, epsilon=0.0, depth=None):
    tree, _ = build_octree(points, leaf_target, depth=depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kernel, n, epsilon=epsilon)
    initialize_weights(ops, topo)
    return tree, topo, ops


def coupling_views(ops):
    """(i, j) -> coupling block for every pair, mirrors included: views of
    the level stacks."""
    return {key: K for lev in ops.coupling_levels for key, K in lev.views()}


def constant_kernel(value=1.0):
    def block(P, Q):
        return np.full((len(P), len(Q)), value)
    return Kernel("constant", 1, {"value": value}, block)


def test_n_equal_one_gives_rank_one_factors():
    pts = cube_uniform(200, seed=0).points
    tree, topo, ops = make_ops(pts, benchmark_kernel(1e-2), n=1)
    assert all(k == 1 for k in ops.rank.values())


def test_far_block_error_decreases_with_n():
    # two well-separated leaves, 5 points each
    rng = np.random.default_rng(0)
    p1 = rng.uniform(0.0, 0.1, (5, 3))
    p2 = rng.uniform(0.9, 1.0, (5, 3)) * np.array([1.0, 0.1, 0.1]) + \
        np.array([0.0, 0.0, 0.0])
    kern = benchmark_kernel(0.05)
    errs = []
    for n in (2, 3):
        # interpolate each block on its own cell
        from ifmm.h2 import _grid, _interp_matrix
        c1, h1 = np.array([0.05, 0.05, 0.05]), 0.05
        c2 = p2.mean(axis=0)
        h2w = max(np.abs(p2 - c2).max(), 0.05)
        A = kern.block(p1, p2)
        P1 = _interp_matrix(p1, c1, h1, n)
        P2 = _interp_matrix(p2, c2, h2w, n)
        Kc = kern.block(_grid(c1, h1, n), _grid(c2, h2w, n))
        err = np.linalg.norm(A - P1 @ Kc @ P2.T, 2) / np.linalg.norm(A, 2)
        errs.append(err)
    assert errs[1] < errs[0]


def test_constant_kernel_exact_for_any_n():
    pts = cube_uniform(150, seed=1).points
    kern = constant_kernel(1.0)
    for n in (1, 2):
        tree, topo, ops = make_ops(pts, kern, n=n)
        A_h2 = h2_dense(ops)
        A = kern.block(tree.points, tree.points)
        assert np.linalg.norm(A_h2 - A) / np.linalg.norm(A) < 1e-12


def test_h2_matvec_error_tracks_construction_error():
    pts = cube_uniform(1000, seed=2).points
    kern = benchmark_kernel(1e-2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    prev = None
    for n in (2, 3, 4):
        tree, topo, ops = make_ops(pts, kern, n=n, leaf_target=50)
        A = dense_matrix(pts, kern)
        from ifmm.krylov import h2_matvec
        err = np.linalg.norm(h2_matvec(ops, x) - A @ x) / np.linalg.norm(A @ x)
        block_err = np.linalg.norm(h2_dense(ops) - dense_matrix(tree.points, kern)) \
            / np.linalg.norm(A)
        assert err <= 2 * block_err + 1e-14
        if prev is not None:
            assert err < prev
        prev = err


def test_weights_single_interaction_rank_one():
    # hand-built operators: one pair with a rank-1 coupling
    pts = cell_grid_points(4)
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    kern = benchmark_kernel(0.05)
    ops = chebyshev_operators(tree, topo, kern, n=2)
    # pick a cluster and overwrite its couplings, in the level stack, with
    # a rank-1 matrix; a symmetric pair's reverse block is the same memory
    coupling = coupling_views(ops)
    cid = next(c for c in tree.levels[2] if len(topo.interactions[c]) > 0)
    keep = topo.interactions[cid][0]
    rng = np.random.default_rng(0)
    for q in topo.interactions[cid]:
        coupling[(cid, q)][...] = 0.0
        assert not coupling[(q, cid)].any()
    u = rng.standard_normal(ops.rank[cid])
    v = rng.standard_normal(ops.rank[keep])
    sigma = 2.5
    K = sigma * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    coupling[(cid, keep)][...] = K
    np.testing.assert_array_equal(coupling[(keep, cid)], K.T)
    initialize_weights(ops, topo)
    ref = np.linalg.svd(np.hstack([coupling[(cid, q)]
                                   for q in topo.interactions[cid]]),
                        compute_uv=False)
    assert ops.sigma_u[cid][0] == pytest.approx(sigma)
    assert ops.sigma_u[cid][0] == pytest.approx(ref[0])


@pytest.mark.parametrize("kern", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["symmetric", "nonsymmetric"])
def test_blocks_are_views_of_compiled_storage(kern):
    # every near and coupling block lives in its leaf row or level stack,
    # once per unordered pair for a symmetric kernel: a mirror is the
    # transposed view of the same memory. A symmetric kernel's V side is
    # its U side (at depth 3 through the transfers too); a non-symmetric
    # kernel's is its own
    pts = cube_uniform(1000, seed=4).points
    for depth in (3, 2):
        tree, topo, ops = make_ops(pts, kern, n=2, leaf_target=4, depth=depth)
        assert_compiled_storage(kern, ops)
        sides = ([(ops.leaf_v[c], ops.leaf_u[c]) for c in tree.leaves()]
                 + [(ops.transfer_vt[c], ops.transfer_u[c].T)
                    for c in ops.transfer_u]
                 + [(ops.sigma_v[c], ops.sigma_u[c]) for c in ops.sigma_u])
        assert bool(ops.transfer_u) == (depth == 3)
        for V, U in sides:
            assert np.shares_memory(V, U) == kern.symmetric
            if kern.symmetric:
                assert np.array_equal(V, U)


def assert_compiled_storage(kern, ops):
    # the graph's near (x-x) and coupling (y-y) edges are views of the rows
    # and stacks, one block per unordered pair for a symmetric kernel
    graph = assemble_extended_graph(ops)
    coupling_stacks = [g.blocks for lev in ops.coupling_levels for g in lev.groups]
    for kind, storage in (("x", [r.block for r in ops.near_rows]),
                          ("y", coupling_stacks)):
        blocks = {(t, s): B for (t, s), B in graph.edges.items()
                  if graph.kinds[t] == graph.kinds[s] == kind}
        assert blocks
        assert all(memory_owner(s) is s for s in storage)
        owners = {id(s) for s in storage}
        assert all(id(memory_owner(B)) in owners for B in blocks.values())
        stored = [B for (i, j), B in blocks.items() if i <= j or not kern.symmetric]
        starts = {B.__array_interface__["data"][0] for B in blocks.values()}
        assert len(starts) == len(stored)
        assert sum(s.nbytes for s in storage) == sum(B.nbytes for B in stored)
        if kern.symmetric:
            for (i, j), B in blocks.items():
                assert np.shares_memory(B, blocks[(j, i)])
                assert np.array_equal(B, blocks[(j, i)].T)


def test_weights_empty_interaction_list_unit():
    # 8 corner points: every pair of level-2 clusters is in a neighbor or
    # coarser relation through parents; interaction lists are empty
    pts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                    for z in (0.0, 1.0)])
    tree, _ = build_octree(pts, leaf_target=1)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, benchmark_kernel(0.1), n=2)
    initialize_weights(ops, topo)
    for c in tree.levels[2]:
        if not topo.interactions[c]:
            np.testing.assert_array_equal(ops.sigma_u[c],
                                          np.ones(ops.rank[c]))


@pytest.mark.parametrize("kern", [benchmark_kernel(0.05), nonsymmetric_kernel()],
                         ids=["symmetric", "nonsymmetric"])
def test_weights_complete_rotation_for_narrow_couplings(kern):
    # hand-built operators: eight points in one corner cell and a single
    # point, of rank 1, in the far cell of the same row, so the corner
    # cluster's concatenated couplings have fewer columns than its rank
    # and its rotations must be completed to k x k
    cells = {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
             (1, 1, 0), (1, 1, 1), (6, 0, 0)}
    pts = cell_grid_points(8, occupied=cells)
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, n=2)
    corner = max(tree.levels[2], key=lambda c: ops.rank[c])
    width = sum(ops.rank[q] for q in topo.interactions[corner])
    assert 0 < width < ops.rank[corner]
    before = h2_dense(ops)
    initialize_weights(ops, topo)
    for c in tree.levels[2]:
        for B in (ops.leaf_u[c], ops.leaf_v[c]):
            assert B.shape[1] == ops.rank[c]
            np.testing.assert_allclose(B.T @ B, np.eye(ops.rank[c]), atol=1e-12)
        assert len(ops.sigma_u[c]) == len(ops.sigma_v[c]) == ops.rank[c]
    after = h2_dense(ops)
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)


def test_graph_no_far_field_reduces_to_near():
    # tiny point set: all level-2 clusters mutually adjacent, no K edges
    pts = cell_grid_points(2) * 0.2 + 0.4   # 8 points huddled at the center
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    kern = benchmark_kernel(0.1)
    ops = chebyshev_operators(tree, topo, kern, n=2)
    initialize_weights(ops, topo)
    assert not any(lev.groups for lev in ops.coupling_levels)
    graph = assemble_extended_graph(ops)
    b = np.random.default_rng(0).standard_normal(8)
    E = graph.dense_matrix()
    w = np.linalg.solve(E, np.concatenate(list(node_rhs(graph, b).values())))
    S = kern.block(tree.points, tree.points)
    x_ref = np.linalg.solve(S, b[tree.perm])
    np.testing.assert_allclose(w[:8], x_ref, rtol=1e-10)


def test_extended_solve_matches_h2_dense_solve():
    pts = cube_uniform(400, seed=5).points
    kern = benchmark_kernel(1e-2)
    tree, topo, ops = make_ops(pts, kern, n=2, leaf_target=12)
    graph = assemble_extended_graph(ops)
    b = np.random.default_rng(1).standard_normal(400)
    E = graph.dense_matrix()
    w = np.linalg.solve(E, np.concatenate(list(node_rhs(graph, b).values())))
    A_h2 = h2_dense(ops)
    x_ref = np.linalg.solve(A_h2, b[tree.perm])
    np.testing.assert_allclose(w[:400], x_ref, atol=1e-9 * np.abs(x_ref).max())


def test_graph_pattern_symmetric_for_symmetric_kernel():
    pts = cube_uniform(250, seed=6).points
    tree, topo, ops = make_ops(pts, benchmark_kernel(1e-2), n=2)
    graph = assemble_extended_graph(ops)
    for (t, s), blk in graph.edges.items():
        rev = graph.get_edge(s, t)
        assert rev is not None
        np.testing.assert_allclose(blk, rev.T, atol=1e-12)


@pytest.mark.parametrize("kern", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["symmetric", "nonsymmetric"])
def test_graph_stores_each_edge_once(kern, monkeypatch):
    # assembly sets each stored operator block once and set_edge makes the
    # mirrors, so no edge of a fresh graph is stored twice
    tree, topo, ops = make_ops(cube_uniform(1000, seed=4).points, kern, n=2,
                               leaf_target=4, depth=3)
    stores = []
    store = ExtendedGraph._store

    def counted(self, t, s, block):
        stores.append((t, s))
        store(self, t, s, block)

    monkeypatch.setattr(ExtendedGraph, "_store", counted)
    graph = assemble_extended_graph(ops)
    assert len(stores) == graph.num_edges


def test_one_dimensional_arrangement_edge_counts():
    # points along a line: the classic multilevel chain structure
    rng = np.random.default_rng(7)
    t = np.linspace(0.02, 0.98, 160)
    pts = np.column_stack([t, 0.5 + 1e-4 * rng.standard_normal(160),
                           0.5 + 1e-4 * rng.standard_normal(160)])
    tree, _ = build_octree(pts, leaf_target=20, depth=3,
                           root_box=UNIT_BOX)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, benchmark_kernel(0.01), n=2)
    initialize_weights(ops, topo)
    graph = assemble_extended_graph(ops)
    pattern = graph.sparsity_pattern()
    kind_of = {n["id"]: n["kind"] for n in pattern["nodes"]}
    counts = {}
    for tgt, src in pattern["edges"]:
        key = (kind_of[tgt], kind_of[src])
        counts[key] = counts.get(key, 0) + 1
    n_xx = sum(len(topo.neighbors[c]) for c in tree.leaves())
    n_k = sum(len(topo.interactions[c])
              for level in range(2, tree.depth + 1)
              for c in tree.levels[level])
    n_aux = sum(len(tree.levels[level]) for level in range(2, tree.depth + 1))
    n_transfer = sum(len(tree.levels[level])
                     for level in range(3, tree.depth + 1))
    assert counts[("x", "x")] == n_xx
    assert counts[("x", "z")] == len(tree.leaves())
    assert counts[("z", "x")] == len(tree.leaves())
    assert counts[("y", "y")] == n_k
    assert counts[("z", "y")] == n_aux + n_transfer  # -I plus V transfers
    assert counts[("y", "z")] == n_aux + n_transfer  # -I plus U transfers


def test_estimate_sigma0_diagonal():
    scale = 3.0

    def block(P, Q):
        from scipy.spatial.distance import cdist
        r = cdist(P, Q)
        return np.where(r == 0.0, scale, 0.0)

    kern = Kernel("diag", 1, {}, block)
    pts = cube_uniform(40, seed=0).points
    tree, _ = build_octree(pts, leaf_target=100, depth=0)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, n=1)
    initialize_weights(ops, topo)
    graph = assemble_extended_graph(ops)
    est = estimate_sigma0(graph)
    assert est == pytest.approx(scale, rel=0.1)


def test_estimate_sigma0_matches_power_method():
    pts = cube_uniform(400, seed=8).points
    tree, topo, ops = make_ops(pts, benchmark_kernel(1e-2), n=2, leaf_target=20)
    graph = assemble_extended_graph(ops)
    est = estimate_sigma0(graph, seed=3)
    E = graph.dense_matrix()
    ref = np.linalg.norm(E, 2)
    assert est == pytest.approx(ref, rel=0.1)


def test_estimate_sigma0_scales_linearly():
    # scales where the kernel part dominates the -I couplings of E
    pts = cube_uniform(200, seed=9).points
    ests = []
    for scale in (10.0, 100.0):
        def block(P, Q, s=scale):
            return s * benchmark_kernel(1e-2).block(P, Q)
        kern = Kernel("scaled", 1, {}, block)
        tree, topo, ops = make_ops(pts, kern, n=2, leaf_target=20)
        graph = assemble_extended_graph(ops)
        ests.append(estimate_sigma0(graph, seed=0))
    assert ests[1] / ests[0] == pytest.approx(10.0, rel=0.1)


def test_assemble_requires_weights():
    pts = cube_uniform(100, seed=0).points
    tree, _ = build_octree(pts, leaf_target=10)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, benchmark_kernel(1e-2), n=2)
    with pytest.raises(ValueError):
        assemble_extended_graph(ops)


@pytest.mark.parametrize("epsilon", [-1e-3, 1.0, 2.0, np.nan, np.inf])
def test_chebyshev_operators_rejects_bad_epsilon(epsilon):
    # an epsilon of 1 or more (or nan) would reduce every basis to rank 1
    pts = cube_uniform(100, seed=0).points
    tree, _ = build_octree(pts, leaf_target=10)
    topo = compute_topology(tree)
    with pytest.raises(ValueError, match="epsilon"):
        chebyshev_operators(tree, topo, benchmark_kernel(1e-2), n=2,
                            epsilon=epsilon)


def test_nonsymmetric_kernel_h2_matches_dense():
    # both blocks of every coupling and near pair are evaluated, so the
    # represented matrix is the kernel's own, not its symmetric part
    kern = nonsymmetric_kernel()
    pts = cube_uniform(600, seed=3).points
    P, Q = pts[:5], pts[5:9]
    assert not np.allclose(kern.block(P, Q), kern.block(Q, P).T)
    tree, _ = build_octree(pts, 50)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, 4, epsilon=0.0)
    initialize_weights(ops, topo)
    A = dense_matrix(pts, kern)[np.ix_(tree.perm, tree.perm)]
    err = np.linalg.norm(h2_dense(ops) - A) / np.linalg.norm(A)
    assert err < 1e-3


def test_kernel_wrongly_marked_symmetric_raises():
    # a row-scaled kernel built without symmetric=False defaults to
    # symmetric; its leaf self blocks are not, and the builder says so
    def block(P, Q):
        r = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=-1)
        return (1.0 + 0.5 * P[:, :1]) / (0.1 + r)

    pts = cube_uniform(300, seed=3).points
    with pytest.raises(ValueError, match="symmetric=False"):
        make_ops(pts, Kernel("row-scaled", 1, {}, block), n=2)
    tree, topo, ops = make_ops(
        pts, Kernel("row-scaled", 1, {}, block, symmetric=False), n=2)
    assert any(not np.allclose(S, S.T) for (i, j), S in ops.near_blocks() if i == j)


def test_kernel_wrongly_marked_symmetric_raises_on_one_point_leaves():
    # with one point per leaf every self block is 1 x 1 and symmetric; an
    # off-diagonal near pair still shows the row scaling
    def block(P, Q):
        r = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=-1)
        return (1.0 + 0.5 * P[:, :1]) / (0.1 + r)

    pts = cell_grid_points(4)
    tree, _ = build_octree(pts, 1)
    assert all(cl.stop - cl.start == 1 for cl in
               (tree.clusters[c] for c in tree.leaves()))
    topo = compute_topology(tree)
    with pytest.raises(ValueError, match="symmetric=False"):
        chebyshev_operators(tree, topo, Kernel("row-scaled", 1, {}, block), n=2)
    ops = chebyshev_operators(
        tree, topo, Kernel("row-scaled", 1, {}, block, symmetric=False), n=2)
    near = dict(ops.near_blocks())  # every pair: the kernel is not symmetric
    assert any(not np.allclose(S, near[(j, i)].T)
               for (i, j), S in near.items() if i != j)


def test_malformed_kernel_block_raises():
    # both builders name the kernel and the shape they expected: the
    # operators' first call is a coupling (8 grid points against its
    # partners), dense_matrix's a chunk of 256 rows against all 400 points
    bad_kernels = [
        # a 3x3-block kernel whose block() returns scalar blocks
        Kernel("scalar-as-vector", 3, {}, benchmark_kernel(0.05).block),
        # one row for every target set, which numpy would broadcast silently
        Kernel("row-broadcast", 1, {}, lambda P, Q: np.ones((1, len(Q)))),
    ]
    tree, _ = build_octree(cube_uniform(400, seed=0).points, 40)
    topo = compute_topology(tree)
    for bad in bad_kernels:
        name, bd = bad.name, bad.block_dim
        with pytest.raises(ValueError, match=rf"'{name}'.*expected \({8 * bd}, "):
            chebyshev_operators(tree, topo, bad, n=2)
        with pytest.raises(ValueError,
                           match=rf"'{name}'.*expected \({256 * bd}, {400 * bd}\)"):
            dense_matrix(tree.points, bad)


def counting(kern):
    calls = []

    def block(P, Q):
        calls.append((len(P), len(Q)))
        return kern.block(P, Q)

    return Kernel(kern.name, kern.block_dim, kern.params, block,
                  kern.symmetric), calls


@pytest.mark.parametrize("kern", [benchmark_kernel(1e-2), nonsymmetric_kernel()],
                         ids=["symmetric", "nonsymmetric"])
def test_coupling_kernel_calls_per_cluster(kern, monkeypatch):
    # one kernel call per leaf near row, per symmetry check and per cluster
    # and entry-cap run at levels >= 2, not one per coupling pair; a
    # smaller cap splits the runs and leaves every coupling unchanged
    n = 2
    tree, _ = build_octree(cube_uniform(1000, seed=4).points, 4, depth=3)
    topo = compute_topology(tree)
    stored = {i: [j for j in topo.interactions[i] if j > i or not kern.symmetric]
              for level in tree.levels[2:] for i in level}
    leaves = len(tree.leaves())
    ops = {}
    for cap in (h2.COUPLING_ENTRIES, 2 * 8 * 8):
        monkeypatch.setattr(h2, "COUPLING_ENTRIES", cap)
        per_run = max(1, cap // (n ** 3) ** 2)
        runs = sum(-(-len(js) // per_run) for js in stored.values())
        counted, calls = counting(kern)
        ops[cap] = chebyshev_operators(tree, topo, counted, n)
        assert len(calls) <= leaves * (2 if kern.symmetric else 1) + runs
        assert runs < sum(map(len, stored.values()))
    a, b = ops.values()
    for la, lb in zip(a.coupling_levels, b.coupling_levels, strict=True):
        assert [g.pairs for g in la.groups] == [g.pairs for g in lb.groups]
        for ga, gb in zip(la.groups, lb.groups):
            np.testing.assert_array_equal(ga.blocks, gb.blocks)
