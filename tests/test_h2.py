import numpy as np
import pytest

from ifmm.dense import dense_matrix
from ifmm.graph import assemble_extended_graph, estimate_sigma0, h2_dense
from ifmm.h2 import chebyshev_operators, initialize_weights
from ifmm.kernels import Kernel, benchmark_kernel, cube_uniform, nonsymmetric_kernel
from ifmm.tree import build_octree, compute_topology

from conftest import UNIT_BOX, cell_grid_points, node_rhs


def make_ops(points, kernel, n, leaf_target=10, epsilon=0.0, depth=None):
    tree, _ = build_octree(points, leaf_target, depth=depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kernel, n, epsilon=epsilon)
    initialize_weights(ops, topo)
    return tree, topo, ops


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
    # pick a cluster and overwrite its couplings with a rank-1 matrix
    cid = next(c for c in tree.levels[2] if len(topo.interactions[c]) > 0)
    keep = topo.interactions[cid][0]
    rng = np.random.default_rng(0)
    for q in topo.interactions[cid]:
        k1, k2 = ops.rank[cid], ops.rank[q]
        ops.coupling[(cid, q)] = np.zeros((k1, k2))
        ops.coupling[(q, cid)] = np.zeros((k2, k1))
    u = rng.standard_normal(ops.rank[cid])
    v = rng.standard_normal(ops.rank[keep])
    sigma = 2.5
    K = sigma * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    ops.coupling[(cid, keep)] = K
    ops.coupling[(keep, cid)] = K.T
    initialize_weights(ops, topo)
    ref = np.linalg.svd(np.hstack([ops.coupling[(cid, q)]
                                   for q in topo.interactions[cid]]),
                        compute_uv=False)
    assert ops.sigma_u[cid][0] == pytest.approx(sigma)
    assert ops.sigma_u[cid][0] == pytest.approx(ref[0])


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
    assert not ops.coupling
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
