import tracemalloc
import warnings

import numpy as np
import pytest

from ifmm.dense import dense_matrix
from ifmm.factor import factorize
from ifmm.graph import assemble_extended_graph, h2_dense
from ifmm.h2 import chebyshev_operators, initialize_weights
from ifmm.kernels import (benchmark_kernel, cube_uniform, nonsymmetric_kernel,
                          rpy_kernel, sphere_lattice)
from ifmm.krylov import block_diag_preconditioner, gmres, h2_matvec
from ifmm.tree import build_octree, compute_topology


def test_gmres_identity_one_iteration():
    b = np.arange(1.0, 6.0)
    x, tr = gmres(lambda v: v, b, tol=1e-12, max_iters=10)
    assert tr.iterations == 1
    assert tr.converged
    np.testing.assert_allclose(x, b, atol=1e-12)


@pytest.mark.parametrize("dtype", [int, bool])
def test_gmres_takes_int_and_bool_rhs(dtype):
    b = np.arange(1, 6).astype(dtype)
    x, tr = gmres(lambda v: 2.0 * v, b, tol=1e-12, max_iters=10)
    assert tr.converged
    np.testing.assert_allclose(x, b / 2.0, atol=1e-12)


def test_gmres_two_distinct_eigenvalues():
    A = np.diag([1.0, 2.0])
    b = np.ones(2)
    x, tr = gmres(lambda v: A @ v, b, tol=1e-12, max_iters=10)
    assert tr.iterations <= 2
    np.testing.assert_allclose(x, [1.0, 0.5], atol=1e-10)


def test_gmres_exact_inverse_preconditioner():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30)) + 10 * np.eye(30)
    Ainv = np.linalg.inv(A)
    b = rng.standard_normal(30)
    for side in ("left", "right"):
        x, tr = gmres(lambda v: A @ v, b, tol=1e-10, max_iters=30,
                      precond=lambda v: Ainv @ v, side=side)
        assert tr.iterations <= 2
        assert tr.converged
        np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-8)


def test_gmres_residual_monotone():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = Q @ np.diag(rng.uniform(0.5, 5.0, 60)) @ Q.T
    b = rng.standard_normal(60)
    _, tr = gmres(lambda v: A @ v, b, tol=1e-12, max_iters=60)
    hist = np.array(tr.residual_history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_gmres_zero_rhs():
    x, tr = gmres(lambda v: 2 * v, np.zeros(4), tol=1e-10, max_iters=5)
    assert tr.converged
    np.testing.assert_array_equal(x, np.zeros(4))


def test_gmres_happy_breakdown():
    # b lies in a 2-dimensional invariant subspace
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    x, tr = gmres(lambda v: A @ v, b, tol=1e-14, max_iters=10)
    assert tr.converged
    np.testing.assert_allclose(A @ x, b, atol=1e-10)


def test_gmres_left_residual_definition():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((25, 25)) + 6 * np.eye(25)
    M = np.diag(1.0 / np.diag(A))
    b = rng.standard_normal(25)
    x, tr = gmres(lambda v: A @ v, b, tol=1e-8, max_iters=25,
                  precond=lambda v: M @ v, side="left")
    assert tr.side == "left"
    rel = np.linalg.norm(M @ (b - A @ x)) / np.linalg.norm(M @ b)
    assert rel == pytest.approx(tr.residual_history[-1], rel=1e-6, abs=1e-12)


def test_gmres_right_residual_is_true_residual():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((25, 25)) + 6 * np.eye(25)
    M = np.diag(1.0 / np.diag(A))
    b = rng.standard_normal(25)
    x, tr = gmres(lambda v: A @ v, b, tol=1e-8, max_iters=25,
                  precond=lambda v: M @ v, side="right")
    rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert rel == pytest.approx(tr.residual_history[-1], rel=1e-6, abs=1e-12)


def test_gmres_right_flexible_with_inexact_preconditioner():
    # an approximate inverse applied in float32 is not linear; right GMRES
    # builds x from the preconditioned vectors it multiplied by A, so the
    # last residual it reports is that of x, with one solve per iteration
    rng = np.random.default_rng(0)
    n = 200
    A = rng.standard_normal((n, n)) + 20 * np.eye(n)
    M = np.linalg.inv(A).astype(np.float32)
    b = rng.standard_normal(n)
    calls = []

    def precond(v):
        calls.append(1)
        return (M @ v.astype(np.float32)).astype(float)

    x, tr = gmres(lambda v: A @ v, b, tol=1e-12, max_iters=50,
                  precond=precond, side="right")
    assert tr.converged
    rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert rel == pytest.approx(tr.residual_history[-1], rel=1e-2)
    assert len(calls) == tr.iterations


def test_gmres_memory_follows_iterations_taken():
    # three distinct eigenvalues: converged after three iterations, while
    # a basis sized for max_iters alone would take 501 * n * 8 B = 80 MB
    n = 20_000
    d = 1.0 + np.arange(n) % 3
    b = np.ones(n)
    tracemalloc.start()
    try:
        x, tr = gmres(lambda v: d * v, b, tol=1e-10, max_iters=500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.converged and tr.iterations <= 3
    np.testing.assert_allclose(x, b / d, rtol=1e-8)
    assert peak < 4e6


def test_gmres_validates_arguments():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(3), tol=0.0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(3), tol=1e-8, max_iters=0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(3), precond=lambda v: v, side="middle")
    # a preconditioner is never silently ignored
    with pytest.raises(ValueError, match="'left' or 'right'"):
        gmres(lambda v: v, np.ones(3), precond=lambda v: v, side="none")


@pytest.mark.parametrize("b,match", [
    (np.ones((6, 2)), r"b must be 1-D, got shape \(6, 2\)"),
    (np.ones(()), r"b must be 1-D, got shape \(\)"),
    (np.array([1.0, np.nan, 2.0]), "nan or inf"),
    (np.array([1.0, -np.inf]), "nan or inf"),
    (np.ones(6) + 1j, "b must be real, got dtype complex128"),
    (np.ones((6, 2), dtype=complex), "b must be real, got dtype complex128"),
], ids=["block", "scalar", "nan", "inf", "complex", "complex-block"])
def test_gmres_rejects_bad_rhs(b, match):
    # named before the first iteration: neither A nor P^{-1} is applied
    def never(v):
        raise AssertionError("applied before b was checked")

    with pytest.raises(ValueError, match=match):
        gmres(never, b, precond=never, side="left")


def make_ops(pts, kern, n, leaf_target=20, depth=None):
    tree, _ = build_octree(pts, leaf_target, depth=depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, n)
    initialize_weights(ops, topo)
    return tree, ops


def test_h2_matvec_single_leaf_exact():
    pts = cube_uniform(60, seed=0).points
    kern = benchmark_kernel(1e-2)
    tree, ops = make_ops(pts, kern, n=2, depth=0)
    x = np.random.default_rng(1).standard_normal(60)
    y = h2_matvec(ops, x)
    np.testing.assert_allclose(y, dense_matrix(pts, kern) @ x, atol=1e-12)


def test_h2_matvec_zero():
    pts = cube_uniform(200, seed=1).points
    tree, ops = make_ops(pts, benchmark_kernel(1e-2), n=2)
    assert np.array_equal(h2_matvec(ops, np.zeros(200)), np.zeros(200))


@pytest.mark.parametrize("pts,kern,leaf_target,depth", [
    (cube_uniform(800, seed=3).points, benchmark_kernel(1e-2), 20, 2),
    # unequal leaves: ranks below n^3 pad the coupling stacks
    (cube_uniform(1200, seed=4).points, benchmark_kernel(1e-2), 4, 3),
    (cube_uniform(1000, seed=5).points, nonsymmetric_kernel(), 4, 3),
    (sphere_lattice(2, 2, 2, 1, 4.0, 1.0).points, rpy_kernel(0.25), 20, 2),
    (cube_uniform(100, seed=6).points, benchmark_kernel(1e-2), 20, 0),
], ids=["benchmark-d2", "benchmark-d3", "nonsymmetric-d3", "rpy-d2", "single-leaf"])
def test_h2_matvec_applies_h2_dense_exactly(pts, kern, leaf_target, depth):
    # the compiled apply (gathered near rows with their mirrors, batched
    # coupling stacks and segment sums) represents the same matrix that
    # h2_dense assembles densely from the same storage, to rounding, on
    # vectors and on (dim, m) blocks
    tree, ops = make_ops(pts, kern, n=2, leaf_target=leaf_target, depth=depth)
    assert any(lev.groups for lev in ops.coupling_levels) == (depth >= 2)
    bd, n = kern.block_dim, len(pts)
    A = h2_dense(ops)
    X = np.random.default_rng(7).standard_normal((n * bd, 3))
    Xt = X.reshape(n, bd, 3)[tree.perm].reshape(n * bd, 3)
    ref = np.empty_like(X).reshape(n, bd, 3)
    ref[tree.perm] = (A @ Xt).reshape(n, bd, 3)
    ref = ref.reshape(n * bd, 3)
    Y = h2_matvec(ops, X)
    assert Y.shape == X.shape
    assert np.linalg.norm(Y - ref) <= 1e-13 * np.linalg.norm(ref)
    for j in range(3):
        y = h2_matvec(ops, X[:, j])
        assert y.shape == (n * bd,)
        assert np.linalg.norm(y - Y[:, j]) <= 1e-13 * np.linalg.norm(ref[:, j])


def test_h2_matvec_rejects_bad_shapes():
    pts = cube_uniform(200, seed=1).points
    tree, ops = make_ops(pts, benchmark_kernel(1e-2), n=2)
    for shape in [(199,), (200, 2, 1), (2, 200), ()]:
        with pytest.raises(ValueError, match=r"expected shape \(200,\) or \(200, m\)"):
            h2_matvec(ops, np.zeros(shape))


def test_h2_matvec_rejects_complex():
    # converting to float would drop the imaginary part with only a
    # warning; int and bool inputs are still taken as floats
    pts = cube_uniform(200, seed=1).points
    tree, ops = make_ops(pts, benchmark_kernel(1e-2), n=2)
    for z in (np.ones(200) + 1j, np.ones((200, 2), dtype=complex)):
        with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
            h2_matvec(ops, z)
    for shape in ((200,), (200, 2)):
        y = h2_matvec(ops, np.ones(shape))
        for dtype in (int, bool):
            np.testing.assert_array_equal(h2_matvec(ops, np.ones(shape, dtype=dtype)), y)


def test_h2_matvec_error_below_construction_error():
    pts = cube_uniform(1500, seed=2).points
    kern = benchmark_kernel(1e-2)
    tree, ops = make_ops(pts, kern, n=3, leaf_target=60)
    A = dense_matrix(pts, kern)
    bd_err = np.linalg.norm(h2_dense(ops) - dense_matrix(tree.points, kern), 2) \
        / np.linalg.norm(A, 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1500)
    err = np.linalg.norm(h2_matvec(ops, x) - A @ x) / np.linalg.norm(A @ x)
    assert err <= 5 * bd_err + 1e-14


def test_block_diag_full_block_is_exact_inverse():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((24, 24)) + 8 * np.eye(24)
    apply_p = block_diag_preconditioner(A, 24)
    b = rng.standard_normal(24)
    np.testing.assert_allclose(apply_p(b), np.linalg.solve(A, b), rtol=1e-10)
    _, tr = gmres(lambda v: A @ v, b, tol=1e-10, max_iters=10,
                  precond=apply_p, side="right")
    assert tr.iterations == 1


def test_block_diag_exact_on_block_diagonal_matrix():
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal((5, 5)) + 5 * np.eye(5) for _ in range(4)]
    A = np.zeros((20, 20))
    for i, blk in enumerate(blocks):
        A[i * 5:(i + 1) * 5, i * 5:(i + 1) * 5] = blk
    apply_p = block_diag_preconditioner(A, 5)
    b = rng.standard_normal(20)
    np.testing.assert_allclose(apply_p(b), np.linalg.solve(A, b), rtol=1e-10)


def test_block_diag_uneven_final_block():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((17, 17)) + 6 * np.eye(17)
    apply_p = block_diag_preconditioner(A, 5)  # blocks 5,5,5,2
    v = rng.standard_normal(17)
    out = apply_p(v)
    np.testing.assert_allclose(out[15:], np.linalg.solve(A[15:, 15:], v[15:]),
                               rtol=1e-10)


def test_block_diag_rejects_singular_block():
    # an exactly singular block only makes lu_factor warn; its solve would
    # return inf and nan. The named error is the whole report: no warning
    # escapes.
    A = np.eye(4)
    A[1, 1] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"singular diagonal block \[0:2\]"):
            block_diag_preconditioner(A, 2)
        A = np.eye(4)
        A[3, 2] = np.nan
        with pytest.raises(ValueError, match=r"singular diagonal block \[2:4\]"):
            block_diag_preconditioner(A, 2)
    assert [str(w.message) for w in caught] == []


def test_rpy_scene_blockdiag_helps():
    scene = sphere_lattice(2, 2, 1, subdivision=1, spacing=4.0)
    kern = rpy_kernel(0.25)
    A = dense_matrix(scene.points, kern)
    b = np.random.default_rng(7).standard_normal(A.shape[0])
    _, tr_plain = gmres(lambda v: A @ v, b, tol=1e-8, max_iters=300)
    apply_p = block_diag_preconditioner(A, 126)
    _, tr_pc = gmres(lambda v: A @ v, b, tol=1e-8, max_iters=300,
                     precond=apply_p, side="right")
    assert tr_pc.converged
    assert tr_pc.iterations <= tr_plain.iterations


def test_ifmm_preconditioned_gmres_converges_fast():
    pts = cube_uniform(1000, seed=8).points
    kern = benchmark_kernel(1e-2)
    tree, ops = make_ops(pts, kern, n=2, leaf_target=100)
    A = dense_matrix(pts, kern)
    b = np.random.default_rng(9).standard_normal(1000)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-3, seed=0)
    _, tr_plain = gmres(lambda v: A @ v, b, tol=1e-10, max_iters=500)
    _, tr_pc = gmres(lambda v: A @ v, b, tol=1e-10, max_iters=500,
                     precond=fct.solve, side="right")
    assert tr_pc.converged
    assert tr_pc.iterations < tr_plain.iterations


def test_nonsymmetric_ifmm_preconditioned_gmres():
    pts = cube_uniform(900, seed=13).points
    tree, ops = make_ops(pts, nonsymmetric_kernel(), n=2, leaf_target=40)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-4, seed=0)
    assert sum(ls.compressed_pairs for ls in fct.stats.levels) > 0
    b = np.random.default_rng(14).standard_normal(900)
    tol = 1e-10
    x, tr = gmres(lambda v: h2_matvec(ops, v), b, tol=tol, max_iters=100,
                  precond=fct.solve, side="right")
    assert tr.converged
    res = np.linalg.norm(h2_matvec(ops, x) - b) / np.linalg.norm(b)
    assert res <= tol
