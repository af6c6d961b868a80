"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Heavy artifacts (the scaling sweep, dense matrices at N = 2e4) are shared
through module-scoped fixtures. Criteria are ordered fast-first; the
whole module is sized for a workstation run.
"""

import gc

import numpy as np
import pytest

from ifmm.dense import dense_matrix
from ifmm.experiments import (RunConfig, fit_loglog_slope, run_direct,
                              run_scaling)
from ifmm.factor import factorize
from ifmm.graph import assemble_extended_graph, h2_dense
from ifmm.h2 import chebyshev_operators, initialize_weights
from ifmm.kernels import (benchmark_kernel, concentric_shells, cube_uniform,
                          rpy_kernel, scaled_d, sphere_lattice)
from ifmm.krylov import block_diag_preconditioner, gmres
from ifmm.lowrank import left_singular, weighted_basis_union
from ifmm.tree import build_octree, compute_topology


def crit(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


def build_ops(pts, kern, n, leaf_target=100, epsilon=1e-3, depth=None):
    tree, _ = build_octree(pts, leaf_target, depth=depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, n, epsilon=epsilon)
    initialize_weights(ops, topo)
    return tree, ops


def ifmm_preconditioner(pts, kern, n, epsilon=1e-3, leaf_target=100, seed=0):
    tree, ops = build_ops(pts, kern, n, leaf_target, epsilon)
    return factorize(assemble_extended_graph(ops), epsilon, seed=seed)


# -- criterion 1: lossless oracle equivalence ---------------------------------

def test_criterion_1_lossless_equivalence():
    pts = cube_uniform(500, seed=0).points
    kern = benchmark_kernel(1e-2)
    tree, ops = build_ops(pts, kern, n=2, leaf_target=12, epsilon=0.0)
    fct = factorize(assemble_extended_graph(ops), epsilon=1e-13, seed=0)
    b = np.random.default_rng(1).standard_normal(500)
    x = fct.solve(b)
    import scipy.linalg as sla
    xt = sla.lu_solve(sla.lu_factor(h2_dense(ops)), b[tree.perm])
    x_ref = np.empty_like(xt)
    x_ref[tree.perm] = xt
    err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
    crit(1, err <= 1e-9,
         f"lossless IFMM vs dense LU of the hierarchical matrix: {err:.2e}")


# -- criterion 2: direct-solver accuracy --------------------------------------

def test_criterion_2_direct_accuracy():
    N = 2000
    pts = cube_uniform(N, seed=0).points
    kern = benchmark_kernel(scaled_d(1e-3, N, -1 / 3))
    A = dense_matrix(pts, kern)
    x_true = np.random.default_rng(1).standard_normal(N)
    b = A @ x_true
    errs = []
    for n in (1, 2, 3, 4):
        tree, ops = build_ops(pts, kern, n)
        fct = factorize(assemble_extended_graph(ops), epsilon=1e-3, seed=0)
        x = fct.solve(b)
        errs.append(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
    mono = all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))
    ok = mono and errs[-1] <= 1e-2
    crit(2, ok, "errors over n=1..4: "
         + ", ".join(f"{e:.2e}" for e in errs))


# -- criteria 3, 4, 10: scaling sweep ------------------------------------------

@pytest.fixture(scope="module")
def sweep_reports():
    cfg = RunConfig(kernel="benchmark", distribution="sphere", cheb_nodes=2,
                    epsilon=1e-3, leaf_target=100, d=1e-3, d_scaling="sphere",
                    mode="direct", seed=0, dense_cap=4000)
    ns = [10_000, 20_000, 40_000, 80_000]
    reports = run_scaling(cfg, ns)
    gc.collect()
    return ns, reports


def test_criterion_3_linear_scaling(sweep_reports):
    ns, reports = sweep_reports
    times = [r.timings["elimination"] + r.timings["substitution"]
             for r in reports]
    slope = fit_loglog_slope(ns, times)
    crit(3, 0.8 <= slope <= 1.3,
         f"factorize+solve log-log slope {slope:.3f} over N={ns}, "
         f"times={[round(t, 1) for t in times]}")


def test_criterion_4_rank_bounded(sweep_reports):
    ns, reports = sweep_reports
    ranks = [r.rank_stats["max_basis_rank"] for r in reports]
    ratio = max(ranks) / max(min(ranks), 1)
    crit(4, ratio <= 2.0, f"max far-field ranks across sweep: {ranks}")


def test_criterion_10_sparsity_preserved(sweep_reports):
    ns, reports = sweep_reports
    consts = [r.edge_stats["edge_bound_constant"] for r in reports]
    ok = all(c <= 600.0 for c in consts)
    crit(10, ok, "peak edges per cluster across sweep: "
         + ", ".join(f"{c:.0f}" for c in consts))


# -- criteria 5, 6: preconditioner effectiveness -------------------------------

def run_gmres_study(d, n_list, tol=1e-10, N=20_000, seed=0):
    pts = cube_uniform(N, seed=seed).points
    kern = benchmark_kernel(d)
    # Factorize before the 3 GB dense matrix exists, so that factorization
    # scratch does not stack on top of it. The freed scratch stays in the
    # malloc heap, so the largest n goes first (the smaller factorizations
    # fit in what it freed), and 64-row chunks keep the assembly's scratch
    # small enough to fit there too.
    fcts = {n: ifmm_preconditioner(pts, kern, n, seed=seed)
            for n in sorted(n_list, reverse=True)}
    A = dense_matrix(pts, kern, chunk=64)
    b = A @ np.random.default_rng(seed + 1).standard_normal(N)
    out = {}
    _, tr = gmres(lambda v: A @ v, b, tol=tol, max_iters=500)
    out["none"] = tr
    for n in n_list:
        _, tr = gmres(lambda v: A @ v, b, tol=tol, max_iters=500,
                      precond=fcts[n].solve, side="right")
        out[f"ifmm{n}"] = tr
    del A, fcts
    gc.collect()
    return out


def test_criterion_5_preconditioner_well_conditioned():
    res = run_gmres_study(1e-3, [2, 3])
    it_none = res["none"].iterations
    it2, it3 = res["ifmm2"].iterations, res["ifmm3"].iterations
    ok = (res["none"].converged and res["ifmm2"].converged
          and res["ifmm3"].converged and it_none >= 3 * it2 and it3 <= 10)
    crit(5, ok, f"iterations none={it_none}, ifmm(n=2)={it2}, ifmm(n=3)={it3}")


def test_criterion_6_preconditioner_ill_conditioned():
    res = run_gmres_study(1e-2, [3])
    it_none = res["none"].iterations
    it3 = res["ifmm3"].iterations
    none_failed = not res["none"].converged
    ok = res["ifmm3"].converged and (none_failed or it_none >= 5 * it3)
    detail = (f"none {'failed at' if none_failed else 'needed'} {it_none}, "
              f"ifmm(n=3) needed {it3}")
    crit(6, ok, detail)


# -- criterion 7: eigenvalue clustering ----------------------------------------

def test_criterion_7_eigenvalue_clustering():
    N = 2000
    pts = cube_uniform(N, seed=0).points
    kern = benchmark_kernel(1e-3)
    A = dense_matrix(pts, kern)
    fractions = []
    for n in (1, 2, 3):
        fct = ifmm_preconditioner(pts, kern, n)
        PA = fct.solve(A)   # all N columns in one replay of the factor
        lam = np.linalg.eigvals(PA)
        fractions.append(float(np.mean(np.abs(lam - 1.0) < 0.5)))
    ok = fractions[-1] >= 0.9 and all(f2 >= f1 for f1, f2
                                      in zip(fractions, fractions[1:]))
    crit(7, ok, "clustered eigenvalue fraction over n=1..3: "
         + ", ".join(f"{f:.3f}" for f in fractions))


# -- criterion 8: left vs right preconditioning --------------------------------

def test_criterion_8_left_vs_right():
    N = 10_000
    pts = cube_uniform(N, seed=0).points
    kern = benchmark_kernel(1e-3)
    A = dense_matrix(pts, kern)
    b = A @ np.random.default_rng(1).standard_normal(N)
    fct = ifmm_preconditioner(pts, kern, n=2)
    iters = {}
    for side in ("right", "left"):
        _, tr = gmres(lambda v: A @ v, b, tol=1e-10, max_iters=500,
                      precond=fct.solve, side=side)
        assert tr.converged
        iters[side] = tr.iterations
    hi, lo = max(iters.values()), min(iters.values())
    ok = hi <= 1.2 * lo
    crit(8, ok, f"iterations right={iters['right']}, left={iters['left']}")


# -- criterion 9: Stokes preconditioning order ----------------------------------

def test_criterion_9_stokes_ordering():
    scene = sphere_lattice(4, 4, 4, subdivision=1, spacing=4.0)
    kern = rpy_kernel(0.25)
    M = dense_matrix(scene.points, kern)
    assert M.shape[0] == 8064
    b = np.random.default_rng(2).standard_normal(8064)
    _, tr_none = gmres(lambda v: M @ v, b, tol=1e-8, max_iters=500)
    pc_bd = block_diag_preconditioner(M, 126)
    _, tr_bd = gmres(lambda v: M @ v, b, tol=1e-8, max_iters=500,
                     precond=pc_bd, side="right")
    fct = ifmm_preconditioner(scene.points, kern, n=2)
    _, tr_ifmm = gmres(lambda v: M @ v, b, tol=1e-8, max_iters=500,
                       precond=fct.solve, side="right")
    lattice_ok = (tr_ifmm.iterations <= tr_bd.iterations <= tr_none.iterations
                  and tr_ifmm.converged)
    del M
    gc.collect()

    shells = concentric_shells([1, 2, 3], [1.0, 2.0, 4.0])
    Ms = dense_matrix(shells.points, rpy_kernel(0.25))
    bs = np.random.default_rng(3).standard_normal(Ms.shape[0])
    _, ts_none = gmres(lambda v: Ms @ v, bs, tol=1e-8, max_iters=500)
    fct_s = ifmm_preconditioner(shells.points, rpy_kernel(0.25), n=3)
    _, ts_ifmm = gmres(lambda v: Ms @ v, bs, tol=1e-8, max_iters=500,
                       precond=fct_s.solve, side="right")
    shells_ok = ts_ifmm.converged and ts_ifmm.iterations < ts_none.iterations
    ok = lattice_ok and shells_ok
    crit(9, ok,
         f"lattice iterations ifmm={tr_ifmm.iterations} <= "
         f"blockdiag={tr_bd.iterations} <= none={tr_none.iterations}; "
         f"shells ifmm={ts_ifmm.iterations} < none={ts_none.iterations}")


# -- criterion 11: module property suites ---------------------------------------

def test_criterion_11_property_suites():
    rng = np.random.default_rng(0)
    checks = []

    # orthogonality and Eckart-Young of the SVD the unions run
    for _ in range(25):
        M = rng.standard_normal((12, 9))
        W, s = left_singular(M)
        k = int(rng.integers(1, 9))
        checks.append(np.allclose(s, np.linalg.svd(M, compute_uv=False),
                                  atol=1e-12))
        checks.append(np.allclose(W.T @ W, np.eye(12), atol=1e-10))
        Wk = W[:, :k]
        err = np.linalg.norm(M - Wk @ (Wk.T @ M), 2)
        checks.append(abs(err - s[k]) <= 1e-10)

    # basis-union exactness in the lossless regime
    U, _ = np.linalg.qr(rng.standard_normal((14, 3)))
    F, _ = np.linalg.qr(rng.standard_normal((14, 2)))
    bu = weighted_basis_union(U, np.array([3.0, 2.0, 1.0]), F,
                              np.array([0.5, 0.2]), 0.0)
    checks.append(np.allclose(bu.new_basis @ bu.old_map, U, atol=1e-12))
    checks.append(np.allclose(bu.new_basis @ bu.fillin_map, F, atol=1e-12))

    # GMRES trivial cases
    x, tr = gmres(lambda v: v, np.ones(5), tol=1e-12, max_iters=5)
    checks.append(tr.iterations == 1 and np.allclose(x, 1.0))

    # topology exhaustive trichotomy at depth <= 3
    pts = cube_uniform(250, seed=4).points
    tree, _ = build_octree(pts, leaf_target=5)
    checks.append(tree.depth <= 3)
    topo = compute_topology(tree)
    for level in range(2, tree.depth + 1):
        ids = tree.levels[level]
        for i in ids:
            for j in ids:
                a = j in topo.neighbor_sets[i]
                bb = j in topo.interactions[i]
                c = tree.clusters[j].parent not in \
                    topo.neighbor_sets[tree.clusters[i].parent]
                checks.append(a + bb + c == 1)

    ok = all(checks)
    crit(11, ok, f"{len(checks)} property checks")
