import numpy as np
import pytest

from ifmm.lowrank import truncated_svd, weighted_basis_union


def check_factor(fac, tol=1e-10):
    if fac.rank:
        assert np.allclose(fac.U.T @ fac.U, np.eye(fac.rank), atol=tol)
        assert np.allclose(fac.V.T @ fac.V, np.eye(fac.rank), atol=tol)
        assert np.all(np.diff(fac.sigma) <= 1e-15 * fac.sigma[0])
        assert np.all(fac.sigma > 0)


def test_truncated_svd_identity():
    fac = truncated_svd(np.eye(3), 0.0)
    assert fac.rank == 3
    np.testing.assert_allclose(fac.sigma, [1, 1, 1])
    check_factor(fac)


def test_truncated_svd_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8)
    v = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    fac = truncated_svd(np.outer(u, v), 1e-12)
    assert fac.rank == 1
    assert fac.sigma[0] == pytest.approx(1.0)


def test_truncated_svd_zero_matrix():
    fac = truncated_svd(np.zeros((4, 5)), 0.0)
    assert fac.rank == 0
    assert fac.U.shape == (4, 0) and fac.V.shape == (5, 0)


def test_truncated_svd_error_matches_discarded_sigma():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20, 15))
    s_full = np.linalg.svd(M, compute_uv=False)
    thr = 0.5 * (s_full[6] + s_full[7])  # keep exactly 7
    fac = truncated_svd(M, thr)
    assert fac.rank == 7
    err = np.linalg.norm(M - fac.matrix(), 2)
    assert err == pytest.approx(s_full[7], abs=1e-10)


def test_frobenius_screen_keeps_svd_rank(monkeypatch):
    rng = np.random.default_rng(17)
    # rank-1 blocks have sigma_1 == ||M||_F, so rounding decides the ties:
    # for some of these the computed sigma_1 exceeds the computed norm
    mats = [np.outer(rng.standard_normal(m), rng.standard_normal(n))
            for m, n in rng.integers(1, 40, size=(12, 2))]
    mats += [rng.standard_normal((12, 9)),
             np.outer(rng.standard_normal(20), rng.standard_normal(15))
             + 1e-3 * rng.standard_normal((20, 15))]
    cases = []
    for M in mats:
        fro = np.linalg.norm(M)
        s = np.linalg.svd(M, full_matrices=False)[1]  # the unscreened call
        for scale in (1 + 1e-9, 1 + 1e-15, 1.0, 1 - 1e-15, 1 - 1e-9, 0.5, 1e-3):
            thr = scale * fro  # ||M||_F just below, at, just above thr
            cases.append((M, thr, int(np.sum(s > thr))))

    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    for M, thr, ref in cases:
        before = len(calls)
        fac = truncated_svd(M, thr)
        assert fac.rank == ref, (M.shape, thr / np.linalg.norm(M))
        check_factor(fac)
        if thr > 1.001 * np.linalg.norm(M):
            assert len(calls) == before  # screened: no SVD was run
    assert 0 < len(calls) < len(cases)


def test_eckart_young_many_random():
    rng = np.random.default_rng(9)
    for trial in range(100):
        m, n = rng.integers(3, 18, size=2)
        M = rng.standard_normal((m, n))
        s = np.linalg.svd(M, compute_uv=False)
        k = int(rng.integers(1, min(m, n) + 1))
        thr = 0.5 * (s[k - 1] + s[k]) if k < len(s) else 0.5 * s[k - 1]
        fac = truncated_svd(M, thr)
        assert fac.rank == k
        err = np.linalg.norm(M - fac.matrix(), 2)
        expect = s[k] if k < len(s) else 0.0
        assert err == pytest.approx(expect, abs=1e-10)
        check_factor(fac)


def test_weighted_union_same_subspace():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    w_old = np.array([3.0, 2.0, 1.0])
    w_fill = np.array([0.5, 0.2, 0.1])
    bu = weighted_basis_union(Q, w_old, Q, w_fill, 1e-14)
    assert bu.rank == 3
    # new basis spans the same subspace
    proj = bu.new_basis @ (bu.new_basis.T @ Q)
    np.testing.assert_allclose(proj, Q, atol=1e-10)
    np.testing.assert_allclose(bu.new_basis @ bu.old_map, Q, atol=1e-10)
    np.testing.assert_allclose(bu.new_basis @ bu.fillin_map, Q, atol=1e-10)


def test_weighted_union_disjoint_subspaces():
    Q = np.eye(8)
    bu = weighted_basis_union(Q[:, :3], np.array([2.0, 2.0, 2.0]),
                              Q[:, 3:5], np.array([1.5, 1.5]), 1e-3)
    assert bu.rank == 5


def test_weighted_union_against_svd_oracle():
    rng = np.random.default_rng(12)
    U, _ = np.linalg.qr(rng.standard_normal((20, 4)))
    F, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    wu = np.array([5.0, 2.0, 1.0, 0.5])
    wf = np.array([0.8, 0.3, 0.05])
    thr = 0.1
    bu = weighted_basis_union(U, wu, F, wf, thr)
    concat = np.hstack([U * wu, F * wf])
    s_ref = np.linalg.svd(concat, compute_uv=False)
    # reconstruction of the scaled old basis within the threshold bound
    err = np.linalg.norm(U * wu - bu.new_basis @ (bu.old_map * wu), 2)
    assert err <= 10 * thr
    # retained weights track the oracle singular values to threshold scale
    np.testing.assert_allclose(bu.new_weights, s_ref[:bu.rank], atol=0.1 * thr)


def test_weighted_union_lossless_exact():
    rng = np.random.default_rng(21)
    U, _ = np.linalg.qr(rng.standard_normal((15, 4)))
    F, _ = np.linalg.qr(rng.standard_normal((15, 2)))
    wu = np.array([4.0, 3.0, 2.0, 1.0])
    wf = np.array([0.9, 0.4])
    bu = weighted_basis_union(U, wu, F, wf, 0.0)
    np.testing.assert_allclose(bu.new_basis @ bu.old_map, U, atol=1e-12)
    np.testing.assert_allclose(bu.new_basis @ bu.fillin_map, F, atol=1e-12)
    assert np.allclose(bu.new_basis.T @ bu.new_basis, np.eye(bu.rank),
                       atol=1e-12)


def test_weighted_union_rejects_nonpositive_weights():
    Q = np.eye(4)[:, :2]
    with pytest.raises(ValueError):
        weighted_basis_union(Q, np.array([1.0, 0.0]), Q, np.array([1.0, 1.0]),
                             1e-3)


def test_weighted_union_min_rank():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    F, _ = np.linalg.qr(rng.standard_normal((12, 2)))
    wu = np.array([1.0, 0.5, 0.25])
    wf = np.array([1e-6, 1e-7])  # far below threshold
    bu = weighted_basis_union(U, wu, F, wf, 1e-3)
    assert bu.rank == 3
    bu5 = weighted_basis_union(U, wu, F, wf, 1e-3, min_rank=5)
    assert bu5.rank == 5
    np.testing.assert_allclose(bu5.new_basis @ bu5.fillin_map, F, atol=1e-8)
    # a raw unit-weight fill with ||F||_2 <= threshold < ||F||_F adds no
    # direction (Weyl: sigma_4 <= sigma_4(U * wu) + ||F||_2 = ||F||_2)
    G, _ = np.linalg.qr(rng.standard_normal((12, 2)))
    F = 0.9e-3 * G
    assert np.linalg.norm(F, 2) <= 1e-3 < np.linalg.norm(F)
    assert weighted_basis_union(U, wu, F, np.ones(2), 1e-3).rank == 3


def test_weighted_union_min_rank_completes_basis():
    # min_rank above the nonzero singular values: the union completes the
    # basis with complement directions that carry zero maps
    rng = np.random.default_rng(8)
    U, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    wu = np.array([2.0, 0.5])
    bu = weighted_basis_union(U, wu, np.zeros((6, 0)), np.zeros(0), 1e-3,
                              min_rank=4)
    assert bu.rank == 4
    np.testing.assert_allclose(bu.new_basis.T @ bu.new_basis, np.eye(4),
                               atol=1e-12)
    assert np.all(bu.new_weights > 0)
    np.testing.assert_allclose(bu.new_weights[2:], 1e-3)
    assert not bu.old_map[2:].any()
    assert bu.fillin_map.shape == (4, 0)
    np.testing.assert_allclose(bu.new_basis @ bu.old_map, U, atol=1e-12)
    # deterministic: the same inputs give the same basis
    again = weighted_basis_union(U, wu, np.zeros((6, 0)), np.zeros(0), 1e-3,
                                 min_rank=4)
    assert np.array_equal(again.new_basis, bu.new_basis)
    with pytest.raises(ValueError):
        weighted_basis_union(U, wu, np.zeros((6, 0)), np.zeros(0), 1e-3,
                             min_rank=7)
