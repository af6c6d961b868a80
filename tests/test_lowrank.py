import numpy as np
import pytest

from ifmm.lowrank import left_singular, weighted_basis_union


@pytest.mark.parametrize("shape", [(27, 516), (126, 40)], ids=["wide", "tall"])
def test_left_singular_graded(shape):
    m, n = shape
    r = min(m, n)
    rng = np.random.default_rng(4)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    M = (U * np.logspace(0, -12, r)) @ V.T
    W, s = left_singular(M)
    ref = np.linalg.svd(M, compute_uv=False)
    np.testing.assert_allclose(s, ref, rtol=0, atol=1e-14 * ref[0])
    assert W.shape == (m, m)
    np.testing.assert_allclose(W.T @ W, np.eye(m), atol=1e-12)
    # the first r columns are left singular vectors: W_r^T M = S V^T
    Wr = W[:, :r]
    np.testing.assert_allclose(np.linalg.norm(Wr.T @ M, axis=1), s,
                               rtol=0, atol=1e-14 * ref[0])
    np.testing.assert_allclose(Wr @ (Wr.T @ M), M, rtol=0, atol=1e-14 * ref[0])


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
