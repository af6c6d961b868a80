import numpy as np
import pytest

from ifmm.kernels import (Scene, benchmark_kernel, concentric_shells,
                          cube_uniform, icosphere, rpy_kernel, scaled_d,
                          scene_from_text, scene_to_text, sphere_lattice,
                          sphere_surface)


def test_benchmark_kernel_branches():
    d = 0.37
    k = benchmark_kernel(d)
    p0 = np.zeros((1, 3))

    def val(r):
        return k.evaluate(p0, np.array([[r, 0.0, 0.0]]))[0, 0]

    assert val(0.0) == 1.0
    assert val(d / 2) == pytest.approx(0.5)
    assert val(2 * d) == pytest.approx(0.5)
    assert val(d) == pytest.approx(1.0)           # continuity at r = d
    assert val(0.999999 * d) == pytest.approx(1.0, abs=1e-5)


def test_benchmark_kernel_rejects_bad_d():
    with pytest.raises(ValueError):
        benchmark_kernel(0.0)


def test_scaled_d():
    assert scaled_d(1e-3, 1000, -0.5) == pytest.approx(1e-3)
    assert scaled_d(1e-3, 1000, -1 / 3) == pytest.approx(1e-3)
    assert scaled_d(1e-3, 4000, -0.5) == pytest.approx(5e-4)
    assert scaled_d(1e-3, 8000, -1 / 3) == pytest.approx(5e-4)


def test_rpy_self_block():
    a, eta = 0.3, 1.7
    k = rpy_kernel(a, eta)
    p = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(k.evaluate(p, p),
                               np.eye(3) / (6 * np.pi * eta * a), rtol=1e-14)


def rpy_pair(ri, rj, a, eta):
    """The RPY 3x3 block of one point pair, written out branch by branch."""
    c = 1.0 / (6.0 * np.pi * eta * a)
    d = np.asarray(ri, float) - np.asarray(rj, float)
    r = np.sqrt(d @ d)
    if r == 0.0:
        return c * np.eye(3)
    if r > 2.0 * a:
        f = c * (3.0 * a / (4.0 * r) + a ** 3 / (2.0 * r ** 3))
        g = c * (3.0 * a / (4.0 * r) - 3.0 * a ** 3 / (2.0 * r ** 3))
    else:
        f = c * (1.0 - 9.0 * r / (32.0 * a))
        g = c * 3.0 * r / (32.0 * a)
    return f * np.eye(3) + g * np.outer(d / r, d / r)


def test_rpy_block_matches_per_pair_formula():
    # a rectangular call whose pairs hit every branch: far, overlap, r = 2a
    # exactly (the overlap branch) and r = 0; the blocks are point-major
    a, eta = 0.25, 1.3
    P = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.1, -0.2, 0.3],
                  [2.0, 2.0, 2.0]])
    Q = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, -0.1, 0.25],
                  [3.0, 1.0, -1.0], [1.0, 2.0, 3.0]])
    r = np.linalg.norm(P[:, None] - Q[None], axis=-1)
    assert (r == 0).any() and (r == 2 * a).any()
    assert ((r > 0) & (r < 2 * a)).any() and (r > 2 * a).any()
    M = rpy_kernel(a, eta).block(P, Q)
    assert M.shape == (3 * len(P), 3 * len(Q))
    ref = np.block([[rpy_pair(p, q, a, eta) for q in Q] for p in P])
    np.testing.assert_allclose(M, ref, rtol=1e-14, atol=0)


def test_rpy_block_symmetry():
    k = rpy_kernel(0.25)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pi, pj = rng.uniform(-1, 1, (2, 3))
        Mij = k.evaluate(pi, pj)
        Mji = k.evaluate(pj, pi)
        np.testing.assert_allclose(Mij, Mij.T, atol=1e-14)
        np.testing.assert_allclose(Mij, Mji.T, atol=1e-14)


def test_rpy_positive_semidefinite():
    rng = np.random.default_rng(11)
    a = 0.1
    pts = rng.uniform(0, 2, (10, 3))  # may overlap; PSD must hold regardless
    M = rpy_kernel(a).block(pts, pts)
    ev = np.linalg.eigvalsh(M)
    assert ev.min() >= -1e-12 * ev.max()


def test_kernel_symmetry_property():
    rng = np.random.default_rng(4)
    for kern in (benchmark_kernel(0.05), rpy_kernel(0.2)):
        for _ in range(20):
            pi, pj = rng.uniform(-1, 1, (2, 3))
            np.testing.assert_allclose(kern.evaluate(pi, pj),
                                       kern.evaluate(pj, pi).T, atol=1e-14)


def test_icosphere_counts():
    assert len(icosphere(0)) == 12
    assert len(icosphere(1)) == 42
    for s in range(5):
        assert len(icosphere(s)) == 10 * 4 ** s + 2
    # largest shell used in the rigid-body study
    assert 10 * 4 ** 6 + 2 == 40962
    with pytest.raises(ValueError):
        icosphere(-1)


def test_icosphere_on_unit_sphere():
    v = icosphere(2)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_sphere_surface_unit_norm_and_determinism():
    s1 = sphere_surface(500, seed=42)
    s2 = sphere_surface(500, seed=42)
    assert np.array_equal(s1.points, s2.points)
    np.testing.assert_allclose(np.linalg.norm(s1.points, axis=1), 1.0,
                               atol=1e-12)
    s3 = sphere_surface(500, seed=43)
    assert not np.array_equal(s1.points, s3.points)


def test_cube_uniform_bounds_and_determinism():
    s1 = cube_uniform(300, seed=9)
    assert np.array_equal(s1.points, cube_uniform(300, seed=9).points)
    assert s1.points.min() >= -1.0 and s1.points.max() <= 1.0


def test_sphere_lattice_layout():
    s = sphere_lattice(2, 3, 1, subdivision=1, spacing=5.0, body_radius=1.0)
    assert len(s.points) == 6 * 42
    # first body centered at origin, all points at unit distance from center
    np.testing.assert_allclose(np.linalg.norm(s.points[:42], axis=1), 1.0,
                               atol=1e-12)


def test_concentric_shells_counts():
    s = concentric_shells([1, 2, 3], [1.0, 2.0, 4.0])
    assert len(s.points) == 42 + 162 + 642
    r = np.linalg.norm(s.points, axis=1)
    np.testing.assert_allclose(np.sort(np.unique(r.round(9))), [1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        concentric_shells([1, 2], [1.0])


def test_scene_text_round_trip(tmp_path):
    s = cube_uniform(50, seed=1)
    path = tmp_path / "scene.txt"
    scene_to_text(s, path)
    s2 = scene_from_text(path)
    np.testing.assert_allclose(s.points, s2.points, rtol=0, atol=0)
