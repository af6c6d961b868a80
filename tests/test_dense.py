import numpy as np
import pytest

from ifmm.dense import dense_matrix
from ifmm.kernels import benchmark_kernel, cube_uniform, rpy_kernel, Scene


def test_benchmark_kernel_diagonal_is_one():
    scene = cube_uniform(50, seed=0)
    A = dense_matrix(scene.points, benchmark_kernel(1e-3))
    np.testing.assert_allclose(np.diag(A), 1.0)


def test_assembled_matrix_symmetric():
    scene = cube_uniform(40, seed=1)
    for kern in (benchmark_kernel(1e-2), rpy_kernel(0.2)):
        A = dense_matrix(scene.points, kern)
        np.testing.assert_allclose(A, A.T, atol=1e-14)


def test_two_point_offdiagonal():
    d = 0.05
    scene = Scene(np.array([[0.0, 0.0, 0.0], [2 * d, 0.0, 0.0]]), "pair")
    A = dense_matrix(scene.points, benchmark_kernel(d))
    assert A[0, 1] == pytest.approx(0.5)
    assert A[1, 0] == pytest.approx(0.5)


def test_condition_number_grows_with_d():
    points = cube_uniform(1000, seed=3).points
    k_small = np.linalg.cond(dense_matrix(points, benchmark_kernel(1e-3)))
    k_large = np.linalg.cond(dense_matrix(points, benchmark_kernel(1e-2)))
    assert k_large > k_small


def test_dense_matrix_chunking_consistent():
    scene = cube_uniform(300, seed=5)
    kern = benchmark_kernel(1e-2)
    A1 = dense_matrix(scene.points, kern, chunk=64)
    A2 = kern.block(scene.points, scene.points)
    np.testing.assert_array_equal(A1, A2)
