"""Dense reference oracle for small problems.

Assembles the exact kernel matrix entrywise (no hierarchical
approximation) and provides LU solves, spectra, and condition numbers to
check the fast path against. A size cap keeps accidental huge
allocations out of test runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .kernels import Kernel, Scene


class OracleSizeError(ValueError):
    """Requested dense problem exceeds the configured size cap."""


def dense_matrix(points: np.ndarray, kernel: Kernel,
                 chunk: int = 256) -> np.ndarray:
    """Assemble the full kernel matrix in row chunks (bounded scratch)."""
    n = len(points)
    bd = kernel.block_dim
    A = np.empty((n * bd, n * bd))
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        A[a * bd:b * bd, :] = kernel.block(points[a:b], points)
    return A


@dataclass
class DenseProblem:
    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def assemble_dense(scene: Scene, kernel: Kernel, seed: int = 0,
                   cap: int = 6000) -> DenseProblem:
    """Exact dense matrix with b = A @ x_true for a seeded random x_true."""
    dim = len(scene.points) * kernel.block_dim
    if dim > cap:
        raise OracleSizeError(f"dense dimension {dim} exceeds cap {cap}")
    A = dense_matrix(scene.points, kernel)
    rng = np.random.Generator(np.random.PCG64(seed))
    x_true = rng.standard_normal(dim)
    return DenseProblem(A, A @ x_true, x_true)


def dense_solve(problem: DenseProblem, b: np.ndarray | None = None) -> np.ndarray:
    rhs = problem.b if b is None else b
    return sla.lu_solve(sla.lu_factor(problem.A), rhs)


def dense_eigs(problem: DenseProblem) -> np.ndarray:
    """Eigenvalues; real spectrum via eigh when the matrix is symmetric."""
    A = problem.A
    if np.allclose(A, A.T, rtol=0.0, atol=1e-12 * np.abs(A).max()):
        return np.linalg.eigvalsh(A)
    return np.linalg.eigvals(A)


def dense_cond(problem: DenseProblem) -> float:
    s = np.linalg.svd(problem.A, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])
