"""Dense reference oracle for small problems.

Assembles the exact kernel matrix entrywise (no hierarchical
approximation) to check the fast path against.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel


def dense_matrix(points: np.ndarray, kernel: Kernel,
                 chunk: int = 256) -> np.ndarray:
    """Assemble the full kernel matrix in row chunks of checked blocks."""
    n = len(points)
    bd = kernel.block_dim
    A = np.empty((n * bd, n * bd))
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        A[a * bd:b * bd, :] = kernel.checked_block(points[a:b], points)
    return A
