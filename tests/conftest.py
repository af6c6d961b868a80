import os

# Pin BLAS to one thread before numpy is first imported (OpenBLAS reads the
# variables once, when it loads): on a 2-core machine the default thread
# count oversubscribes the cores and bends the timing slope of criterion 3.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


def cell_grid_points(cells_per_axis: int, occupied=None) -> np.ndarray:
    """One point at the center of each occupied cell of a unit-cube grid."""
    h = 1.0 / cells_per_axis
    pts = []
    for ix in range(cells_per_axis):
        for iy in range(cells_per_axis):
            for iz in range(cells_per_axis):
                if occupied is None or (ix, iy, iz) in occupied:
                    pts.append(((ix + 0.5) * h, (iy + 0.5) * h, (iz + 0.5) * h))
    return np.array(pts)


UNIT_BOX = (np.array([0.5, 0.5, 0.5]), 0.5)
