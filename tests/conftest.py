import os
import sys

import pytest

# Pin BLAS to one thread before numpy is first imported (OpenBLAS reads the
# variables once, when it loads): on a 2-core machine the default thread
# count oversubscribes the cores and bends the timing slope of criterion 3.
# Anything pytest resolves before this module, such as a -W option or an ini
# filterwarnings entry naming a scipy class, loads numpy too early.
if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    pytest.exit("numpy was imported before tests/conftest.py could pin BLAS to "
                "one thread (a -W option or filterwarnings entry naming a "
                "numpy or scipy class does this); set OPENBLAS_NUM_THREADS=1 "
                "in the environment", returncode=pytest.ExitCode.USAGE_ERROR)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np


def pytest_configure(config):
    # A scipy LinAlgWarning that leaks out of the library fails its test.
    # The filter is added here rather than in pyproject.toml: pytest resolves
    # a filter's category when it applies it, and from the ini file that
    # happens before this module runs, so scipy (and OpenBLAS) would load
    # before the thread pinning above.
    config.addinivalue_line("filterwarnings",
                            "error::scipy.linalg.LinAlgWarning")


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


def node_rhs(graph, b: np.ndarray) -> dict:
    """Right-hand side of each node of a freshly assembled graph.

    `b` is in the original point ordering and lands on the leaf x rows;
    every other row has a zero right-hand side.
    """
    bd = graph.block_dim
    bt = b.reshape(-1, bd)[graph.tree.perm].ravel()
    rhs = {n: np.zeros(s) for n, s in enumerate(graph.sizes)}
    for cid in graph.tree.leaves():
        c = graph.tree.clusters[cid]
        rhs[graph.node_x[cid]] = bt[c.start * bd:c.stop * bd]
    return rhs
