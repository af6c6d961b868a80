"""Host-speed probe: a fixed slice of LAPACK, numpy and Python work.

The measurement host runs the benchmark on a core it shares with other
tenants, and its speed switches between states about 1.5x apart many times
a second, with the share of slow time changing from one minute to the
next. The probe uses nothing from ifmm, so its mean slice time over a run
measures how slow that run's host was on average. Slices run with the
cyclic garbage collector off and allocate little, so the size of the
program's heap does not change them.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.linalg as sla

_rng = np.random.Generator(np.random.PCG64(20240607))
_SMALL = [_rng.standard_normal((n, n)) for n in (8, 16, 27, 40, 64)]
_WIDE = _rng.standard_normal((512, 512))   # 2 MB: a matvec that streams memory
_V = _rng.standard_normal(512)
_X = _rng.standard_normal(4096)


def _slice() -> float:
    acc = 0.0
    for A in _SMALL:  # small dense factorizations, as in the elimination
        s = np.linalg.svd(A, compute_uv=False)
        acc += s[0] + sla.lu_solve(sla.lu_factor(A), A[:, 0])[0]
    acc += (_WIDE @ _V)[0]
    for i in range(0, 4096, 64):  # many small numpy calls, as in the replay
        acc += float(np.dot(_X[i:i + 64], _X[i:i + 64]))
    k = 0
    for i in range(8000):  # interpreter work, as in the graph bookkeeping
        k = (k * 31 + i) & 0xFFFF
    return acc + k


def sample(n: int) -> list[float]:
    """Seconds taken by each of n slices, after one untimed warm-up slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _slice()
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            _slice()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()
