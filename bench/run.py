"""IFMM benchmark entry point.

    python3 bench/run.py --workload cube-tight --seed 1 --seconds 52 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 52 --trace 0

One workload runs in one process with BLAS pinned to a single thread. The
variables are set here, before numpy is first imported, because OpenBLAS
reads them once when it loads. `--workload all` starts one such process
per workload, in turn, and waits for each.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones. Per-run records (environment, every round's samples, the checks) and
the span trace go to `bench/results/`.

The library is imported from `src/` of the checkout this file sits in.
Without that directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cube-tight", "stokes-precond")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    env = dict(os.environ, **PINNED_THREADS)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            print(f"error: {name} did not finish in {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            status = 1
            continue
        if proc.returncode != 0:
            print(f"error: {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "ifmm" / "__init__.py").is_file():
        print(f"error: {src / 'ifmm'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(src))
    import workloads  # numpy loads here, after the pin

    return workloads.main(args.workload, args.seed, args.seconds,
                          bool(args.trace), BENCH_DIR / "results", src)


if __name__ == "__main__":
    sys.exit(main())
