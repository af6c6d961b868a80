"""The IFMM benchmark workloads: inputs, one measured round, checks.

A run repeats whole rounds in a closed loop until the next round would
end past `--seconds`. It reports each time metric as the mean over its
rounds scaled by the host-speed probe (`_timings`), and the other metrics
as medians over its rounds. A round drives the library through its public
API in the order a user does: build_octree -> compute_topology ->
chebyshev_operators -> initialize_weights -> assemble_extended_graph ->
factorize -> solve (a block of BLOCK right-hand sides) -> gmres. Every
round repeats the same operations on the same seeded inputs, so the share
of failed operations is the same in every run.

Named fault, kept and counted: `IFMMFactorization.solve` rejects a
(dim, m) right-hand side with ValueError although every replayed block op
is linear. Each block solve first offers the whole block in one 2-D call;
while the fault stands that call fails (one failed operation per round)
and the block is solved column by column.
Once the call succeeds, the same metrics are measured on it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

import ifmm
import ifmm.factor
import ifmm.lowrank
from ifmm import (assemble_extended_graph, benchmark_kernel, build_octree,
                  chebyshev_operators, compute_topology, factorize, gmres,
                  h2_matvec, initialize_weights, rpy_kernel, sphere_lattice)
from ifmm.dense import dense_matrix

import oracle
import probe
from tracing import SpanStats, Tracer

BLOCK = 16              # right-hand sides in the block solve
SAMPLE_POINTS = 256     # points whose rows the exact-kernel check evaluates
CROSS_POINTS = 48       # points whose block the dense_matrix cross-check uses
GMRES_MAX_ITERS = 200
PROBE_SLICES = 10       # host-speed probe slices at each of 4 points a round
PROBE_REF_S = 2.0e-3    # probe slice time that defines the reference host
GMRES_RESIDUAL_FACTOR = 10.0   # exact GMRES residual <= this * gmres_tol
LINEARITY_TOL = 1e-10          # ||x(b1+b2) - x(b1) - x(b2)|| / ||x(b1)+x(b2)||
CROSS_TOL = 1e-12              # max entry difference / max entry, own vs ifmm
REPEAT_TOL = 1e-12             # later rounds vs the first, same inputs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "factor_s": "s", "rhs_per_s": "1/s", "total_s": "s",
    "factor_mb": "MB", "peak_rss_mb": "MB", "res_digits": "digits",
    "gmres_s": "s", "gmres_iters": "count",
}
PER_LAYER = {
    "tree.build_s": "s", "tree.topology_s": "s", "tree.clusters": "count",
    "tree.depth": "count",
    "h2.operators_s": "s", "h2.weights_s": "s", "h2.max_rank": "count",
    "graph.assemble_s": "s", "graph.sigma0_s": "s", "graph.edges": "count",
    "graph.peak_edges": "count",
    "factor.l2.eliminate_s": "s", "factor.top_s": "s", "factor.redirect_s": "s",
    "factor.redirect_calls": "count", "factor.fills_kept": "count",
    "factor.fills_dropped": "count", "factor.fill_keep_ratio": "ratio",
    "factor.max_fill_rank": "count", "factor.forced_truncations": "count",
    "lowrank.svd_s": "s", "lowrank.svd_calls": "count",
    "lowrank.rsvd_s": "s", "lowrank.rsvd_calls": "count",
    "lowrank.union_s": "s", "lowrank.union_calls": "count",
    "lowrank.aca_s": "s", "lowrank.aca_calls": "count",
    "solve.replay_s": "s", "solve.calls": "count",
    "krylov.precond_s": "s", "krylov.matvec_s": "s", "krylov.arnoldi_s": "s",
    "trace.spans": "count", "trace.total_s": "s", "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str            # cube | lattice
    size: int             # cube: grid side; lattice: unused
    kernel: str           # benchmark | rpy
    kernel_params: tuple  # (("d", 1e-3),) or (("radius", a), ("viscosity", eta))
    cheb: int             # Chebyshev nodes per axis
    epsilon: float
    gmres_rhs: int
    gmres_tol: float      # kept clear of the residual after any iteration,
                          # so the iteration count does not flip between seeds
    gmres_operator: str   # h2: h2_matvec; dense: ifmm.dense.dense_matrix
    kernel_bound: float   # exact-kernel residual bound, set by the H2 order
    h2_constant: float    # H2-operator residual <= h2_constant * epsilon
    leaf_target: int = 100

    @property
    def params(self) -> dict:
        return dict(self.kernel_params)


# Sizes are chosen so that a round lasts 4-10 s on a 2-core box and a run of
# 52 s holds five or more rounds; bench/README.md gives the reasons.
WORKLOADS = {
    "cube-tight": Workload(
        "cube-tight", "cube", 12, "benchmark", (("d", 0.05),), cheb=2,
        epsilon=1e-9, gmres_rhs=4, gmres_tol=1e-10, gmres_operator="h2",
        kernel_bound=0.1, h2_constant=500.0),
    "stokes-precond": Workload(
        "stokes-precond", "lattice", 0, "rpy",
        (("radius", 0.25), ("viscosity", 1.0)), cheb=2, epsilon=1e-3,
        gmres_rhs=2, gmres_tol=1e-8, gmres_operator="dense", kernel_bound=0.1,
        h2_constant=10.0),
}


def jittered_cube(m: int, seed: int, jitter: float = 0.5) -> np.ndarray:
    """m^3 points in [-1, 1]^3, one per grid cell, each moved off the cell
    centre by a seeded uniform offset of up to jitter/2 cell widths.

    Points closer than the benchmark kernel's d make nearly equal rows, and
    uniform clouds have such pairs on some seeds only; the grid keeps every
    pair at least (1 - jitter) cell widths apart on every seed.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 0]))
    cells = np.stack(np.meshgrid(*[np.arange(m)] * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    offset = 0.5 + jitter * rng.uniform(-0.5, 0.5, size=cells.shape)
    return (cells + offset) * (2.0 / m) - 1.0


class Inputs:
    """Seeded points and right-hand sides, plus the lazily built operator."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed
        p = wl.params
        if wl.scene == "cube":
            self.points = jittered_cube(wl.size, seed)
        else:  # the lattice geometry is fixed; the seed drives the rhs
            self.points = sphere_lattice(4, 4, 4, 1, 4.0, 1.0).points
        self.kernel = (benchmark_kernel(p["d"]) if wl.kernel == "benchmark"
                       else rpy_kernel(p["radius"], p["viscosity"]))
        dim = len(self.points) * self.kernel.block_dim
        rng = np.random.Generator(np.random.PCG64([seed, 1]))
        self.B = rng.standard_normal((dim, BLOCK))
        self.G = rng.standard_normal((dim, wl.gmres_rhs))
        self.sample = np.sort(rng.choice(len(self.points), SAMPLE_POINTS,
                                         replace=False))
        self.dense = None
        self.first = None   # outputs and residuals of the first round

    def operator(self, ops):
        """GMRES operator; the dense one is built once, after the first
        factorize, so that peak_rss_mb does not include it."""
        if self.wl.gmres_operator == "h2":
            return lambda v: h2_matvec(ops, v)
        if self.dense is None:
            self.dense = dense_matrix(self.points, self.kernel, chunk=128)
        A = self.dense
        return lambda v: A @ v


def _wrap_library(tracer: Tracer) -> None:
    f, lr = ifmm.factor, ifmm.lowrank
    tracer.wrap(f, "estimate_sigma0", "graph.estimate_sigma0")
    tracer.wrap(f, "eliminate_level",
                lambda *a, **k: f"factor.l{a[1] if len(a) > 1 else k['level']}"
                                ".eliminate")
    tracer.wrap(f, "merge_to_parent", "factor.merge_to_parent")
    tracer.wrap(f, "redirect_fillin", "factor.redirect_fillin")
    tracer.wrap(f, "truncated_svd", "lowrank.truncated_svd")
    tracer.wrap(f, "randomized_svd_dense", "lowrank.randomized_svd_dense")
    tracer.wrap(f, "weighted_basis_union", "lowrank.weighted_basis_union")
    tracer.wrap(lr, "aca_svd", "lowrank.aca_svd")
    tracer.wrap(f.IFMMFactorization, "solve", "factor.solve")


def array_bytes(root) -> int:
    """Bytes of every distinct numpy buffer reachable from `root`.

    Walks containers and object attributes generically, so that a typed
    event record holding arrays is counted like a tuple. A view counts as
    the array that owns its memory.
    """
    seen: set[int] = set()
    total = 0
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is not obj:
                if id(base) in seen:
                    continue
                seen.add(id(base))
            total += base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif obj is None or isinstance(obj, (str, bytes, int, float, type)):
            continue
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__slots__"):
            stack.extend(getattr(obj, s) for s in obj.__slots__ if hasattr(obj, s))
    return total


def _rel(v, ref) -> float:
    return float(np.linalg.norm(v) / np.linalg.norm(ref))


def run_round(inp: Inputs, tracer: Tracer) -> dict:
    """One pass through the pipeline; timings, counts and check results."""
    wl = inp.wl
    span = tracer.span
    attempted = failed = 0
    gc.collect()  # start every round from a collected heap
    wall0 = time.perf_counter()
    probe_s = probe.sample(PROBE_SLICES)
    t0 = time.perf_counter()
    with span("round"):
        with span("tree.build_octree"):
            tree, _ = build_octree(inp.points, wl.leaf_target)
        with span("tree.compute_topology"):
            topo = compute_topology(tree)
        with span("h2.chebyshev_operators"):
            ops = chebyshev_operators(tree, topo, inp.kernel, wl.cheb,
                                      epsilon=wl.epsilon)
        with span("h2.initialize_weights"):
            initialize_weights(ops, topo)
        with span("graph.assemble_extended_graph"):
            graph = assemble_extended_graph(ops)
        attempted += 5
        setup_s = time.perf_counter() - t0
        probe_s += probe.sample(PROBE_SLICES)
        edges0 = graph.num_edges

        t0 = time.perf_counter()
        with span("factor.factorize"):
            fct = factorize(graph, wl.epsilon, seed=inp.seed)
        attempted += 1
        factor_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_s += probe.sample(PROBE_SLICES)
        del graph  # factorize consumed it; the factor holds what solve needs

        # one sample per right-hand side: a run's mean over BLOCK * rounds
        # solves is steadier than over one block time per round
        rhs_times = []
        with span("solve.block"):
            attempted += 1
            t0 = time.perf_counter()
            try:
                X = fct.solve(inp.B)
                rhs_times.append((time.perf_counter() - t0) / BLOCK)
            except ValueError:  # the named 2-D right-hand-side fault
                failed += 1
                attempted += BLOCK
                cols = []
                for j in range(BLOCK):
                    t0 = time.perf_counter()
                    cols.append(fct.solve(inp.B[:, j]))
                    rhs_times.append(time.perf_counter() - t0)
                X = np.column_stack(cols)

        t0 = time.perf_counter()
        apply_A = inp.operator(ops)
        build_s = time.perf_counter() - t0
        matvec = tracer.spanned(apply_A, "krylov.matvec")
        precond = tracer.spanned(fct.solve, "krylov.precond")
        t0 = time.perf_counter()
        solutions = []
        for j in range(wl.gmres_rhs):
            with span("krylov.gmres"):
                solutions.append(gmres(matvec, inp.G[:, j], tol=wl.gmres_tol,
                                       max_iters=GMRES_MAX_ITERS,
                                       precond=precond, side="right"))
        attempted += wl.gmres_rhs
        gmres_s = time.perf_counter() - t0
        probe_s += probe.sample(PROBE_SLICES)

        with span("checks"):
            x_sum = fct.solve(inp.B[:, 0] + inp.B[:, 1])
            attempted += 1
            checks = _check(inp, ops, X, x_sum, solutions)
    block_s = BLOCK * statistics.fmean(rhs_times)
    rec = {
        "setup_s": setup_s, "factor_s": factor_s, "rhs_times": rhs_times,
        "probe_s": probe_s,
        "gmres_s": gmres_s, "total_s": setup_s + factor_s + block_s + gmres_s,
        "factor_mb": array_bytes(fct) / 2 ** 20,
        "peak_rss_mb": peak_rss_mb,
        "gmres_iters": sum(tr.iterations for _, tr in solutions),
        "gmres_history": [tr.residual_history for _, tr in solutions],
        "program_timings": dict(fct.timings),
        "attempted": attempted, "failed": failed,
        "measured_s": time.perf_counter() - wall0 - build_s,
        "operator_build_s": build_s,
        "traced": tracer.enabled, **checks,
    }
    rec["res_digits"] = -np.log10(rec["h2_residual"])
    if tracer.enabled:
        rec["layers"] = _layers(SpanStats(tracer.spans), fct, tree, ops,
                                edges0, rec["total_s"])
    return rec


def _check(inp: Inputs, ops, X, x_sum, solutions) -> dict:
    """Checks independent of the library's own accuracy claims.

    The first round checks the residuals in full. Later rounds repeat the
    same computation on the same inputs, so they check that their outputs
    equal the first round's, plus the cheap checks.
    """
    wl, p, B = inp.wl, inp.wl.params, inp.B
    xs = np.column_stack([x for x, _ in solutions])
    errors = []
    lin = _rel(x_sum - X[:, 0] - X[:, 1], X[:, 0] + X[:, 1])
    if not lin <= LINEARITY_TOL:
        errors.append(f"replay not linear: {lin:.3e}")
    if not all(tr.converged for _, tr in solutions):
        errors.append("a GMRES solve did not converge")
    if inp.first is not None:
        ref = inp.first
        for what, new, old in (("block", X, ref["X"]), ("GMRES", xs, ref["xs"])):
            if new.shape != old.shape or not _rel(new - old, old) <= REPEAT_TOL:
                errors.append(f"{what} solution differs from the first round")
        return {**ref["checks"], "errors": errors, "linearity": lin}

    sub = inp.points[inp.sample[:CROSS_POINTS]]
    own = oracle.exact_entries(wl.kernel, p, sub, sub)
    lib = dense_matrix(sub, inp.kernel)
    cross = float(np.abs(own - lib).max() / np.abs(own).max())
    if not cross <= CROSS_TOL:
        errors.append(f"own kernel vs ifmm.dense.dense_matrix: {cross:.3e}")

    if X.shape != B.shape or not np.all(np.isfinite(X)):
        errors.append(f"block solution has shape {X.shape} or non-finite values")
        return {"errors": errors, "h2_residual": float("nan")}

    exact = oracle.sampled_residuals(wl.kernel, p, inp.points, inp.sample, X, B)
    if not exact.max() <= wl.kernel_bound:
        errors.append(f"exact-kernel residual {exact.max():.3e} > "
                      f"{wl.kernel_bound:.1e}")

    h2 = max(_rel(h2_matvec(ops, X[:, j]) - B[:, j], B[:, j])
             for j in range(BLOCK))
    if not h2 <= wl.h2_constant * wl.epsilon:
        errors.append(f"H2 residual {h2:.3e} > {wl.h2_constant:g} * eps")

    G = inp.G
    g_limit = GMRES_RESIDUAL_FACTOR * wl.gmres_tol
    g_exact = oracle.sampled_residuals(wl.kernel, p, inp.points, inp.sample,
                                       xs, G)
    if wl.gmres_operator == "dense":
        g_res = float(g_exact.max())
        g_kernel_bound = g_limit
    else:
        g_res = max(_rel(h2_matvec(ops, xs[:, j]) - G[:, j], G[:, j])
                    for j in range(wl.gmres_rhs))
        g_kernel_bound = wl.kernel_bound
    if not g_res <= g_limit:
        errors.append(f"GMRES residual {g_res:.3e} > {g_limit:.1e}")
    if not g_exact.max() <= g_kernel_bound:
        errors.append(f"GMRES exact-kernel residual {g_exact.max():.3e} > "
                      f"{g_kernel_bound:.1e}")
    checks = {"cross_check": cross, "exact_residual": float(exact.max()),
              "h2_residual": float(h2), "h2_over_eps": float(h2 / wl.epsilon),
              "gmres_residual": g_res,
              "gmres_exact_residual": float(g_exact.max())}
    inp.first = {"X": X, "xs": xs, "checks": checks}
    return {**checks, "errors": errors, "linearity": lin}


def _layers(st: SpanStats, fct, tree, ops, edges0: int, total_s: float) -> dict:
    levels = fct.stats.levels
    kept = sum(ls.compressed_pairs for ls in levels)
    dropped = sum(ls.dropped_pairs for ls in levels)
    T = st.total
    elim = st.total_prefixed("factor.l", ".eliminate")
    factor_total = T.get("factor.factorize", 0.0)
    return {
        "tree.build_s": T.get("tree.build_octree", 0.0),
        "tree.topology_s": T.get("tree.compute_topology", 0.0),
        "tree.clusters": tree.n_clusters,
        "tree.depth": tree.depth,
        "h2.operators_s": T.get("h2.chebyshev_operators", 0.0),
        "h2.weights_s": T.get("h2.initialize_weights", 0.0),
        "h2.max_rank": ops.max_rank(),
        "graph.assemble_s": T.get("graph.assemble_extended_graph", 0.0),
        "graph.sigma0_s": T.get("graph.estimate_sigma0", 0.0),
        "graph.edges": edges0,
        "graph.peak_edges": fct.stats.peak_edges,
        "factor.l2.eliminate_s": T.get("factor.l2.eliminate", 0.0),
        "factor.top_s": factor_total - T.get("graph.estimate_sigma0", 0.0)
                        - elim - T.get("factor.merge_to_parent", 0.0),
        "factor.redirect_s": st.self_time.get("factor.redirect_fillin", 0.0),
        "factor.redirect_calls": st.calls.get("factor.redirect_fillin", 0),
        "factor.fills_kept": kept,
        "factor.fills_dropped": dropped,
        "factor.fill_keep_ratio": kept / (kept + dropped) if kept + dropped else 0.0,
        "factor.max_fill_rank": fct.stats.max_fill_rank,
        "factor.forced_truncations": fct.stats.forced_rank_truncations,
        "lowrank.svd_s": T.get("lowrank.truncated_svd", 0.0),
        "lowrank.svd_calls": st.calls.get("lowrank.truncated_svd", 0),
        "lowrank.rsvd_s": T.get("lowrank.randomized_svd_dense", 0.0),
        "lowrank.rsvd_calls": st.calls.get("lowrank.randomized_svd_dense", 0),
        "lowrank.union_s": T.get("lowrank.weighted_basis_union", 0.0),
        "lowrank.union_calls": st.calls.get("lowrank.weighted_basis_union", 0),
        "lowrank.aca_s": T.get("lowrank.aca_svd", 0.0),
        "lowrank.aca_calls": st.calls.get("lowrank.aca_svd", 0),
        "solve.replay_s": st.median_ok("factor.solve"),
        "solve.calls": st.calls.get("factor.solve", 0),
        "krylov.precond_s": T.get("krylov.precond", 0.0),
        "krylov.matvec_s": T.get("krylov.matvec", 0.0),
        "krylov.arnoldi_s": st.self_time.get("krylov.gmres", 0.0),
        "trace.spans": sum(st.calls.values()),
        "trace.total_s": total_s,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def host_scale(rounds) -> float:
    """PROBE_REF_S over the run's mean probe slice time.

    Slices are capped at twice the run's median slice first: a slice can be
    at most about 1.5x slow from the host's speed state, and the rare longer
    stall in a few hundred short slices would move the mean by chance.
    """
    slices = [t for r in rounds for t in r["probe_s"]]
    cap = 2.0 * statistics.median(slices)
    return PROBE_REF_S / statistics.fmean(min(t, cap) for t in slices)


def _timings(rounds) -> dict:
    """Time metrics at the reference host speed.

    Each phase's mean over the run's rounds (per right-hand side for the
    block solve) is scaled by `host_scale`: on the shared host a phase's
    wall time is its work times the mean slowdown while it ran, and the
    probe's mean over the same run measures that slowdown. The unscaled
    per-round times are kept in the run record.
    """
    scale = host_scale(rounds)
    mean = {k: statistics.fmean(r[k] for r in rounds)
            for k in ("setup_s", "factor_s", "gmres_s")}
    rhs_s = statistics.fmean(t for r in rounds for t in r["rhs_times"])
    out = {k: v * scale for k, v in mean.items()}
    out["rhs_per_s"] = 1.0 / (rhs_s * scale)
    out["total_s"] = (out["setup_s"] + out["factor_s"] + BLOCK * rhs_s * scale
                      + out["gmres_s"])
    return out


def main(name: str, seed: int, seconds: float, trace: bool,
         out_dir: Path, src: Path) -> int:
    if Path(ifmm.__file__).resolve().parent != (src / "ifmm").resolve():
        print(f"error: ifmm imported from {ifmm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[name]
    inp = Inputs(wl, seed)
    tracer = Tracer(enabled=True)
    plain = Tracer(enabled=False)
    rounds, spans = [], []
    while True:
        # a traced run alternates untraced and traced rounds, so that it
        # measures its own overhead
        traced = trace and len(rounds) % 2 == 1
        if traced:
            _wrap_library(tracer)
        try:
            rounds.append(run_round(inp, tracer if traced else plain))
        finally:
            tracer.unwrap_all()
        if traced:
            spans.append({"round": len(rounds) - 1, "spans": tracer.take()})
        measured = sum(r["measured_s"] for r in rounds)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and measured + _median(rounds, "measured_s") > seconds:
            break

    plain_rounds = [r for r in rounds if not r["traced"]]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {k: statistics.median(r["layers"][k] for r in traced_rounds)
                   for k in PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (metrics["trace.total_s"]
                                       - _median(plain_rounds, "total_s"))
        units = PER_LAYER
    else:
        metrics = {k: _median(plain_rounds, k)
                   for k in ("factor_mb", "res_digits", "gmres_iters")}
        metrics["peak_rss_mb"] = rounds[0]["peak_rss_mb"]
        metrics.update(_timings(plain_rounds))
        units = END_TO_END
    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-s{seed}-t{int(trace)}"
    record = {"workload": asdict(wl), "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "host_scale": host_scale(plain_rounds),
              "absent": tracer.absent, "rounds": rounds, "result": result}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "fields":
             ["name", "start", "end", "parent", "ok"], "rounds": spans}))

    for e in sorted(set(errors)):
        print(f"check failed: {e}", file=sys.stderr)
    for a in tracer.absent:
        print(f"traced name absent, its metrics read 0: {a}", file=sys.stderr)
    env = record["environment"]
    print(f"# {name} seed={seed} rounds={len(rounds)} "
          f"threads={env['threads']['OPENBLAS_NUM_THREADS']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas='{env['blas']}' nproc={env['nproc']}")
    for k, m in result["metrics"].items():
        print(f"# {k:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
