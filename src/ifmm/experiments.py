"""Experiment runners: direct solves, preconditioned GMRES, scaling sweeps.

Each runner builds the scene/tree/operators pipeline, runs the requested
solver, and returns a RunReport. Problems small enough for the dense
oracle are checked against it; larger ones measure residuals through the
fast matvec. All randomness is seeded through the config, so reruns with
the same config produce identical non-timing fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .dense import dense_matrix
from .factor import TIMING_KEYS, FactorStats, IFMMFactorization, factorize
from .graph import assemble_extended_graph
from .h2 import H2Operators, chebyshev_operators, initialize_weights
from .krylov import block_diag_preconditioner, gmres, h2_matvec
from .reports import SCHEMA_VERSION, RunReport
from .tree import build_octree, compute_topology


@dataclass
class RunConfig:
    kernel: str = "benchmark"            # benchmark | rpy
    n_points: int = 1000
    distribution: str = "cube"           # sphere | cube | lattice | shells
    cheb_nodes: int = 3
    epsilon: float = 1e-3
    leaf_target: int = 100
    d: float = 1e-3
    d_scaling: str = "none"              # none | sphere | cube
    mode: str = "direct"                 # direct | gmres
    precond: str = "none"                # none | blockdiag | ifmm
    precond_side: str = "right"
    gmres_tol: float = 1e-10
    max_iters: int = 500
    seed: int = 0
    depth: int | None = None
    # rpy/scene parameters
    rpy_radius: float = 0.25
    viscosity: float = 1.0
    lattice_shape: tuple[int, int, int] = (4, 4, 4)
    lattice_spacing: float = 4.0
    body_radius: float = 1.0
    subdivision: int = 1
    shell_subdivisions: tuple[int, ...] = (1, 2, 3)
    shell_radii: tuple[float, ...] | None = None
    blockdiag_size: int = 126
    # implementation knobs
    dense_cap: int = 25000               # largest dim assembled densely

    def scene(self) -> kernels.Scene:
        if self.distribution == "sphere":
            return kernels.sphere_surface(self.n_points, self.seed)
        if self.distribution == "cube":
            return kernels.cube_uniform(self.n_points, self.seed)
        if self.distribution == "lattice":
            nx, ny, nz = self.lattice_shape
            return kernels.sphere_lattice(nx, ny, nz, self.subdivision,
                                          self.lattice_spacing, self.body_radius)
        if self.distribution == "shells":
            radii = self.shell_radii
            if radii is None:
                radii = tuple(float(2 ** i) for i in range(len(self.shell_subdivisions)))
            return kernels.concentric_shells(list(self.shell_subdivisions),
                                             list(radii))
        raise ValueError(f"unknown distribution '{self.distribution}'")

    def make_kernel(self) -> kernels.Kernel:
        if self.kernel == "benchmark":
            return kernels.benchmark_kernel(self.effective_d())
        if self.kernel == "rpy":
            return kernels.rpy_kernel(self.rpy_radius, self.viscosity)
        raise ValueError(f"unknown kernel '{self.kernel}'")

    def effective_d(self) -> float:
        if self.d_scaling == "none":
            return self.d
        if self.d_scaling == "sphere":
            return kernels.scaled_d(self.d, self.n_points, -0.5)
        if self.d_scaling == "cube":
            return kernels.scaled_d(self.d, self.n_points, -1.0 / 3.0)
        raise ValueError(f"unknown d_scaling '{self.d_scaling}'")


@dataclass
class Pipeline:
    scene: kernels.Scene
    kernel: kernels.Kernel
    ops: H2Operators
    t_init: float
    dim: int


def build_pipeline(config: RunConfig) -> Pipeline:
    scene = config.scene()
    kern = config.make_kernel()
    t0 = time.perf_counter()
    tree, _ = build_octree(scene.points, config.leaf_target, depth=config.depth)
    topo = compute_topology(tree)
    ops = chebyshev_operators(tree, topo, kern, config.cheb_nodes,
                              epsilon=config.epsilon)
    initialize_weights(ops, topo)
    t_init = time.perf_counter() - t0
    return Pipeline(scene, kern, ops, t_init, ops.dim)


def build_factorization(pipe: Pipeline, config: RunConfig
                        ) -> tuple[IFMMFactorization, dict]:
    t0 = time.perf_counter()
    graph = assemble_extended_graph(pipe.ops)
    t_graph = time.perf_counter() - t0
    t0 = time.perf_counter()
    fct = factorize(graph, config.epsilon, seed=config.seed)
    t_elim = time.perf_counter() - t0 - fct.timings["sigma0_estimation"]
    extra = {"t_graph": t_graph, "t_elimination": t_elim,
             "t_sigma0": fct.timings["sigma0_estimation"]}
    return fct, extra


def _report(config, pipe, fct, timings, errors, iteration=None) -> RunReport:
    """`fct` is None for runs without an IFMM factor: empty stats, zero times."""
    stats, factor_times = ((fct.stats, fct.timings) if fct is not None
                           else (FactorStats(), dict.fromkeys(TIMING_KEYS, 0.0)))
    rank_stats = {
        "max_basis_rank": stats.max_basis_rank,
        "max_fill_rank": stats.max_fill_rank,
        "per_level": [{"level": ls.level,
                       "compressed_pairs": ls.compressed_pairs,
                       "dropped_pairs": ls.dropped_pairs,
                       "max_rank": ls.max_rank,
                       "mean_rank": round(ls.mean_rank, 3),
                       "compress_time": round(ls.compress_time, 6)}
                      for ls in stats.levels],
    }
    edge_stats = {"peak_edges": stats.peak_edges,
                  "n_clusters": stats.n_clusters,
                  "edge_bound_constant": stats.edge_bound_constant}
    breakdown = {k: factor_times[k] for k in TIMING_KEYS}
    cfg = {"kernel": config.kernel, "n_points": pipe.ops.tree.n_points,
           "distribution": config.distribution, "cheb_nodes": config.cheb_nodes,
           "epsilon": config.epsilon, "leaf_target": config.leaf_target,
           "seed": config.seed, "mode": config.mode,
           "d": config.effective_d() if config.kernel == "benchmark" else None,
           "precond": config.precond, "precond_side": config.precond_side,
           "gmres_tol": config.gmres_tol, "max_iters": config.max_iters}
    return RunReport(SCHEMA_VERSION, cfg, timings, breakdown, rank_stats,
                     edge_stats, errors, iteration)


def _matvec_oracle(pipe: Pipeline, config: RunConfig):
    """Dense exact matvec below the cap, fast hierarchical matvec above."""
    if pipe.dim <= config.dense_cap:
        A = dense_matrix(pipe.scene.points, pipe.kernel)
        return (lambda v: A @ v), A
    return (lambda v: h2_matvec(pipe.ops, v)), None


def run_direct(config: RunConfig) -> RunReport:
    """Factorize once, solve once, compare against the known solution."""
    pipe = build_pipeline(config)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    x_true = rng.standard_normal(pipe.dim)
    apply_A, _ = _matvec_oracle(pipe, config)
    b = apply_A(x_true)

    fct, extra = build_factorization(pipe, config)
    t0 = time.perf_counter()
    x_hat = fct.solve(b)
    t_sub = time.perf_counter() - t0

    rel_err = float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))
    rel_res = float(np.linalg.norm(apply_A(x_hat) - b) / np.linalg.norm(b))
    timings = {"initialization": pipe.t_init + extra["t_graph"],
               "sigma0_estimation": extra["t_sigma0"],
               "elimination": extra["t_elimination"],
               "substitution": t_sub,
               "total": pipe.t_init + extra["t_graph"] + extra["t_sigma0"]
                        + extra["t_elimination"] + t_sub}
    errors = {"relative_error": rel_err, "relative_residual": rel_res}
    return _report(config, pipe, fct, timings, errors)


def run_iterative(config: RunConfig) -> RunReport:
    """GMRES with the configured preconditioner; counts iterations."""
    pipe = build_pipeline(config)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    x_true = rng.standard_normal(pipe.dim)
    apply_A, A_dense = _matvec_oracle(pipe, config)
    b = apply_A(x_true)

    precond = None
    fct = None
    extra = {"t_graph": 0.0, "t_elimination": 0.0, "t_sigma0": 0.0}
    if config.precond == "ifmm":
        fct, extra = build_factorization(pipe, config)
        precond = fct.solve
    elif config.precond == "blockdiag":
        if A_dense is None:
            A_dense = dense_matrix(pipe.scene.points, pipe.kernel)
        t0 = time.perf_counter()
        precond = block_diag_preconditioner(A_dense, config.blockdiag_size)
        extra["t_elimination"] = time.perf_counter() - t0
    elif config.precond != "none":
        raise ValueError(f"unknown preconditioner '{config.precond}'")

    t0 = time.perf_counter()
    x_hat, trace = gmres(apply_A, b, tol=config.gmres_tol,
                         max_iters=config.max_iters, precond=precond,
                         side=config.precond_side)
    t_sub = time.perf_counter() - t0

    rel_err = float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))
    rel_res = float(np.linalg.norm(apply_A(x_hat) - b) / np.linalg.norm(b))
    timings = {"initialization": pipe.t_init + extra["t_graph"],
               "sigma0_estimation": extra["t_sigma0"],
               "elimination": extra["t_elimination"],
               "substitution": t_sub,
               "total": pipe.t_init + extra["t_graph"] + extra["t_sigma0"]
                        + extra["t_elimination"] + t_sub}
    errors = {"relative_error": rel_err, "relative_residual": rel_res}
    iteration = {"iterations": trace.iterations, "converged": trace.converged,
                 "side": trace.side,
                 "residual_history": [float(r) for r in trace.residual_history]}
    return _report(config, pipe, fct, timings, errors, iteration)


def run_scaling(config: RunConfig, n_values: list[int]) -> list[RunReport]:
    """Direct-solver sweep over N at fixed n; one report per size."""
    return [run_direct(replace(config, n_points=n)) for n in n_values]


def fit_loglog_slope(ns: list[int], times: list[float]) -> float:
    coeffs = np.polyfit(np.log(np.asarray(ns, dtype=float)),
                        np.log(np.asarray(times, dtype=float)), 1)
    return float(coeffs[0])


def run_stokes(config: RunConfig) -> RunReport:
    """RPY mobility solve on a rigid-body scene via GMRES."""
    cfg = replace(config, kernel="rpy", mode="gmres")
    if cfg.distribution not in ("lattice", "shells"):
        raise ValueError("stokes runs use the lattice or shells distribution")
    return run_iterative(cfg)
