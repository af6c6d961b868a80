"""Experiment runners: direct solves, preconditioned GMRES, scaling sweeps.

`run` picks the runner `config.mode` names. Each runner builds the
scene/tree/operators pipeline, runs its solver, and returns a RunReport.
`config.dense_cap` is the one size rule for the dense matrix: runs of at
most that many unknowns are checked against it, larger ones measure
residuals through the fast matvec, and the block-diagonal preconditioner,
cut from the dense matrix, refuses them. All randomness is seeded
through the config, so reruns with the same config produce identical
non-timing fields.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels
from .dense import dense_matrix
from .factor import FactorStats, IFMMFactorization, factorize
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
    t_sigma0 = fct.stats.sigma0_s
    extra = {"t_graph": t_graph, "t_sigma0": t_sigma0,
             "t_elimination": time.perf_counter() - t0 - t_sigma0}
    return fct, extra


def _report(config, pipe, fct, extra, t_sub, x_hat, x_true, b, apply_A,
            iteration=None) -> RunReport:
    """Errors of `x_hat` against `x_true` and of A x_hat against `b`, with
    the stage times: `extra` as `build_factorization` gives it, and `t_sub`
    the solve time. `fct` is None for runs without an IFMM factor: empty
    stats, zero times."""
    rel_err = float(np.linalg.norm(x_hat - x_true) / np.linalg.norm(x_true))
    rel_res = float(np.linalg.norm(apply_A(x_hat) - b) / np.linalg.norm(b))
    timings = {"initialization": pipe.t_init + extra["t_graph"],
               "sigma0_estimation": extra["t_sigma0"],
               "elimination": extra["t_elimination"],
               "substitution": t_sub,
               "total": pipe.t_init + extra["t_graph"] + extra["t_sigma0"]
                        + extra["t_elimination"] + t_sub}
    errors = {"relative_error": rel_err, "relative_residual": rel_res}
    stats = fct.stats if fct is not None else FactorStats()
    rank_stats = {
        "max_basis_rank": stats.max_basis_rank,
        "max_fill_rank": stats.max_fill_rank,
        "per_level": [{**asdict(ls), "dropped_mass_eps_sigma0":
                       ls.dropped_mass / (fct.epsilon * fct.sigma0)}
                      for ls in stats.levels],
    }
    edge_stats = {"peak_edges": stats.peak_edges,
                  "n_clusters": stats.n_clusters,
                  "edge_bound_constant": stats.edge_bound_constant}
    cfg = {"kernel": config.kernel, "n_points": pipe.ops.tree.n_points,
           "distribution": config.distribution, "cheb_nodes": config.cheb_nodes,
           "epsilon": config.epsilon, "leaf_target": config.leaf_target,
           "seed": config.seed, "mode": config.mode,
           "d": config.effective_d() if config.kernel == "benchmark" else None,
           "precond": config.precond, "precond_side": config.precond_side,
           "gmres_tol": config.gmres_tol, "max_iters": config.max_iters}
    return RunReport(SCHEMA_VERSION, cfg, timings, stats.timings, rank_stats,
                     edge_stats, errors, iteration)


def known_solution(config: RunConfig):
    """The pipeline, a seeded `x_true`, `b = A x_true`, the matvec that
    made `b` and the dense matrix. At most `config.dense_cap` unknowns the
    matvec is the exact dense one; above it, the fast hierarchical matvec,
    and the dense matrix is None."""
    pipe = build_pipeline(config)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    x_true = rng.standard_normal(pipe.dim)
    if pipe.dim <= config.dense_cap:
        A = dense_matrix(pipe.scene.points, pipe.kernel)
        apply_A = lambda v: A @ v
    else:
        A = None
        apply_A = lambda v: h2_matvec(pipe.ops, v)
    return pipe, x_true, apply_A(x_true), apply_A, A


def run_direct(config: RunConfig) -> RunReport:
    """Factorize once, solve once, compare against the known solution."""
    pipe, x_true, b, apply_A, _ = known_solution(config)
    fct, extra = build_factorization(pipe, config)
    t0 = time.perf_counter()
    x_hat = fct.solve(b)
    t_sub = time.perf_counter() - t0
    return _report(config, pipe, fct, extra, t_sub, x_hat, x_true, b, apply_A)


def run_iterative(config: RunConfig) -> RunReport:
    """GMRES with the configured preconditioner; counts iterations. Blockdiag
    cuts its blocks from the dense matrix, so it obeys `config.dense_cap`."""
    pipe, x_true, b, apply_A, A_dense = known_solution(config)
    precond = None
    fct = None
    extra = {"t_graph": 0.0, "t_elimination": 0.0, "t_sigma0": 0.0}
    if config.precond == "ifmm":
        fct, extra = build_factorization(pipe, config)
        precond = fct.solve
    elif config.precond == "blockdiag":
        if A_dense is None:
            raise ValueError(f"precond 'blockdiag' needs the dense matrix, but "
                             f"dimension {pipe.dim} exceeds dense_cap="
                             f"{config.dense_cap}; raise dense_cap")
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
    iteration = {"iterations": trace.iterations, "converged": trace.converged,
                 "side": trace.side,
                 "residual_history": [float(r) for r in trace.residual_history]}
    return _report(config, pipe, fct, extra, t_sub, x_hat, x_true, b, apply_A,
                   iteration)


def run(config: RunConfig) -> RunReport:
    """Run the experiment `config.mode` names: "direct" or "gmres"."""
    if config.mode == "direct":
        return run_direct(config)
    if config.mode == "gmres":
        return run_iterative(config)
    raise ValueError(f"unknown mode '{config.mode}': use 'direct' or 'gmres'")


def run_scaling(config: RunConfig, n_values: list[int]) -> list[RunReport]:
    """Sweep over N at fixed n in the config's mode; one report per size."""
    return [run(replace(config, n_points=n)) for n in n_values]


def fit_loglog_slope(ns: list[int], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(N); needs at least two
    distinct N."""
    if len(set(ns)) < 2:
        raise ValueError(f"a log-log slope needs at least two distinct N, "
                         f"got {list(ns)}")
    coeffs = np.polyfit(np.log(np.asarray(ns, dtype=float)),
                        np.log(np.asarray(times, dtype=float)), 1)
    return float(coeffs[0])

