"""Benchmark CLI: one experiment per invocation, JSON/CSV reports."""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (RunConfig, fit_loglog_slope, run_direct,
                          run_iterative, run_scaling)
from .graph import assemble_extended_graph
from .kernels import scene_to_text
from .reports import write_csv


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ifmm-bench",
        description="Fast direct solver / preconditioner benchmarks for "
                    "dense kernel matrices.")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with flag defaults (underscored keys); "
                        "command-line flags override it")
    p.add_argument("--kernel", choices=["benchmark", "rpy"], default="benchmark")
    p.add_argument("--n-points", type=int, default=1000,
                   help="point count (sphere/cube distributions)")
    p.add_argument("--sweep", type=str, default=None,
                   help="comma-separated N list; runs a scaling sweep")
    p.add_argument("--distribution",
                   choices=["sphere", "cube", "lattice", "shells"],
                   default="cube")
    p.add_argument("--cheb-nodes", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--leaf-target", type=int, default=100)
    p.add_argument("--d", type=float, default=1e-3)
    p.add_argument("--d-scaling", choices=["none", "sphere", "cube"],
                   default="none")
    p.add_argument("--mode", choices=["direct", "gmres"], default="direct")
    p.add_argument("--precond", choices=["none", "blockdiag", "ifmm"],
                   default="none")
    p.add_argument("--precond-side", choices=["left", "right"], default="right")
    p.add_argument("--gmres-tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=None,
                   help="force the octree depth (default: automatic)")
    # rpy / rigid-body scene parameters
    p.add_argument("--rpy-radius", type=float, default=0.25)
    p.add_argument("--viscosity", type=float, default=1.0)
    p.add_argument("--lattice", type=str, default="4,4,4",
                   help="lattice shape nx,ny,nz")
    p.add_argument("--lattice-spacing", type=float, default=4.0)
    p.add_argument("--body-radius", type=float, default=1.0)
    p.add_argument("--subdivision", type=int, default=1,
                   help="icosphere subdivision for lattice bodies")
    p.add_argument("--shell-subdivisions", type=str, default="1,2,3")
    p.add_argument("--shell-radii", type=str, default=None,
                   help="comma-separated radii (default: doubling from 1)")
    p.add_argument("--blockdiag-size", type=int, default=126)
    p.add_argument("--dense-cap", type=int, default=25000,
                   help="largest dimension using exact dense matvecs")
    # outputs
    p.add_argument("--out", type=str, default=None, help="report path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--scene-out", type=str, default=None,
                   help="export the generated scene as x y z text")
    p.add_argument("--dump-pattern", type=str, default=None,
                   help="dump the extended sparsity pattern as JSON")
    return p


def config_from_args(args) -> RunConfig:
    return RunConfig(
        kernel=args.kernel,
        n_points=args.n_points,
        distribution=args.distribution,
        cheb_nodes=args.cheb_nodes,
        epsilon=args.epsilon,
        leaf_target=args.leaf_target,
        d=args.d,
        d_scaling=args.d_scaling,
        mode=args.mode,
        precond=args.precond,
        precond_side=args.precond_side,
        gmres_tol=args.gmres_tol,
        max_iters=args.max_iters,
        seed=args.seed,
        depth=args.depth,
        rpy_radius=args.rpy_radius,
        viscosity=args.viscosity,
        lattice_shape=tuple(int(v) for v in args.lattice.split(",")),
        lattice_spacing=args.lattice_spacing,
        body_radius=args.body_radius,
        subdivision=args.subdivision,
        shell_subdivisions=tuple(int(v) for v in
                                 args.shell_subdivisions.split(",")),
        shell_radii=(tuple(float(v) for v in args.shell_radii.split(","))
                     if args.shell_radii else None),
        blockdiag_size=args.blockdiag_size,
        dense_cap=args.dense_cap,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            defaults = json.load(fh)
        unknown = set(defaults) - set(vars(args))
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    config = config_from_args(args)

    if args.scene_out:
        scene_to_text(config.scene(), args.scene_out)
        print(f"scene written to {args.scene_out}")

    if args.dump_pattern:
        from .experiments import build_pipeline
        pipe = build_pipeline(config)
        graph = assemble_extended_graph(pipe.ops)
        with open(args.dump_pattern, "w") as fh:
            json.dump(graph.sparsity_pattern(), fh)
        print(f"sparsity pattern written to {args.dump_pattern}")

    if args.sweep:
        ns = [int(v) for v in args.sweep.split(",")]
        reports = run_scaling(config, ns)
        times = [r.timings["total"] for r in reports]
        slope = fit_loglog_slope(ns, times)
        print(f"scaling sweep over N={ns}")
        for n, r in zip(ns, reports):
            print(f"  N={n:>8d}  total={r.timings['total']:.3f}s  "
                  f"err={r.errors['relative_error']:.3e}  "
                  f"max_rank={r.rank_stats['max_basis_rank']}")
        print(f"fitted log-log slope: {slope:.3f}")
        if args.out:
            if args.format == "csv":
                write_csv(reports, args.out)
            else:
                with open(args.out, "w") as fh:
                    json.dump({"slope": slope,
                               "runs": [r.to_dict() for r in reports]}, fh,
                              indent=2)
            print(f"report written to {args.out}")
        return 0

    if args.mode == "direct":
        report = run_direct(config)
    else:
        report = run_iterative(config)

    summary = {
        "total_time": round(report.timings["total"], 4),
        "relative_error": report.errors.get("relative_error"),
        "relative_residual": report.errors.get("relative_residual"),
    }
    if report.iteration:
        summary["iterations"] = report.iteration["iterations"]
        summary["converged"] = report.iteration["converged"]
    print(json.dumps(summary, indent=2))

    if args.out:
        if args.format == "csv":
            write_csv([report], args.out)
        else:
            report.to_json(args.out)
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
