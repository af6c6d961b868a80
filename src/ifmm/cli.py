"""Benchmark CLI: one experiment per invocation, JSON/CSV reports.

Every `RunConfig` field is a flag of the same name (underscores become
dashes), with the field's default and a type taken from that default;
`FLAG_EXTRAS` adds what a field cannot say about its flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .experiments import (RunConfig, build_pipeline, fit_loglog_slope, run,
                          run_scaling)
from .graph import assemble_extended_graph
from .kernels import scene_to_text
from .reports import write_csv


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# per RunConfig field: choices, help, a parser where the default's type is
# not one, and a flag name that is not the field's
FLAG_EXTRAS = {
    "kernel": dict(choices=["benchmark", "rpy"]),
    "n_points": dict(help="point count (sphere/cube distributions)"),
    "distribution": dict(choices=["sphere", "cube", "lattice", "shells"]),
    "d_scaling": dict(choices=["none", "sphere", "cube"]),
    "mode": dict(choices=["direct", "gmres"]),
    "precond": dict(choices=["none", "blockdiag", "ifmm"]),
    "precond_side": dict(choices=["left", "right"]),
    "depth": dict(type=int, help="force the octree depth (default: automatic)"),
    "lattice_shape": dict(flag="--lattice", type=_ints,
                          help="lattice shape nx,ny,nz"),
    "subdivision": dict(help="icosphere subdivision for lattice bodies"),
    "shell_subdivisions": dict(type=_ints),
    "shell_radii": dict(type=_floats,
                        help="comma-separated radii (default: doubling from 1)"),
    "dense_cap": dict(help="largest dimension for which the dense matrix is "
                           "built: the exact matvec and --precond blockdiag "
                           "need it"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ifmm-bench",
        description="Fast direct solver / preconditioner benchmarks for "
                    "dense kernel matrices.")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with flag defaults, keyed by RunConfig "
                        "field name or flag dest; command-line flags "
                        "override it")
    for f in fields(RunConfig):
        extra = dict(FLAG_EXTRAS.get(f.name, {}))
        flag = extra.pop("flag", "--" + f.name.replace("_", "-"))
        extra.setdefault("type", type(f.default))
        p.add_argument(flag, dest=f.name, default=f.default, **extra)
    p.add_argument("--sweep", type=_ints, default=None,
                   help="comma-separated N list; runs a scaling sweep in "
                        "--mode")
    # outputs
    p.add_argument("--out", type=str, default=None, help="report path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--scene-out", type=str, default=None,
                   help="export the generated scene as x y z text")
    p.add_argument("--dump-pattern", type=str, default=None,
                   help="dump the extended sparsity pattern as JSON")
    return p


def config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


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
    if args.sweep and len(set(args.sweep)) < 2:
        parser.error("--sweep needs at least two distinct N to fit a slope")
    config = config_from_args(args)

    if args.scene_out:
        scene_to_text(config.scene(), args.scene_out)
        print(f"scene written to {args.scene_out}")

    if args.dump_pattern:
        pipe = build_pipeline(config)
        graph = assemble_extended_graph(pipe.ops)
        with open(args.dump_pattern, "w") as fh:
            json.dump(graph.sparsity_pattern(), fh)
        print(f"sparsity pattern written to {args.dump_pattern}")

    if args.sweep:
        ns = args.sweep
        reports = run_scaling(config, ns)
        slope = fit_loglog_slope(ns, [r.timings["total"] for r in reports])
        print(f"scaling sweep over N={list(ns)} ({config.mode})")
        for n, r in zip(ns, reports):
            print(f"  N={n:>8d}  total={r.timings['total']:.3f}s  "
                  f"err={r.errors['relative_error']:.3e}  "
                  f"max_rank={r.rank_stats['max_basis_rank']}")
        print(f"fitted log-log slope: {slope:.3f}")
        payload = {"slope": slope, "runs": [r.to_dict() for r in reports]}
    else:
        report = run(config)
        reports, payload = [report], report.to_dict()
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
            write_csv(reports, args.out)
        else:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
