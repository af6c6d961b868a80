import csv
import json
import shlex
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from ifmm import cli, experiments
from ifmm.cli import build_parser, config_from_args, main
from ifmm.dense import dense_matrix
from ifmm.experiments import (RunConfig, fit_loglog_slope, run, run_direct,
                              run_iterative, run_scaling)
from ifmm.krylov import h2_matvec
from ifmm.reports import validate_report


def small_config(**kw):
    base = dict(kernel="benchmark", n_points=300, distribution="cube",
                cheb_nodes=2, epsilon=1e-3, leaf_target=30, d=1e-2,
                seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_run_direct_report_validates():
    report = run_direct(small_config())
    d = report.to_dict()
    validate_report(d)
    assert d["errors"]["relative_error"] < 1e-2
    assert all(d["timings"][k] >= 0 for k in d["timings"])
    assert d["timings"]["total"] > 0
    parts = (d["timings"]["initialization"] + d["timings"]["sigma0_estimation"]
             + d["timings"]["elimination"] + d["timings"]["substitution"])
    assert parts <= 1.05 * d["timings"]["total"]
    # the level phases, sigma0_s and top_s account for all of factorize
    factorize_s = d["timings"]["elimination"] + d["timings"]["sigma0_estimation"]
    breakdown = d["elimination_breakdown"]
    assert breakdown == {k: v for k, v in breakdown.items() if k.endswith("_s")}
    assert abs(sum(breakdown.values()) - factorize_s) <= 0.05 * factorize_s + 0.01
    assert d["rank_stats"]["per_level"]
    for lvl in d["rank_stats"]["per_level"]:
        assert lvl["step_bytes"] > 0 and lvl["peak_edges"] > 0


def strip_times(rank_stats):
    return {**rank_stats,
            "per_level": [{k: v for k, v in lvl.items() if not k.endswith("_s")}
                          for lvl in rank_stats["per_level"]]}


def test_run_direct_deterministic():
    r1 = run_direct(small_config())
    r2 = run_direct(small_config())
    assert r1.errors == r2.errors
    assert strip_times(r1.rank_stats) == strip_times(r2.rank_stats)
    assert r1.edge_stats == r2.edge_stats


def test_run_direct_single_leaf_override():
    report = run_direct(small_config(n_points=100, depth=0))
    assert report.errors["relative_error"] <= 1e-10


def test_run_direct_sphere_high_order():
    cfg = small_config(n_points=1000, distribution="sphere", cheb_nodes=4,
                       d=1e-3, d_scaling="sphere", leaf_target=100)
    report = run_direct(cfg)
    assert report.errors["relative_error"] < 1e-2
    assert all(v > 0 for k, v in report.timings.items()
               if k != "sigma0_estimation") and \
        report.timings["sigma0_estimation"] >= 0


def test_run_iterative_ifmm_beats_none():
    none = run_iterative(small_config(mode="gmres", precond="none",
                                      n_points=800))
    pc = run_iterative(small_config(mode="gmres", precond="ifmm",
                                    n_points=800))
    validate_report(pc.to_dict())
    assert pc.iteration["converged"]
    assert pc.iteration["iterations"] <= none.iteration["iterations"]


def test_run_iterative_near_exact_preconditioner():
    cfg = small_config(mode="gmres", precond="ifmm", n_points=500,
                       cheb_nodes=6, epsilon=1e-10, leaf_target=100)
    r = run_iterative(cfg)
    assert r.iteration["iterations"] <= 2


def test_run_scaling_and_slope():
    reports = run_scaling(small_config(distribution="sphere",
                                       d_scaling="sphere", d=1e-3),
                          [400, 800])
    assert len(reports) == 2
    assert reports[0].config["n_points"] == 400
    slope = fit_loglog_slope([400, 800],
                             [r.timings["total"] for r in reports])
    assert np.isfinite(slope)


def test_fit_loglog_slope_needs_two_distinct_n():
    for ns in ([1000], [1000, 1000]):
        with pytest.raises(ValueError, match="two distinct N"):
            fit_loglog_slope(ns, [0.5] * len(ns))


def test_blockdiag_above_dense_cap_raises(monkeypatch):
    sizes = []

    def recording_dense_matrix(points, kernel, *args, **kw):
        sizes.append(len(points))
        return dense_matrix(points, kernel, *args, **kw)

    monkeypatch.setattr(experiments, "dense_matrix", recording_dense_matrix)
    cfg = RunConfig(n_points=600, cheb_nodes=2, d=1e-2, leaf_target=40,
                    mode="gmres", precond="blockdiag", blockdiag_size=60,
                    dense_cap=500)
    with pytest.raises(ValueError, match="dense_cap=500"):
        run(cfg)
    assert 600 not in sizes


def test_run_stokes_small_lattice():
    cfg = small_config(kernel="rpy", distribution="lattice",
                       lattice_shape=(2, 2, 1), subdivision=1,
                       lattice_spacing=4.0, mode="gmres", precond="blockdiag",
                       blockdiag_size=126, gmres_tol=1e-8)
    r = run(cfg)
    validate_report(r.to_dict())
    assert r.iteration["converged"]


def test_cli_direct_json(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["--kernel", "benchmark", "--n-points", "300",
               "--distribution", "cube", "--cheb-nodes", "2",
               "--epsilon", "1e-3", "--leaf-target", "30", "--d", "1e-2",
               "--mode", "direct", "--seed", "0", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    validate_report(data)


def test_cli_gmres_csv(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["--n-points", "400", "--mode", "gmres", "--precond", "ifmm",
               "--leaf-target", "40", "--d", "1e-2", "--cheb-nodes", "2",
               "--out", str(out), "--format", "csv"])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert int(rows[0]["iterations"]) >= 1


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["--distribution", "sphere", "--sweep", "300,600",
               "--cheb-nodes", "2", "--leaf-target", "30",
               "--d-scaling", "sphere", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["runs"]) == 2
    for run in data["runs"]:
        validate_report(run)


def test_cli_single_n_sweep_is_usage_error(monkeypatch):
    def never(*args):
        raise AssertionError("a run started before --sweep was checked")

    monkeypatch.setattr(cli, "run_scaling", never)
    monkeypatch.setattr(cli, "build_pipeline", never)
    for sweep in ("1000", "1000,1000"):
        with pytest.raises(SystemExit) as exit_:
            main(["--sweep", sweep, "--dump-pattern", "unused.json"])
        assert exit_.value.code == 2


def test_cli_scene_export_and_pattern(tmp_path):
    scene_path = tmp_path / "scene.txt"
    pattern_path = tmp_path / "pattern.json"
    rc = main(["--n-points", "200", "--leaf-target", "30",
               "--scene-out", str(scene_path),
               "--dump-pattern", str(pattern_path),
               "--mode", "direct"])
    assert rc == 0
    pts = np.loadtxt(scene_path)
    assert pts.shape == (200, 3)
    pattern = json.loads(pattern_path.read_text())
    assert {"nodes", "edges"} <= set(pattern)
    kinds = {n["kind"] for n in pattern["nodes"]}
    assert kinds == {"x", "y", "z"}


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_points": 250, "leaf_target": 30,
                                    "d": 1e-2, "cheb_nodes": 2}))
    out = tmp_path / "report.json"
    rc = main(["--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["n_points"] == 250
    # explicit flags override the file
    rc = main(["--config", str(cfg_path), "--n-points", "180",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["n_points"] == 180
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_flag": 1}))
    with pytest.raises(SystemExit):
        main(["--config", str(bad)])


def test_flag_defaults_are_run_config_defaults():
    assert config_from_args(build_parser().parse_args([])) == RunConfig()


def test_run_rejects_unknown_mode(monkeypatch):
    def never(config):
        raise AssertionError("pipeline built before the mode was checked")

    monkeypatch.setattr(experiments, "build_pipeline", never)
    with pytest.raises(ValueError, match="'direct' or 'gmres'"):
        run(RunConfig(mode="bogus"))


def test_cli_gmres_sweep_runs_gmres(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["--mode", "gmres", "--precond", "ifmm", "--sweep", "300,600",
               "--cheb-nodes", "2", "--leaf-target", "30", "--d", "1e-2",
               "--out", str(out)])
    assert rc == 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["config"]["n_points"] for r in runs] == [300, 600]
    for r in runs:
        validate_report(r)
        assert r["config"]["mode"] == "gmres"
        assert r["iteration"]["iterations"] >= 1


def test_cli_config_keys_are_field_names(tmp_path, monkeypatch):
    class Ran(Exception):
        pass

    def capture(config):
        raise Ran(config)

    monkeypatch.setattr(cli, "run", capture)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"distribution": "lattice",
                                    "lattice_shape": "2,2,1"}))
    with pytest.raises(Ran) as ran:
        main(["--config", str(cfg_path)])
    assert ran.value.args[0].lattice_shape == (2, 2, 1)
    # the flag name is not a key
    cfg_path.write_text(json.dumps({"lattice": "2,2,1"}))
    with pytest.raises(SystemExit):
        main(["--config", str(cfg_path)])


def readme_commands():
    """Each `ifmm-bench ...` command in README.md, continuations joined,
    as an argv without the program name."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("ifmm-bench ")]


def test_readme_cli_examples_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        config_from_args(parser.parse_args(argv))


def test_report_schema_rejects_missing_key():
    r = run_direct(small_config())
    d = r.to_dict()
    del d["timings"]["total"]
    with pytest.raises(ValueError):
        validate_report(d)


def test_package_data_lists_every_data_file():
    # a non-editable install ships only the data files pyproject.toml
    # lists; validate_report reads the report schema from the package
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        listed = (tomllib.load(f)["tool"]["setuptools"]
                  .get("package-data", {}).get("ifmm", []))
    pkg = root / "src" / "ifmm"
    data = [p.relative_to(pkg).as_posix() for p in pkg.rglob("*")
            if p.is_file() and p.suffix not in (".py", ".pyc")]
    assert "run_report.schema.json" in data
    for name in data:
        assert any(fnmatch(name, pattern) for pattern in listed), name


def test_readme_library_example_runs():
    """The first python block of README.md runs, and its solution meets the
    block's own tolerance, 1e-3, within a factor of 10 through the fast
    matvec."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(code, scope)
    x, b = scope["x"], scope["b"]
    assert x.shape == (5000,) and np.all(np.isfinite(x))
    res = np.linalg.norm(h2_matvec(scope["ops"], x) - b) / np.linalg.norm(b)
    assert res <= 10 * 1e-3
