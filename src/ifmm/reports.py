"""Machine-readable run reports.

A RunReport echoes the experiment configuration and carries timings, the
factorization's phase totals, one record per eliminated level (see
`ifmm.factor.LevelStats`), residuals/errors, and the GMRES trace when
iterative. Reports serialize to JSON (schema shipped in this package,
version pinned) or to flat CSV rows.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from importlib import resources

SCHEMA_VERSION = 2


@dataclass
class RunReport:
    schema_version: int
    config: dict
    timings: dict            # initialization, sigma0_estimation, elimination,
                             # substitution, total
    elimination_breakdown: dict   # FactorStats.timings
    rank_stats: dict
    edge_stats: dict
    errors: dict
    iteration: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> dict:
        row = {
            "n_points": self.config.get("n_points"),
            "cheb_nodes": self.config.get("cheb_nodes"),
            "epsilon": self.config.get("epsilon"),
            "distribution": self.config.get("distribution"),
            "seed": self.config.get("seed"),
            "t_initialization": self.timings.get("initialization"),
            "t_sigma0": self.timings.get("sigma0_estimation"),
            "t_elimination": self.timings.get("elimination"),
            "t_substitution": self.timings.get("substitution"),
            "t_total": self.timings.get("total"),
            "relative_error": self.errors.get("relative_error"),
            "relative_residual": self.errors.get("relative_residual"),
            "max_basis_rank": self.rank_stats.get("max_basis_rank"),
            "max_fill_rank": self.rank_stats.get("max_fill_rank"),
            "peak_edges": self.edge_stats.get("peak_edges"),
            "edge_bound_constant": self.edge_stats.get("edge_bound_constant"),
            "iterations": (self.iteration or {}).get("iterations"),
            "converged": (self.iteration or {}).get("converged"),
        }
        return row


def write_csv(reports: list[RunReport], path) -> None:
    rows = [r.csv_row() for r in reports]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def load_schema() -> dict:
    text = resources.files("ifmm").joinpath("run_report.schema.json").read_text()
    return json.loads(text)


def validate_report(d: dict) -> None:
    """Structural validation against the shipped schema subset.

    Checks required keys and primitive types; raises ValueError on the
    first violation.
    """
    schema = load_schema()
    _validate(d, schema, "$")


_TYPES = {"object": dict, "number": (int, float), "integer": int,
          "string": str, "boolean": bool, "array": list, "null": type(None)}


def _validate(value, schema: dict, where: str) -> None:
    typ = schema.get("type")
    if typ is not None:
        options = typ if isinstance(typ, list) else [typ]
        if not any(isinstance(value, _TYPES[t]) and not
                   (t == "integer" and isinstance(value, bool)) for t in options):
            raise ValueError(f"{where}: expected {typ}, got {type(value).__name__}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                raise ValueError(f"{where}: missing required key '{key}'")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                _validate(value[key], sub, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{where}[{i}]")
    if "const" in schema and value != schema["const"]:
        raise ValueError(f"{where}: expected constant {schema['const']}")
