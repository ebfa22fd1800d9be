"""Output checks for urbanmix commands; each returns a list of problems found."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# How far the GA may beat the exact optimum before it counts as an error,
# relative to |exact|: floating-point rounding of the two objective values.
ROUNDING_REL = 1e-9


def digests(out_dir: Path) -> dict:
    """SHA-256 of every file under `out_dir`, keyed by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_sweep(out_dir: Path, steps: int) -> list[str]:
    rows = _rows(out_dir / "sweep_metrics.csv")
    problems = []
    if len(rows) != 2 * steps * steps:
        problems.append(f"sweep_metrics.csv has {len(rows)} rows, expected {2 * steps * steps}")
    for i, row in enumerate(rows, start=2):
        pos, neg, util = float(row["pos_mwh"]), float(row["neg_mwh"]), float(row["util_mwh"])
        sc = row["self_consumption"]
        if not (pos >= 0 and neg <= 0 and util >= 0 and (sc == "" or 0 <= float(sc) <= 1)):
            problems.append(f"sweep_metrics.csv line {i} out of range: {row}")
            break
    return problems


def check_category_counts(out_dir: Path, hours: int = 8760) -> list[str]:
    total_row = _rows(out_dir / "category_counts.csv")[-1]
    if total_row["day_kind"] != "all" or int(total_row["row_total"]) != hours:
        return [f"category_counts.csv grand total is {total_row}, expected {hours}"]
    return []


def check_validate(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("FAIL")]


def ga_gap(out_dir: Path, problem, exact_objective: float) -> tuple[float, list[str]]:
    """(GA objective - exact) / |exact| from optimize_report.json, with problems."""
    report = json.loads((out_dir / "optimize_report.json").read_text())
    x_pv, x_wt, ga = report["x_pv_m2"], report["x_turbine_m2"], report["objective"]
    gap = (ga - exact_objective) / abs(exact_objective)
    problems = []
    if not problem.is_feasible(x_pv, x_wt, tol=1e-9 * problem.total_area_max):
        problems.append(f"GA point ({x_pv}, {x_wt}) is infeasible")
    if not math.isfinite(gap) or gap < -ROUNDING_REL:
        problems.append(f"GA objective {ga!r} beats the exact optimum {exact_objective!r}")
    return gap, problems
