"""CSV table writers with deterministic, round-trippable formatting."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

METRIC_HEADER = ("scenario_pv_mw", "scenario_wind_mw", "load_case",
                 "pos_mwh", "neg_mwh", "util_mwh", "self_consumption")
CATEGORY_HEADER = ("day_kind", "time_band", "solar_bin", "wind_bin",
                   "hours", "metric", "mean", "sum")
SIGNIFICANCE_COLUMNS = ("t", "dof", "p", "reject_holm")


def _float_cell(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def _bool_cell(value) -> str:
    return "true" if value else "false"


def fmt(value) -> str:
    """One CSV cell: floats via repr for exact round-trips, None/NaN empty.

    numpy scalars are written as the Python value they hold.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return _bool_cell(value)
    if isinstance(value, (float, np.floating)):
        return _float_cell(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# write_csv formats the common cell types by exact type; any other type,
# numpy scalars and subclasses included, goes through fmt.
_CELL_FORMATS = {float: _float_cell, str: str, int: str, bool: _bool_cell}


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and the sequence ``rows`` as CSV, one line per row.

    Every row's width is checked before the file is opened, so a ragged row
    leaves no file behind; then each row is formatted and written in turn.
    """
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"row width {len(row)} != header width {width}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            cells = [_CELL_FORMATS.get(type(cell), fmt)(cell) for cell in row]
            out.write(",".join(cells) + "\n")
    return path


def metric_row(pv_mw: float, wind_mw: float, load_case: str, agg) -> tuple:
    return (float(pv_mw), float(wind_mw), load_case,
            agg.pos_mismatch, agg.neg_mismatch, agg.utilisation,
            agg.self_consumption)


def significance_cells(result) -> tuple:
    """The four trailing significance columns for one test result."""
    t = None if result.untestable else result.t_stat
    dof = None if result.untestable else result.dof
    return (t, dof, result.p_value, result.reject)
