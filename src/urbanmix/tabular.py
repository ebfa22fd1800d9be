"""CSV table writers with deterministic, round-trippable formatting."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np


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
    """Write ``header`` and the iterable ``rows`` as CSV, one line per row.

    Rows are read once: each is checked against the header's width, then
    formatted and written to ``<name>.tmp`` beside the target, which replaces
    the target after the last row. On any error the ``.tmp`` file is removed,
    so a ragged row leaves no file behind and an existing target unchanged.
    """
    width = len(header)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            out.write(",".join(header) + "\n")
            for row in rows:
                if len(row) != width:
                    raise ValueError(f"row width {len(row)} != header width {width}")
                cells = [_CELL_FORMATS.get(type(cell), fmt)(cell) for cell in row]
                out.write(",".join(cells) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path

