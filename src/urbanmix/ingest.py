"""Weather, profile, and calendar ingestion, and the reader of the JSON
config, calendar and scaling files.

Everything downstream runs on a UTC hour index covering one simulation
year (8760 hours, 8784 for leap years). Local civil time (weekday,
holiday, time of day) is derived from the calendar on demand, so DST
transitions never duplicate or drop an hour in the data itself.
"""

from __future__ import annotations

import calendar as _stdcal
import collections
import collections.abc
import contextlib
import csv
import datetime as dt
import json
import operator
import sys
import types
import typing
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

WEATHER_COLUMNS = ("hour_utc", "ghi_wm2", "temp_c", "pressure_pa", "wind_ms")
PROFILE_COLUMNS = ("hour", "weight")

# The years a calendar may cover; `datetime` has no year past 9999.
MIN_YEAR, MAX_YEAR = 1970, dt.MAXYEAR
# The hours a calendar's clock may run ahead of UTC, before and after each DST transition.
UTC_OFFSET_HOURS = "in [-14, 14]"
MIN_TEMP_C = -90.0
# Physical ranges of weather cells: (column, constraint), checked by `_within`.
WEATHER_LIMITS = (("ghi_wm2", ">= 0"), ("pressure_pa", "> 0"), ("wind_ms", ">= 0"),
                  ("temp_c", f"> {MIN_TEMP_C}"))
# Comma-separated numbers, optionally quoted; no comment syntax.
_CSV_DIALECT = {"delimiter": ",", "comments": None, "quotechar": '"'}


class ValidationError(ValueError):
    """The model rejects an input or a parameter: the CLI exits 2 on it.

    Each module's own error (IngestError, GenerationError, ...) derives from
    this class, so the CLI names none of them.
    """


class IngestError(ValidationError):
    """Raised when an input file fails schema or invariant validation."""


# scalar kind: (the types it takes, what an error message calls it, how a value is
# read: a parser whose ValueError rejects it, or None to keep it as given)
_SCALARS = {int: (int, "an integer", None), float: ((int, float), "a finite number", float),
            bool: (bool, "true or false", None), str: (str, "a string", None),
            Path: (str, "a file name", None),
            dt.date: ((str, dt.date), "an ISO date", dt.date.fromisoformat),
            dt.datetime: ((str, dt.datetime), "an ISO date and time", dt.datetime.fromisoformat)}
_RECORD_SCALARS = (int, float, bool, str, dt.date, dt.datetime)  # the kinds `_field` reads by `_check`
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _within(value, constraint):
    """Whether ``value``, a number or a column of them, meets ``constraint``:
    "> x", ">= x", "< x", "<= x", "in (low, high)", "in [low, high]" (bounds
    included) or a tuple of the allowed values."""
    if isinstance(constraint, tuple):
        return value in constraint
    if constraint.startswith("in "):
        low, high = map(float, constraint[4:-1].split(","))
        inside = operator.le if constraint[3] == "[" else operator.lt
        return inside(low, value) & inside(value, high)
    op, bound = constraint.split()
    return _COMPARISONS[op](value, float(bound))


def _check(name: str, value, kind, constraint, error: type[Exception]):
    """``value`` read as ``kind`` (an int as a float for float, an ISO string or
    a value of the kind as a date or datetime); raises ``error`` with one line
    naming ``name`` unless it is a ``kind`` that meets ``constraint``. A number
    is finite, and a bool is not one. Every config schema row and every scalar
    field of a `checked_record` is checked here."""
    accepts, noun, parse = _SCALARS[kind]
    try:
        if not isinstance(value, accepts) or (kind in (int, float) and (
                isinstance(value, bool) or not abs(value) <= sys.float_info.max)):
            raise ValueError
        value = value if parse is None or type(value) is kind else parse(value)
    except (TypeError, ValueError):  # TypeError: a datetime given for a date
        raise error(f"{name} must be {noun}, got {value!r}") from None
    if constraint is not None and not _within(value, constraint):
        allowed = f"one of {constraint}" if isinstance(constraint, tuple) else constraint
        raise error(f"{name} must be {allowed}, got {value!r}")
    return value


def _entries(name: str, value, constraint, read, error: type[Exception]) -> tuple:
    """``value``, a list or tuple of ``constraint`` entries (any number when it is
    None), each read by ``read("<name>[i]", entry)``, as a tuple."""
    if not isinstance(value, (list, tuple)) or constraint not in (None, len(value)):
        size = f" of {constraint} values" if constraint else ""
        raise error(f"{name} must be a list{size}, got {value!r}")
    return tuple(read(f"{name}[{i}]", entry) for i, entry in enumerate(value))


def _field(name: str, value, kind, constraint, error: type[Exception]):
    """``value`` read as a `checked_record` field of ``kind`` under ``constraint``;
    raises ``error`` with one line naming ``name`` unless it is one. A union takes
    None if it names it, else the first of its other kinds that takes the value
    (an "int | float" field keeps an int); a list [X] reads `_entries` of X, and
    a dict[str, X], kept as given, maps names to X values, each named "<name>.<key>".
    """
    if isinstance(kind, types.UnionType):
        kinds = typing.get_args(kind)
        if value is None and type(None) in kinds:
            return None
        *others, last = [other for other in kinds if other is not type(None)]
        for other in others:
            with contextlib.suppress(error):
                return _field(name, value, other, constraint, error)
        return _field(name, value, last, constraint, error)
    if isinstance(kind, list):
        return _entries(name, value, constraint,
                        lambda at, entry: _field(at, entry, kind[0], None, error), error)
    if typing.get_origin(kind) is dict:
        if not (isinstance(value, collections.abc.Mapping)
                and all(isinstance(key, str) for key in value)):
            raise error(f"{name} must map names to numbers, got {value!r}")
        for key, entry in value.items():
            _check(f"{name}.{key}", entry, typing.get_args(kind)[1], constraint, error)
        return value
    if kind in _RECORD_SCALARS:
        return _check(name, value, kind, constraint, error)
    if not isinstance(value, kind):  # any other class
        raise error(f"{name} must be {kind.__name__}, got {type(value).__name__}")
    return value


def checked_record(error: type[Exception], *rows):
    """The base of a record class with one field per (field, kind, constraint,
    default) row; a row without a default is a field every caller gives.

    The constructor reads each field with `_field` under its row's kind and
    constraint, keeps the value it returns (so a float field holds a float, a
    date field a date, and a list field a tuple), and then runs the class's
    `_rules`, which check what no single row can state. `_make` and `_replace`
    build through the constructor, so a derived record is checked too.
    """
    base = collections.namedtuple("Record", [row[0] for row in rows],
                                  defaults=[row[3] for row in rows if len(row) > 3])
    bind = base.__new__

    def __new__(cls, *args, **kwargs):
        self = tuple.__new__(cls, [_field(name, value, kind, constraint, error)
                                   for (name, kind, constraint, *_), value
                                   in zip(rows, bind(cls, *args, **kwargs))])
        self._rules()
        return self

    base.__new__ = __new__
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base._rules = lambda self: None
    base._rows = rows
    return base


def _row(record, field: str, name: str | None = None, *default) -> tuple:
    """``record``'s row of ``field``, for a record that declares the same field:
    named ``name`` if given, with ``default`` in place of the row's own if given."""
    row = next(row for row in record._rows if row[0] == field)
    return (name or field, *row[1:3], *(default or row[3:]))


def _object(path: str, value, error: type[Exception]) -> dict:
    """``value``, a JSON object; null reads as ``{}``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise error(f"{path} must be an object")
    return value


def _read(path: str, value, kind, constraint, base_dir: Path, error: type[Exception]):
    """``value`` read as ``kind``; raises ``error`` with one line naming ``path``
    if it is not one."""
    if isinstance(kind, list):  # a list of kind[0] values
        return _entries(path, value, constraint,
                        lambda at, item: _read(at, item, kind[0], None, base_dir, error), error)
    if issubclass(kind, tuple):  # a record, which checks its own fields
        given = _object(path, value, error)
        unknown = sorted(f"{path}.{key}" for key in given.keys() - set(kind._fields))
        if unknown:
            raise error(f"unknown keys {unknown}")
        missing = [name for name in kind._fields
                   if name not in given and name not in kind._field_defaults]
        if missing:
            raise error(f"{path}.{missing[0]} is missing")
        try:
            return kind(**given)
        except (ValidationError, error) as exc:  # the message starts with the field's name
            raise error(f"{path}.{exc}") from exc
    value = _check(path, value, kind, constraint, error)
    return base_dir / value if kind is Path else value  # a file name resolves against base_dir


def _read_rows(raw: dict, rows, error: type[Exception], base_dir: Path = Path()) -> dict:
    """{target: value} of each row whose key the parsed JSON object ``raw`` gives,
    each read and checked once; file names resolve against ``base_dir``.

    A row is (path, kind, constraint, target). "a.b" is key b of object a,
    which may be null and, unless it has a row of its own, takes no other keys.
    `_read` says how each kind is read, and `_within` what each constraint
    allows; a list's constraint is its length. A row with no target hands its
    value to its parent's record, whose own rows, in the same language, check
    its fields; at the top level such a row is checked and dropped. A key that
    no row reads raises ``error``.
    """
    fields = {}
    objects = {"": raw}  # the objects the rows reach, by path; rows take their keys out
    for path, kind, constraint, target in rows:
        parent, _, key = path.rpartition(".")
        if parent not in objects:
            objects[parent] = _object(parent, raw.pop(parent, None), error)
        if path in objects:  # a record whose own rows came first
            value = objects.pop(path)
        elif key in objects[parent]:
            value = objects[parent].pop(key)
        else:
            continue
        value = _read(path, value, kind, constraint, base_dir, error)
        if target is not None:
            fields[target] = value
        elif parent:
            objects[parent][key] = value
    unknown = [f"{parent}.{key}" if parent else key
               for parent, leftover in objects.items() for key in leftover]
    if unknown:
        raise error(f"unknown keys {sorted(unknown)}")
    return fields


def _field_rows(record, *places):
    """The `_read_rows` rows, in order, of a file whose keys fill ``record``'s
    fields. A (path, field) place reads its key with the kind ("X | None" read
    as X: `_read` takes no union) and the constraint of the field's row, and a
    path alone fills the field its last key names; a key that fills no field
    gives its whole (path, kind, constraint, target) row."""
    fields = {name: (typing.get_args(kind)[0] if isinstance(kind, types.UnionType) else kind,
                     constraint) for name, kind, constraint, *_ in record._rows}
    places = [(place, place.rpartition(".")[2]) if isinstance(place, str) else place
              for place in places]
    return tuple(place if len(place) == 4 else (place[0], *fields[place[1]], place[1])
                 for place in places)


def _read_json(path, rows, error: type[Exception]) -> dict:
    """`_read_rows` of the JSON object in the file at ``path``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(str(exc)) from exc
    except ValueError as exc:  # bytes that are not UTF-8, or text that is not JSON
        raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error("the file must hold a JSON object")
    return _read_rows(raw, rows, error)


def hours_in_year(year: int) -> int:
    return 8784 if _stdcal.isleap(year) else 8760


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class WeatherFrame(checked_record(IngestError,
                                 ("ghi", np.ndarray, None),
                                 ("temp", np.ndarray, None),
                                 ("pressure", np.ndarray, None),
                                 ("wind_speed_10m", np.ndarray, None))):
    """A weather year as read-only columns in canonical units, one value per
    hour: global horizontal irradiance (W/m²), ambient temperature (°C),
    pressure (Pa) and wind speed at 10 m (m/s). Its ``len()`` is the number
    of hours."""

    __slots__ = ()

    def __new__(cls, ghi, temp, pressure, wind_speed_10m):
        n = len(ghi)
        columns = []
        for name, column in zip(cls._fields, (ghi, temp, pressure, wind_speed_10m)):
            arr = np.array(column, dtype=float)
            if arr.shape != (n,):
                raise IngestError(f"weather column {name} must have {n} values, "
                                  f"got {arr.shape}")
            columns.append(_read_only(arr))
        return super().__new__(cls, *columns)

    def __len__(self) -> int:
        return len(self.ghi)


class DstTransition(checked_record(IngestError, ("at_utc", dt.datetime, None),
                                   ("offset_hours", float, UTC_OFFSET_HOURS))):
    """A DST transition: from the instant ``at_utc`` on, the clock runs
    ``offset_hours`` ahead of UTC. The instant is held as an aware UTC
    datetime; one given without an offset is read as UTC."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        at, offset_hours = super().__new__(cls, *args, **kwargs)
        try:
            at = (at.replace(tzinfo=dt.timezone.utc) if at.utcoffset() is None
                  else at.astimezone(dt.timezone.utc))
        except OverflowError:
            raise IngestError(f"at_utc {at.isoformat()} falls outside years "
                              f"1-{dt.MAXYEAR} in UTC") from None
        return tuple.__new__(cls, (at, offset_hours))


class Calendar(checked_record(IngestError,
                             ("year", int, f"in [{MIN_YEAR}, {MAX_YEAR}]"),
                             ("holiday_dates", [dt.date], None, ()),
                             ("base_utc_offset_hours", float, UTC_OFFSET_HOURS, 0.0),
                             ("transitions", [DstTransition], None, ()))):
    """Simulation calendar: UTC hour index with local-time derivation.

    ``transitions`` may be listed in any order; before the first of them the
    clock runs ``base_utc_offset_hours`` ahead of UTC. Instances keep a
    ``__dict__`` for the cached local-time arrays.
    """

    def _rules(self):
        for day in self.holiday_dates:
            if day.year != self.year:
                raise IngestError(f"holiday {day} falls outside year {self.year}")

    @property
    def n_hours(self) -> int:
        return hours_in_year(self.year)

    @cached_property
    def _local(self) -> np.ndarray:
        """Local wall-clock time of every UTC hour, as ``datetime64[us]``.

        Each offset is rounded to whole microseconds, as ``datetime.timedelta``
        rounds it.
        """
        utc = (np.datetime64(f"{self.year:04d}-01-01T00", "us")
               + np.arange(self.n_hours) * np.timedelta64(1, "h"))
        transitions = sorted(self.transitions)
        instants = np.array([t.replace(tzinfo=None) for t, _ in transitions],
                            dtype="datetime64[us]")
        offsets = [self.base_utc_offset_hours, *(o for _, o in transitions)]
        offsets_us = np.array([dt.timedelta(hours=o) // dt.timedelta(microseconds=1)
                               for o in offsets], dtype="timedelta64[us]")
        return utc + offsets_us[np.searchsorted(instants, utc, side="right")]

    def _local_days(self) -> np.ndarray:
        return self._local.astype("datetime64[D]")

    @cached_property
    def local_hour(self) -> np.ndarray:
        """Local clock hour (0..23) for every UTC hour index."""
        return _read_only((self._local - self._local_days()) // np.timedelta64(1, "h"))

    @cached_property
    def local_day_of_year(self) -> np.ndarray:
        """Day of the local date within its own year (1..366)."""
        days = self._local_days()
        return _read_only((days - days.astype("datetime64[Y]")).astype(np.int64) + 1)

    @cached_property
    def is_weekend_day(self) -> np.ndarray:
        """True where the local date is a Saturday or Sunday."""
        # 1970-01-01, day 0, was a Thursday (weekday 3).
        return _read_only((self._local_days().astype(np.int64) + 3) % 7 >= 5)

    @cached_property
    def is_holiday(self) -> np.ndarray:
        holidays = np.array(sorted(self.holiday_dates), dtype="datetime64[D]")
        return _read_only(np.isin(self._local_days(), holidays))

    def weekend_kind(self, holidays_as_weekend: bool = True) -> np.ndarray:
        """Hours classified as weekend-kind (weekend, plus holidays by default)."""
        if holidays_as_weekend:
            return self.is_weekend_day | self.is_holiday
        return self.is_weekend_day


# The keys of a calendar file and the `Calendar` field each fills, read by
# `_read_rows` with that field's kind and constraint.
_CALENDAR_SCHEMA = _field_rows(
    Calendar, "year", ("description", str, None, None),  # checked, not kept
    ("holidays", "holiday_dates"), "base_utc_offset_hours", ("dst_transitions", "transitions"))


def load_calendar_config(path) -> Calendar:
    """Read a calendar file: a JSON object with the keys of `_CALENDAR_SCHEMA`."""
    fields = _read_json(path, _CALENDAR_SCHEMA, IngestError)
    if "year" not in fields:
        raise IngestError("year is missing")
    return Calendar(**fields)


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of each row ``np.loadtxt`` reads: the non-empty
    lines after the header. Only error paths rescan a file this way."""
    with path.open(encoding="utf-8") as handle:
        return [(num, line) for num, line in enumerate(handle, start=1)
                if num > 1 and line != "\n"]


def _reject_row(path: Path, names: tuple[str, ...], exc: Exception | None):
    """Raise for the first row of the wrong width or with a cell that does not parse."""
    for num, line in _data_lines(path):
        cells = next(csv.reader([line]))
        if len(cells) != len(names):
            raise IngestError(f"{path} row {num}: expected {len(names)} cells, got {len(cells)}")
        try:
            np.loadtxt([line], **_CSV_DIALECT)
        except ValueError:
            for column, (name, cell) in enumerate(zip(names, cells)):
                try:
                    np.loadtxt([line], usecols=column, **_CSV_DIALECT)
                except ValueError:
                    raise IngestError(f"{path} row {num}: non-numeric value {cell!r} "
                                      f"in column {name}") from None
    raise IngestError(f"{path}: {exc}")


def _not_utf8(path: Path) -> IngestError:
    """The error for a file that is not UTF-8 text, naming its first such line."""
    with path.open("rb") as handle:
        for num, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"{path} row {num}: byte {line[exc.start]:#04x} is not UTF-8 text")
    return IngestError(f"{path}: not UTF-8 text")


def _read_columns(path: Path, header: tuple, n: int, limits=()) -> np.ndarray:
    """Value columns of an hourly CSV in hour order, shape (len(header) - 1, n).

    ``header`` names the columns; the first holds the hour, each of 0..n-1
    exactly once, rows in any order. One ``np.loadtxt`` call parses the body,
    skipping empty lines; the hour, finiteness and ``limits`` ((column in
    ``header``, constraint) for `_within`, in file-row order) checks then run
    over whole columns. Every rejection is an IngestError that names the file,
    and the row and column where one is at fault.
    """
    try:
        with path.open(encoding="utf-8") as handle:
            first = handle.readline()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not first:
        raise IngestError(f"{path}: empty file")
    got = next(csv.reader([first]))
    names = tuple(cell.strip() for cell in got)
    if names != header:
        raise IngestError(f"{path}: header must be {','.join(header)}, got {got}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            # numpy parses a file it opens itself faster than a Python handle
            body = np.loadtxt(path, skiprows=1, ndmin=2, encoding="utf-8", **_CSV_DIALECT)
    except UnicodeDecodeError:  # a ValueError, but no row's cells are at fault
        raise _not_utf8(path) from None
    except ValueError as exc:
        _reject_row(path, names, exc)
    if body.size and body.shape[1] != len(names):
        _reject_row(path, names, None)

    def row(i) -> tuple[int, str]:
        return _data_lines(path)[i]

    hours = body[:, 0]
    bad = np.flatnonzero(~((hours >= 0) & (hours < n) & (hours == np.trunc(hours))))
    if len(bad):
        num, line = row(bad[0])
        raise IngestError(f"{path} row {num}: {names[0]} {line.split(',')[0]!r} "
                          f"is not a whole hour in 0..{n - 1}")
    index = hours.astype(np.intp)
    order = np.argsort(index, kind="stable")
    repeats = order[1:][index[order[1:]] == index[order[:-1]]]
    if len(repeats):
        first = repeats.min()
        raise IngestError(f"{path} row {row(first)[0]}: "
                          f"duplicate timestamp at hour {index[first]}")
    if len(index) < n:
        seen = np.zeros(n, dtype=bool)
        seen[index] = True
        gaps = np.flatnonzero(~seen)
        shown = ", ".join(f"gap at hour {h}" for h in gaps[:10])
        more = "" if len(gaps) <= 10 else f" (and {len(gaps) - 10} more)"
        raise IngestError(f"{path} incomplete: {shown}{more}")

    values = body[:, 1:]
    bad_cells = np.argwhere(~np.isfinite(values))
    if len(bad_cells):
        i, column = bad_cells[0]
        raise IngestError(f"{path}: non-finite {names[column + 1]} at hour {index[i]}")
    for want, constraint in limits:
        k = header.index(want)
        column = values[:, k - 1]
        bad = np.flatnonzero(~_within(column, constraint))
        if len(bad):
            raise IngestError(f"{path} row {row(bad[0])[0]}: {names[k]} must be {constraint}, "
                              f"got {column[bad[0]]}")
    columns = np.empty((len(names) - 1, n))
    columns[:, index] = values.T
    return columns


def load_weather(path, calendar: Calendar) -> WeatherFrame:
    """Load the hourly weather CSV and validate it against the calendar.

    Expects header ``hour_utc,ghi_wm2,temp_c,pressure_pa,wind_ms`` and
    exactly one row per calendar hour. Raises IngestError on gaps,
    duplicates, non-numeric or non-finite cells, or physical-range violations.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"weather file not found: {path}")
    ghi, temp, pressure, wind = _read_columns(path, WEATHER_COLUMNS, calendar.n_hours,
                                              WEATHER_LIMITS)
    return WeatherFrame(ghi=ghi, temp=temp, pressure=pressure, wind_speed_10m=wind)


def load_profile(path, annual_energy_kwh: float, calendar: Calendar) -> np.ndarray:
    """Load an hourly profile CSV and scale it to a target annual energy: a
    read-only kW column, one value per calendar hour.

    Input weights, each >= 0, may be absolute kW or normalized fractions; either
    way the shape is kept and the series is renormalized so its energy sum (kWh at
    1-hour steps) equals ``annual_energy_kwh``.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"profile file not found: {path}")
    weights = _read_columns(path, PROFILE_COLUMNS, calendar.n_hours, (("weight", ">= 0"),))[0]
    total = weights.sum()
    if total <= 0:
        raise IngestError(f"{path}: profile weights are all zero, cannot normalize")
    values = weights * (annual_energy_kwh / total)
    # finite weights can still scale past the float range, e.g. with a subnormal total
    if not np.isfinite(values).all():
        raise IngestError(f"{path}: profile weights scaled to {annual_energy_kwh!r} kWh "
                          f"are not finite")
    return _read_only(values)


def write_series(series: np.ndarray, path, value_column: str = "value") -> None:
    """Write an hourly series as ``hour,<value_column>`` CSV.

    Floats are written with shortest round-trip formatting so that
    ``read_series`` recovers exactly the same values.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = "".join([f"{i},{value!r}\n" for i, value in enumerate(series.tolist())])
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"hour,{value_column}\n")
        handle.write(rows)


def read_series(path, calendar: Calendar, value_column: str) -> np.ndarray:
    """Read an ``hour,<value_column>`` CSV of non-negative values (a load or a
    generation series) without rescaling: a read-only column, one value per
    calendar hour."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"profile file not found: {path}")
    return _read_only(_read_columns(path, ("hour", value_column), calendar.n_hours,
                                    ((value_column, ">= 0"),))[0])
