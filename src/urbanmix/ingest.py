"""Weather, profile, and calendar ingestion.

Everything downstream runs on a UTC hour index covering one simulation
year (8760 hours, 8784 for leap years). Local civil time (weekday,
holiday, time of day) is derived from the calendar on demand, so DST
transitions never duplicate or drop an hour in the data itself.
"""

from __future__ import annotations

import calendar as _stdcal
import csv
import datetime as dt
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

WEATHER_COLUMNS = ("hour_utc", "ghi_wm2", "temp_c", "pressure_pa", "wind_ms")
PROFILE_COLUMNS = ("hour", "weight")

MIN_TEMP_C = -90.0


class IngestError(ValueError):
    """Raised when an input file fails schema or invariant validation."""


def hours_in_year(year: int) -> int:
    return 8784 if _stdcal.isleap(year) else 8760


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WeatherRecord:
    """One hour of weather in canonical units."""

    hour_index: int
    ghi: float            # global horizontal irradiance, W/m²
    temp: float           # ambient temperature, °C
    pressure: float       # Pa
    wind_speed_10m: float  # m/s at 10 m


@dataclass(frozen=True)
class HourlySeries:
    """One value per hour of a simulation year, tagged with a unit."""

    values: np.ndarray
    unit: str
    year: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        expected = hours_in_year(self.year)
        if arr.shape != (expected,):
            raise ValueError(
                f"series for {self.year} must have {expected} values, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> float:
        """Sum of values; for a kW series this is annual kWh (1 h steps)."""
        return float(self.values.sum())

    def with_values(self, values, unit: str | None = None) -> "HourlySeries":
        return HourlySeries(values=values, unit=self.unit if unit is None else unit,
                            year=self.year)


@dataclass(frozen=True)
class Calendar:
    """Simulation calendar: UTC hour index with local-time derivation.

    ``transitions`` is a sorted tuple of (utc_instant, offset_hours_after)
    pairs; before the first transition the offset is ``base_utc_offset_hours``.
    """

    year: int
    holiday_dates: frozenset[dt.date]
    base_utc_offset_hours: float
    transitions: tuple[tuple[dt.datetime, float], ...] = ()

    def __post_init__(self):
        if self.year < 1970:
            raise ValueError(f"year must be >= 1970, got {self.year}")
        for day in self.holiday_dates:
            if day.year != self.year:
                raise ValueError(f"holiday {day} falls outside year {self.year}")
        instants = [t for t, _ in self.transitions]
        if any(t.tzinfo is None or t.utcoffset() is None for t in instants):
            raise ValueError("DST transition instants must be timezone-aware")
        if instants != sorted(instants):
            raise ValueError("DST transitions must be sorted by instant")

    @property
    def n_hours(self) -> int:
        return hours_in_year(self.year)

    @property
    def utc_start(self) -> dt.datetime:
        return dt.datetime(self.year, 1, 1, tzinfo=dt.timezone.utc)

    def utc_time(self, hour_index: int) -> dt.datetime:
        return self.utc_start + dt.timedelta(hours=int(hour_index))

    def offset_hours_at(self, utc_instant: dt.datetime) -> float:
        offset = self.base_utc_offset_hours
        for instant, new_offset in self.transitions:
            if utc_instant >= instant:
                offset = new_offset
            else:
                break
        return offset

    def local_time(self, hour_index: int) -> dt.datetime:
        utc = self.utc_time(hour_index)
        return (utc + dt.timedelta(hours=self.offset_hours_at(utc))).replace(tzinfo=None)

    @cached_property
    def _local(self) -> np.ndarray:
        """Local wall-clock time of every UTC hour, as ``datetime64[us]``.

        Offsets round to microseconds exactly as ``local_time`` does.
        """
        utc = (np.datetime64(f"{self.year:04d}-01-01T00", "us")
               + np.arange(self.n_hours) * np.timedelta64(1, "h"))
        instants = np.array([t.astimezone(dt.timezone.utc).replace(tzinfo=None)
                             for t, _ in self.transitions], dtype="datetime64[us]")
        offsets = [self.base_utc_offset_hours, *(o for _, o in self.transitions)]
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


def build_calendar(year: int, holidays, base_utc_offset_hours: float = 0.0,
                   dst_transitions=()) -> Calendar:
    """Build a calendar from holiday dates and DST transition instants.

    ``holidays`` accepts ISO date strings or ``datetime.date`` objects;
    ``dst_transitions`` accepts (instant, offset) pairs where the instant is
    an ISO datetime string (interpreted as UTC) or an aware/naive datetime.
    """
    dates = set()
    for item in holidays:
        if isinstance(item, dt.date) and not isinstance(item, dt.datetime):
            dates.add(item)
        else:
            try:
                dates.add(dt.date.fromisoformat(str(item)))
            except ValueError as exc:
                raise IngestError(f"malformed holiday date {item!r}: {exc}") from exc
    transitions = []
    for instant, offset in dst_transitions:
        if isinstance(instant, str):
            when = dt.datetime.fromisoformat(instant)
        else:
            when = instant
        if when.tzinfo is not None:
            when = when.astimezone(dt.timezone.utc)
        else:
            when = when.replace(tzinfo=dt.timezone.utc)
        transitions.append((when, float(offset)))
    transitions.sort(key=lambda pair: pair[0])
    return Calendar(
        year=year,
        holiday_dates=frozenset(dates),
        base_utc_offset_hours=float(base_utc_offset_hours),
        transitions=tuple(transitions),
    )


def load_calendar_config(path) -> Calendar:
    """Read a calendar config file (JSON: year, holidays, DST transitions)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read calendar config {path}: {exc}") from exc
    try:
        year = int(raw["year"])
        holidays = raw.get("holidays", [])
        base = float(raw.get("base_utc_offset_hours", 0.0))
        transitions = [
            (entry["at_utc"], entry["offset_hours"])
            for entry in raw.get("dst_transitions", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestError(f"calendar config {path} is malformed: {exc}") from exc
    return build_calendar(year, holidays, base, transitions)


def _parse_float(cell: str, row_num: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise IngestError(
            f"row {row_num}: non-numeric value {cell!r} in column {column}"
        ) from exc


def _require_finite(path: Path, columns) -> None:
    """Reject nan/inf cells, which pass the comparison-based range checks."""
    for column, values in columns:
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise IngestError(f"{path}: non-finite {column} at hour {bad[0]}")


def load_weather(path, calendar: Calendar) -> list[WeatherRecord]:
    """Load the hourly weather CSV and validate it against the calendar.

    Expects header ``hour_utc,ghi_wm2,temp_c,pressure_pa,wind_ms`` and
    exactly one row per calendar hour. Raises IngestError on gaps,
    duplicates, non-numeric cells, or physical-range violations.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"weather file not found: {path}")
    n = calendar.n_hours
    ghi = np.full(n, np.nan)
    temp = np.full(n, np.nan)
    pressure = np.full(n, np.nan)
    wind = np.full(n, np.nan)
    seen = np.zeros(n, dtype=bool)

    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != WEATHER_COLUMNS:
            raise IngestError(
                f"weather header must be {','.join(WEATHER_COLUMNS)}, got {header}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(WEATHER_COLUMNS):
                raise IngestError(f"row {row_num}: expected {len(WEATHER_COLUMNS)} cells")
            hour_f = _parse_float(row[0], row_num, "hour_utc")
            hour = int(hour_f)
            if hour != hour_f or hour < 0 or hour >= n:
                raise IngestError(f"row {row_num}: hour_utc {row[0]!r} outside 0..{n - 1}")
            if seen[hour]:
                raise IngestError(f"duplicate timestamp at hour {hour}")
            seen[hour] = True
            ghi[hour] = _parse_float(row[1], row_num, "ghi_wm2")
            temp[hour] = _parse_float(row[2], row_num, "temp_c")
            pressure[hour] = _parse_float(row[3], row_num, "pressure_pa")
            wind[hour] = _parse_float(row[4], row_num, "wind_ms")
            if ghi[hour] < 0:
                raise IngestError(f"row {row_num}: ghi_wm2 must be >= 0, got {ghi[hour]}")
            if pressure[hour] <= 0:
                raise IngestError(f"row {row_num}: pressure_pa must be > 0, got {pressure[hour]}")
            if wind[hour] < 0:
                raise IngestError(f"row {row_num}: wind_ms must be >= 0, got {wind[hour]}")
            if temp[hour] <= MIN_TEMP_C:
                raise IngestError(f"row {row_num}: temp_c must be > {MIN_TEMP_C}, got {temp[hour]}")

    if not seen.all():
        gaps = np.flatnonzero(~seen)
        shown = ", ".join(f"gap at hour {h}" for h in gaps[:10])
        more = "" if len(gaps) <= 10 else f" (and {len(gaps) - 10} more)"
        raise IngestError(f"weather file incomplete: {shown}{more}")
    _require_finite(path, zip(WEATHER_COLUMNS[1:], (ghi, temp, pressure, wind)))

    return list(map(WeatherRecord, range(n), ghi.tolist(), temp.tolist(),
                    pressure.tolist(), wind.tolist()))


def weather_arrays(records) -> dict[str, np.ndarray]:
    """Column-oriented view of a weather record sequence."""
    return {
        "ghi": np.array([r.ghi for r in records]),
        "temp": np.array([r.temp for r in records]),
        "pressure": np.array([r.pressure for r in records]),
        "wind_speed_10m": np.array([r.wind_speed_10m for r in records]),
    }


def load_profile(path, annual_energy_kwh: float, calendar: Calendar) -> HourlySeries:
    """Load an hourly profile CSV and scale it to a target annual energy.

    Input weights may be absolute kW or normalized fractions; either way the
    shape is kept and the series is renormalized so its energy sum (kWh at
    1-hour steps) equals ``annual_energy_kwh``.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"profile file not found: {path}")
    weights = _read_hour_value_csv(path, calendar.n_hours, expected_header=PROFILE_COLUMNS)
    if np.any(weights < 0):
        first = int(np.flatnonzero(weights < 0)[0])
        raise IngestError(f"profile weight at hour {first} is negative")
    total = weights.sum()
    if total <= 0:
        raise IngestError("profile weights are all zero, cannot normalize")
    values = weights * (annual_energy_kwh / total)
    return HourlySeries(values=values, unit="kW", year=calendar.year)


def _read_hour_value_csv(path: Path, n: int, expected_header=None) -> np.ndarray:
    values = np.full(n, np.nan)
    seen = np.zeros(n, dtype=bool)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file")
        if expected_header is not None:
            got = tuple(h.strip() for h in header)
            if got != tuple(expected_header):
                raise IngestError(
                    f"{path}: header must be {','.join(expected_header)}, got {header}"
                )
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise IngestError(f"{path} row {row_num}: expected 2 cells")
            hour_f = _parse_float(row[0], row_num, "hour")
            hour = int(hour_f)
            if hour != hour_f or hour < 0 or hour >= n:
                raise IngestError(f"{path} row {row_num}: hour {row[0]!r} outside 0..{n - 1}")
            if seen[hour]:
                raise IngestError(f"{path}: duplicate timestamp at hour {hour}")
            seen[hour] = True
            values[hour] = _parse_float(row[1], row_num, header[1].strip())
    if not seen.all():
        gaps = np.flatnonzero(~seen)
        shown = ", ".join(f"gap at hour {h}" for h in gaps[:10])
        raise IngestError(f"{path} incomplete: {shown}")
    _require_finite(path, [(header[1].strip(), values)])
    return values


def write_series(series: HourlySeries, path, value_column: str = "value") -> None:
    """Write an hourly series as ``hour,<value_column>`` CSV.

    Floats are written with shortest round-trip formatting so that
    ``read_series`` recovers exactly the same values.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"hour,{value_column}\n")
        for i, value in enumerate(series.values):
            handle.write(f"{i},{float(value)!r}\n")


def read_series(path, unit: str, year: int, value_column: str | None = None) -> HourlySeries:
    """Read a ``hour,value`` CSV back into an HourlySeries without rescaling.

    When ``value_column`` is given the file header must be exactly
    ``hour,<value_column>``.
    """
    expected = ("hour", value_column) if value_column is not None else None
    values = _read_hour_value_csv(Path(path), hours_in_year(year), expected_header=expected)
    return HourlySeries(values=values, unit=unit, year=year)
