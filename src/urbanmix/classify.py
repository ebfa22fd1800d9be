"""Time and weather classification.

Every hour of the year is assigned to one of 150 categories: day kind
(weekday/weekend) × time band (night/day/evening) × solar quintile ×
wind quintile. Quintile edges are the 20/40/60/80 percentiles of
generation expressed as percent of installed capacity; solar edges use
daylight hours only. An hour's category is an integer code, the index of
its key in `all_category_keys()`, so a year is one array of 8760 codes.
"""

from __future__ import annotations

import functools
import warnings
from typing import NamedTuple

import numpy as np

from .ingest import Calendar, HourlySeries, ValidationError, checked_record

DAY_KINDS = ("weekday", "weekend")
TIME_BANDS = ("night", "day", "evening")
N_BINS = 5
QUANTILE_LEVELS = (20, 40, 60, 80)
N_CATEGORIES = len(DAY_KINDS) * len(TIME_BANDS) * N_BINS * N_BINS


class ClassifyError(ValidationError):
    pass


class CategoryKey(checked_record(ClassifyError,
                                ("day_kind", str, None),
                                ("time_band", str, None),
                                ("solar_bin", int, None),
                                ("wind_bin", int, None))):
    __slots__ = ()

    def _rules(self):
        if self.day_kind not in DAY_KINDS:
            raise ClassifyError(f"unknown day kind {self.day_kind!r}")
        if self.time_band not in TIME_BANDS:
            raise ClassifyError(f"unknown time band {self.time_band!r}")
        if not 1 <= self.solar_bin <= N_BINS or not 1 <= self.wind_bin <= N_BINS:
            raise ClassifyError(
                f"bins must be 1..{N_BINS}, got ({self.solar_bin}, {self.wind_bin})"
            )


@functools.cache
def all_category_keys() -> tuple[CategoryKey, ...]:
    """The 150 possible keys in canonical order; category code i is key i."""
    return tuple(
        CategoryKey(day_kind=dk, time_band=tb, solar_bin=sb, wind_bin=wb)
        for dk in DAY_KINDS
        for tb in TIME_BANDS
        for sb in range(1, N_BINS + 1)
        for wb in range(1, N_BINS + 1)
    )


class BinEdges(checked_record(ClassifyError,
                             ("solar_edges", tuple, None),  # four percent-of-capacity edges
                             ("wind_edges", tuple, None))):
    __slots__ = ()

    def _rules(self):
        for edges in (self.solar_edges, self.wind_edges):
            if len(edges) != len(QUANTILE_LEVELS):
                raise ClassifyError(f"need {len(QUANTILE_LEVELS)} edges, got {len(edges)}")
            if list(edges) != sorted(edges):
                raise ClassifyError("edges must be non-decreasing")
            if edges[0] < 0 or edges[-1] > 100:
                raise ClassifyError("edges must lie within [0, 100]")


def _as_array(series):
    if isinstance(series, HourlySeries):
        return series.values
    return np.asarray(series, dtype=float)


def percent_of_capacity(generation, capacity_mw: float) -> np.ndarray:
    """Generation as percent of installed capacity; zero capacity gives zeros."""
    g = _as_array(generation)
    if capacity_mw < 0:
        raise ClassifyError(f"capacity must be non-negative, got {capacity_mw}")
    if capacity_mw == 0:
        return np.zeros_like(g)
    return 100.0 * g / capacity_mw


def compute_bins(solar_pct, wind_pct, daylight_mask) -> BinEdges:
    """Quintile edges from the percent-of-capacity series.

    Wind edges come from all hours; solar edges from daylight hours only,
    since solar output is identically zero at night and would otherwise
    collapse the lower quantiles.
    """
    solar = _as_array(solar_pct)
    wind = _as_array(wind_pct)
    mask = np.asarray(daylight_mask, dtype=bool)
    if len(solar) != len(wind) or len(solar) != len(mask):
        raise ClassifyError("series length mismatch")
    for name, arr in (("solar", solar), ("wind", wind)):
        if np.any(arr < 0) or np.any(arr > 100):
            raise ClassifyError(f"{name} percent series must lie within [0, 100]")
    if not mask.any():
        raise ClassifyError("daylight hour set is empty, cannot place solar quantiles")
    solar_edges = tuple(np.percentile(solar[mask], QUANTILE_LEVELS))
    wind_edges = tuple(np.percentile(wind, QUANTILE_LEVELS))
    for name, edges in (("solar", solar_edges), ("wind", wind_edges)):
        if edges[0] == edges[-1]:
            warnings.warn(f"constant {name} series: all quantile edges coincide, "
                          "binning degenerates to a single occupied bin")
    return BinEdges(solar_edges=solar_edges, wind_edges=wind_edges)


def _bin_of(values, edges) -> np.ndarray:
    # half-open bins, value equal to an edge goes to the upper bin
    return np.searchsorted(np.asarray(edges), values, side="right") + 1


def time_band_of(local_hour) -> np.ndarray:
    """night [0,8), day [8,16), evening [16,24) from the local clock hour."""
    hours = np.asarray(local_hour)
    bands = np.where(hours < 8, 0, np.where(hours < 16, 1, 2))
    return bands


def classify_year(solar_pct, wind_pct, edges: BinEdges, calendar: Calendar,
                  holidays_as_weekend: bool = True) -> np.ndarray:
    """Category code of every hour of the calendar year: the index of its
    key in ``all_category_keys()``."""
    solar = _as_array(solar_pct)
    wind = _as_array(wind_pct)
    if len(solar) != calendar.n_hours or len(wind) != calendar.n_hours:
        raise ClassifyError("series length does not match calendar")
    weekend = calendar.weekend_kind(holidays_as_weekend)
    bands = time_band_of(calendar.local_hour)
    solar_bins = _bin_of(solar, edges.solar_edges)
    wind_bins = _bin_of(wind, edges.wind_edges)
    return ((weekend * len(TIME_BANDS) + bands) * N_BINS + solar_bins - 1) * N_BINS + wind_bins - 1


class CategoryAggregate(NamedTuple):
    count: int
    mean: float | None
    total: float


def _checked_codes(codes) -> np.ndarray:
    codes = np.asarray(codes)
    if len(codes) and not (codes.dtype.kind in "iu" and 0 <= codes.min()
                           and codes.max() < N_CATEGORIES):
        raise ClassifyError(f"category codes must be integers in [0, {N_CATEGORIES})")
    return codes.astype(np.intp, copy=False)


def _defined(codes, metric) -> tuple[np.ndarray, np.ndarray]:
    """The codes and values of the hours where the metric is defined (not NaN)."""
    codes = _checked_codes(codes)
    values = _as_array(metric)
    if len(codes) != len(values):
        raise ClassifyError("codes and metric length mismatch")
    ok = ~np.isnan(values)
    return codes[ok], values[ok]


def aggregate_by_category(codes, metric) -> dict[CategoryKey, CategoryAggregate]:
    """Count, mean, and sum of a metric per category.

    All 150 keys are present in the result; empty categories carry count 0
    and an undefined mean. NaN metric values mark hours where the metric is
    undefined and are left out of that category's count. Each sum adds its
    hours in hour order, starting from 0.0.
    """
    codes, values = _defined(codes, metric)
    counts = np.bincount(codes, minlength=N_CATEGORIES).tolist()
    # an empty selection gives integer zeros; the sums are floats regardless
    sums = np.bincount(codes, weights=values, minlength=N_CATEGORIES).astype(float).tolist()
    return {key: CategoryAggregate(count=n, mean=total / n if n else None, total=total)
            for key, n, total in zip(all_category_keys(), counts, sums)}


def member_values(codes, metric) -> dict[CategoryKey, np.ndarray]:
    """Metric samples per category in hour order, NaN entries dropped."""
    codes, values = _defined(codes, metric)
    order = np.argsort(codes, kind="stable")
    bounds = np.cumsum(np.bincount(codes, minlength=N_CATEGORIES))[:-1]
    return dict(zip(all_category_keys(), np.split(values[order], bounds)))


def category_counts(codes) -> dict[CategoryKey, int]:
    counts = np.bincount(_checked_codes(codes), minlength=N_CATEGORIES)
    return dict(zip(all_category_keys(), counts.tolist()))
