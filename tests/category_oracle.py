"""Oracles for the category study: the per-hour classifier and the dict loops
over CategoryKey objects that the integer category codes replaced."""

import numpy as np

from urbanmix.classify import (DAY_KINDS, TIME_BANDS, CategoryKey, all_category_keys,
                               time_band_of)


def classify_hour(hour_index, solar_pct_value, wind_pct_value, edges, calendar,
                  holidays_as_weekend=True) -> CategoryKey:
    weekend = calendar.weekend_kind(holidays_as_weekend)[hour_index]
    band = int(time_band_of(np.array([calendar.local_hour[hour_index]]))[0])
    return CategoryKey(
        day_kind=DAY_KINDS[1] if weekend else DAY_KINDS[0],
        time_band=TIME_BANDS[band],
        solar_bin=int(np.searchsorted(edges.solar_edges, solar_pct_value, side="right")) + 1,
        wind_bin=int(np.searchsorted(edges.wind_edges, wind_pct_value, side="right")) + 1,
    )


def oracle_aggregate(keys, values):
    """(counts, sums) of the defined values per category, in key order."""
    sums, counts = {}, {}
    for key, value in zip(keys, values):
        if np.isnan(value):
            continue
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
    return ([counts.get(key, 0) for key in all_category_keys()],
            [sums.get(key, 0.0) for key in all_category_keys()])


def oracle_members(keys, values):
    grouped = {key: [] for key in all_category_keys()}
    for key, value in zip(keys, values):
        if not np.isnan(value):
            grouped[key].append(float(value))
    return {key: np.array(vals) for key, vals in grouped.items()}


def oracle_counts(keys):
    counts = {key: 0 for key in all_category_keys()}
    for key in keys:
        counts[key] += 1
    return counts


def decode(codes):
    """The CategoryKey of each category code."""
    return [all_category_keys()[code] for code in codes.tolist()]


def hexed(value):
    return None if value is None else float.hex(value)
