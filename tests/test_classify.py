import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from category_oracle import (classify_hour, decode, hexed, oracle_aggregate, oracle_counts,
                             oracle_members)
from urbanmix.classify import (N_BINS, N_CATEGORIES, BinEdges, CategoryKey, ClassifyError,
                               aggregate_by_category, all_category_keys, category_counts,
                               classify_year, compute_bins, member_values,
                               percent_of_capacity, time_band_of)
from urbanmix.ingest import Calendar


def edges(solar=(20.0, 40.0, 60.0, 80.0), wind=(20.0, 40.0, 60.0, 80.0)):
    return BinEdges(solar_edges=tuple(solar), wind_edges=tuple(wind))


def test_category_space_size():
    keys = all_category_keys()
    assert len(keys) == 2 * 3 * 5 * 5
    assert len(set(keys)) == 150
    assert keys[0] == CategoryKey("weekday", "night", 1, 1)
    assert keys[-1] == CategoryKey("weekend", "evening", 5, 5)
    # bands iterate in clock order: night, day, evening
    assert [k.time_band for k in keys[::25]] == [
        "night", "day", "evening", "night", "day", "evening"]


def test_category_key_validation():
    for fields, message in [
        (("midweek", "day", 1, 1), "day_kind must be one of ('weekday', 'weekend'), got 'midweek'"),
        (("weekday", "noon", 1, 1),
         "time_band must be one of ('night', 'day', 'evening'), got 'noon'"),
        (("weekday", "day", 0, 1), "solar_bin must be in [1, 5], got 0"),
        (("weekday", "day", 1, 6), "wind_bin must be in [1, 5], got 6"),
    ]:
        with pytest.raises(ClassifyError, match=f"^{re.escape(message)}$"):
            CategoryKey(*fields)


def test_bin_edges_validation():
    with pytest.raises(ClassifyError, match="non-decreasing"):
        BinEdges(solar_edges=(4.0, 3.0, 5.0, 6.0), wind_edges=(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ClassifyError, match="within"):
        BinEdges(solar_edges=(1.0, 2.0, 3.0, 101.0), wind_edges=(1.0, 2.0, 3.0, 4.0))


def test_time_bands():
    hours = np.arange(24)
    bands = time_band_of(hours)
    assert (bands[:8] == 0).all()
    assert (bands[8:16] == 1).all()
    assert (bands[16:] == 2).all()


def test_percent_of_capacity():
    g = np.array([0.0, 50.0, 100.0])
    assert np.array_equal(percent_of_capacity(g, 100.0), np.array([0.0, 50.0, 100.0]))
    assert np.array_equal(percent_of_capacity(g, 0.0), np.zeros(3))
    with pytest.raises(ClassifyError, match="non-negative"):
        percent_of_capacity(g, -1.0)


def test_value_on_edge_goes_to_upper_bin():
    cal = Calendar(2014)
    e = edges()
    solar = np.full(cal.n_hours, 40.0)
    wind = np.full(cal.n_hours, 0.0)
    keys = decode(classify_year(solar, wind, e, cal))
    assert all(k.solar_bin == 3 for k in keys)
    assert all(k.wind_bin == 1 for k in keys)
    key = classify_hour(0, 80.0, 20.0, e, cal)
    assert key.solar_bin == 5
    assert key.wind_bin == 2


def test_percentile_edges_linear_interpolation():
    # the 20th percentile of 0..99 under linear interpolation is 19.8
    values = np.arange(100, dtype=float)
    daylight = np.ones(100, dtype=bool)
    e = compute_bins(values, values, daylight)
    assert e.wind_edges == pytest.approx((19.8, 39.6, 59.4, 79.2))
    assert e.solar_edges == e.wind_edges


def test_solar_edges_use_daylight_hours_only():
    n = 100
    solar = np.zeros(n)
    solar[50:] = np.linspace(10.0, 100.0, 50)
    wind = np.linspace(0.0, 100.0, n)
    daylight = solar > 0
    e = compute_bins(solar, wind, daylight)
    oracle = np.percentile(solar[daylight], [20, 40, 60, 80])
    assert e.solar_edges == pytest.approx(tuple(oracle))
    # including the zero night hours would drag the lower edges to zero
    assert e.solar_edges[0] > 0.0


def test_compute_bins_validation():
    with pytest.raises(ClassifyError, match="length"):
        compute_bins(np.zeros(5), np.zeros(6), np.ones(5, dtype=bool))
    with pytest.raises(ClassifyError, match="within"):
        compute_bins(np.full(5, 101.0), np.zeros(5), np.ones(5, dtype=bool))
    with pytest.raises(ClassifyError, match="daylight"):
        compute_bins(np.zeros(5), np.zeros(5), np.zeros(5, dtype=bool))


def test_constant_series_warns_degenerate():
    with pytest.warns(UserWarning, match="constant wind"):
        compute_bins(np.linspace(0, 100, 10), np.full(10, 5.0),
                     np.ones(10, dtype=bool))


def test_tie_free_wind_fills_bins_equally():
    # a strictly increasing wind series has no ties, so the four percentile
    # cuts split 8760 hours into five bins of exactly 1752
    cal = Calendar(2014)
    wind = np.linspace(0.0, 100.0, cal.n_hours)
    solar = np.zeros(cal.n_hours)
    solar_src = np.linspace(0.0, 100.0, cal.n_hours)
    e = compute_bins(solar_src, wind, np.ones(cal.n_hours, dtype=bool))
    keys = decode(classify_year(solar_src, wind, e, cal))
    wind_counts = {b: 0 for b in range(1, N_BINS + 1)}
    for k in keys:
        wind_counts[k.wind_bin] += 1
    assert wind_counts == {1: 1752, 2: 1752, 3: 1752, 4: 1752, 5: 1752}


def test_classify_year_covers_every_hour(calendar2014):
    rng = np.random.default_rng(0)
    solar = rng.uniform(0, 100, calendar2014.n_hours)
    wind = rng.uniform(0, 100, calendar2014.n_hours)
    e = compute_bins(solar, wind, np.ones(calendar2014.n_hours, dtype=bool))
    keys = classify_year(solar, wind, e, calendar2014)
    assert len(keys) == 8760
    assert keys.dtype.kind == "i" and 0 <= keys.min() and keys.max() < N_CATEGORIES
    counts = category_counts(keys)
    assert len(counts) == 150
    assert sum(counts.values()) == 8760


def test_classify_year_length_check(calendar2014):
    with pytest.raises(ClassifyError, match="length"):
        classify_year(np.zeros(100), np.zeros(100), edges(), calendar2014)


def test_day_kind_uses_calendar():
    # 2014-01-01 is a Wednesday; with it as a holiday the first 24 hours
    # count as weekend when holidays are folded in, weekday otherwise
    cal = Calendar(2014, (dt.date(2014, 1, 1),))
    solar = np.zeros(cal.n_hours)
    wind = np.zeros(cal.n_hours)
    e = edges()
    as_weekend = decode(classify_year(solar, wind, e, cal, holidays_as_weekend=True))
    as_weekday = decode(classify_year(solar, wind, e, cal, holidays_as_weekend=False))
    assert all(k.day_kind == "weekend" for k in as_weekend[:24])
    assert all(k.day_kind == "weekday" for k in as_weekday[:24])


def test_aggregate_by_category_reports_all_keys():
    cal = Calendar(2014)
    solar = np.zeros(cal.n_hours)
    wind = np.zeros(cal.n_hours)
    keys = classify_year(solar, wind, edges(), cal)
    metric = np.ones(cal.n_hours)
    counts, sums = aggregate_by_category(keys, metric)
    assert counts.shape == sums.shape == (150,)
    assert counts.dtype.kind == "i" and sums.dtype == np.float64
    occupied = [k for k, n in zip(all_category_keys(), counts) if n]
    assert all(k.solar_bin == 1 and k.wind_bin == 1 for k in occupied)
    assert counts.sum() == 8760
    assert sums.sum() == pytest.approx(8760.0)
    assert (sums[counts == 0] == 0.0).all()


def test_aggregate_skips_nan_hours():
    cal = Calendar(2014)
    keys = classify_year(np.zeros(cal.n_hours), np.zeros(cal.n_hours), edges(), cal)
    metric = np.ones(cal.n_hours)
    metric[:100] = np.nan
    counts, _ = aggregate_by_category(keys, metric)
    assert counts.sum() == 8760 - 100
    samples = member_values(keys, metric)
    assert sum(len(v) for v in samples) == 8760 - 100
    assert all(np.isfinite(v).all() for v in samples)


def test_member_values_match_aggregate():
    cal = Calendar(2014)
    rng = np.random.default_rng(5)
    solar = rng.uniform(0, 100, cal.n_hours)
    wind = rng.uniform(0, 100, cal.n_hours)
    e = compute_bins(solar, wind, np.ones(cal.n_hours, dtype=bool))
    keys = classify_year(solar, wind, e, cal)
    metric = rng.normal(size=cal.n_hours)
    counts, sums = aggregate_by_category(keys, metric)
    samples = member_values(keys, metric)
    assert len(samples) == len(counts) == N_CATEGORIES
    for sample, n, total in zip(samples, counts, sums):
        assert len(sample) == n
        if n:
            assert sample.mean() == pytest.approx(total / n)


def test_generation_atoms_respect_equal_fill(pv_unit, wind_unit, calendar2014):
    # the synthetic year has atoms at 0 kW and at the 500 kW clip; both
    # stay inside the outer quintiles, so the equal-fill property holds
    # on real model output too
    wind_pct = percent_of_capacity(wind_unit / 1000.0, 0.5)
    solar_pct = percent_of_capacity(pv_unit, 107.9)
    daylight = pv_unit > 0
    e = compute_bins(solar_pct, wind_pct, daylight)
    keys = decode(classify_year(solar_pct, wind_pct, e, calendar2014))
    wind_counts = {b: 0 for b in range(1, N_BINS + 1)}
    solar_counts = {b: 0 for b in range(1, N_BINS + 1)}
    for k in keys:
        wind_counts[k.wind_bin] += 1
        solar_counts[k.solar_bin] += 1
    assert wind_counts == {b: 1752 for b in range(1, N_BINS + 1)}
    # night hours all land in solar bin 1; daylight hours split evenly
    n_day = int(daylight.sum())
    per_bin = n_day // 5
    assert solar_counts[1] == (8760 - n_day) + per_bin
    for b in range(2, 6):
        assert abs(solar_counts[b] - per_bin) <= 1


def test_category_codes_follow_key_order():
    # code ((weekend·3 + band)·5 + solar_bin − 1)·5 + wind_bin − 1 is the key's index
    for code, key in enumerate(all_category_keys()):
        day = ("weekday", "weekend").index(key.day_kind)
        band = ("night", "day", "evening").index(key.time_band)
        assert ((day * 3 + band) * 5 + key.solar_bin - 1) * 5 + key.wind_bin - 1 == code
    assert len(all_category_keys()) == N_CATEGORIES


@pytest.mark.parametrize("holidays_as_weekend", [True, False])
def test_classify_year_matches_per_hour_oracle(calendar2014, holidays_as_weekend):
    # random percentages with a share of hours placed exactly on an edge
    rng = np.random.default_rng(11)
    n = calendar2014.n_hours
    e = edges(solar=(0.0, 12.5, 40.0, 40.0), wind=(5.0, 20.0, 55.5, 100.0))
    solar = rng.uniform(0, 100, n)
    wind = rng.uniform(0, 100, n)
    solar[::7] = rng.choice(e.solar_edges, size=len(solar[::7]))
    wind[::5] = rng.choice(e.wind_edges, size=len(wind[::5]))
    codes = classify_year(solar, wind, e, calendar2014, holidays_as_weekend)
    expected = [classify_hour(i, s, w, e, calendar2014, holidays_as_weekend)
                for i, (s, w) in enumerate(zip(solar.tolist(), wind.tolist()))]
    assert decode(codes) == expected


_metric_values = st.one_of(st.just(float("nan")), st.just(-0.0), st.just(0.0),
                           st.floats(allow_nan=False, width=64))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 150),
       codes_from=st.sampled_from(["all", "few"]), all_nan=st.booleans())
def test_columnar_categories_equal_dict_loops(data, n, codes_from, all_nan):
    # "few" leaves most of the 150 categories empty, as a zero-capacity mix does
    top = N_CATEGORIES - 1 if codes_from == "all" else 3
    codes = np.array(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
                     dtype=np.int64)
    if all_nan:
        values = np.full(n, np.nan)
    else:
        values = np.array(data.draw(st.lists(_metric_values, min_size=n, max_size=n)),
                          dtype=float)
    keys = decode(codes)

    (counts, sums), (want_counts, want_sums) = (aggregate_by_category(codes, values),
                                                oracle_aggregate(keys, values))
    assert counts.tolist() == want_counts
    assert [hexed(total) for total in sums.tolist()] == [hexed(total) for total in want_sums]

    members, want_members = member_values(codes, values), oracle_members(keys, values)
    assert list(want_members) == list(all_category_keys())
    assert len(members) == len(want_members)
    for sample, want in zip(members, want_members.values()):
        assert sample.dtype == np.float64 and sample.shape == want.shape
        assert [float.hex(v) for v in sample.tolist()] == [float.hex(v) for v in want.tolist()]

    counts = category_counts(codes)
    assert counts == oracle_counts(keys)
    assert all(type(c) is int for c in counts.values())


@pytest.mark.parametrize("codes", [[-1], [N_CATEGORIES], [0.0], ["a"]])
def test_category_codes_are_checked(codes):
    with pytest.raises(ClassifyError, match="category codes"):
        category_counts(np.array(codes))
    with pytest.raises(ClassifyError, match="category codes"):
        aggregate_by_category(np.array(codes), np.zeros(1))


def test_codes_and_metric_lengths_must_match():
    with pytest.raises(ClassifyError, match="length"):
        member_values(np.zeros(3, dtype=int), np.zeros(2))
