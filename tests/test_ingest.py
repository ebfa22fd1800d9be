import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmix.ingest import (Calendar, HourlySeries, IngestError, build_calendar,
                             hours_in_year, load_profile, load_weather,
                             read_series, weather_arrays, write_series)

WEATHER_HEADER = "hour_utc,ghi_wm2,temp_c,pressure_pa,wind_ms"


def write_weather(path, rows, header=WEATHER_HEADER):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n")
    return path


def full_weather_rows(n=8760):
    return [f"{i},100,10,101325,5" for i in range(n)]


def test_hours_in_year():
    assert hours_in_year(2014) == 8760
    assert hours_in_year(2012) == 8784
    assert hours_in_year(2000) == 8784
    assert hours_in_year(1900) == 8760


def test_series_length_enforced():
    with pytest.raises(ValueError):
        HourlySeries(np.zeros(8761), unit="kW", year=2014)
    HourlySeries(np.zeros(8784), unit="kW", year=2012)


def test_series_rejects_non_finite():
    values = np.zeros(8760)
    values[7] = np.nan
    with pytest.raises(ValueError):
        HourlySeries(values, unit="kW", year=2014)


def test_series_immutable():
    series = HourlySeries(np.ones(8760), unit="kW", year=2014)
    with pytest.raises(ValueError):
        series.values[0] = 2.0


def test_calendar_basic_shape(calendar2014):
    assert calendar2014.n_hours == 8760
    assert calendar2014.utc_time(0) == dt.datetime(2014, 1, 1, tzinfo=dt.timezone.utc)
    assert len(calendar2014.local_hour) == 8760


def test_calendar_base_offset(calendar2014):
    # Jan 1 2014 00:00 UTC is 01:00 local under the +1 base offset
    assert calendar2014.local_hour[0] == 1
    assert calendar2014.local_day_of_year[0] == 1


def test_calendar_dst_transitions(calendar2014):
    # last Sunday of March 2014, 01:00 UTC: offset jumps +1 -> +2
    before = dt.datetime(2014, 3, 30, 0, 59, tzinfo=dt.timezone.utc)
    after = dt.datetime(2014, 3, 30, 1, 0, tzinfo=dt.timezone.utc)
    assert calendar2014.offset_hours_at(before) == 1.0
    assert calendar2014.offset_hours_at(after) == 2.0
    back = dt.datetime(2014, 10, 26, 1, 0, tzinfo=dt.timezone.utc)
    assert calendar2014.offset_hours_at(back) == 1.0


def test_calendar_local_hour_never_skips_utc_hours(calendar2014):
    # the UTC axis stays dense regardless of DST; only the wall clock jumps
    assert calendar2014.n_hours == len(set(range(calendar2014.n_hours)))
    jumps = np.diff(calendar2014.local_hour.astype(int)) % 24
    assert set(np.unique(jumps)) <= {1, 2, 0}


def test_calendar_weekend_and_holiday(calendar2014):
    # Jan 4 2014 was a Saturday; Jan 1 a holiday (Wednesday)
    sat_idx = [i for i in range(8760)
               if calendar2014.local_time(i).date() == dt.date(2014, 1, 4)]
    assert calendar2014.is_weekend_day[sat_idx].all()
    wed_idx = [i for i in range(8760)
               if calendar2014.local_time(i).date() == dt.date(2014, 1, 1)]
    assert not calendar2014.is_weekend_day[wed_idx].any()
    assert calendar2014.is_holiday[wed_idx].all()
    assert calendar2014.weekend_kind(True)[wed_idx].all()
    assert not calendar2014.weekend_kind(False)[wed_idx].any()


def per_hour_calendar_arrays(calendar):
    times = [calendar.local_time(i) for i in range(calendar.n_hours)]
    return (np.array([t.hour for t in times], dtype=np.int64),
            np.array([t.timetuple().tm_yday for t in times], dtype=np.int64),
            np.array([t.weekday() >= 5 for t in times], dtype=bool),
            np.array([t.date() in calendar.holiday_dates for t in times], dtype=bool))


@st.composite
def calendars(draw):
    year = draw(st.integers(min_value=1970, max_value=2100))
    offsets = st.sampled_from([0.0, 1.0, -5.0, 5.5, -3.5, 5.75, 12.0, -11.0, 1 / 3]) | \
        st.floats(min_value=-12.0, max_value=14.0)
    start = dt.datetime(year, 1, 1, tzinfo=dt.timezone.utc)
    instant_zones = st.sampled_from([dt.timezone.utc, dt.timezone(dt.timedelta(hours=3)),
                                     dt.timezone(dt.timedelta(hours=-9, minutes=-30))])
    # whole hours hit the "instant <= utc" edge; arbitrary seconds fall between hours
    seconds = (st.integers(min_value=-48, max_value=367 * 24).map(lambda h: h * 3600)
               | st.integers(min_value=-2 * 86400, max_value=367 * 86400))
    transitions = draw(st.lists(
        st.tuples(seconds, instant_zones,
                  offsets).map(lambda t: ((start + dt.timedelta(seconds=t[0])).astimezone(t[1]),
                                          t[2])),
        max_size=3))
    holidays = draw(st.sampled_from([(), (dt.date(year, 1, 1),), (dt.date(year, 12, 31),),
                                     (dt.date(year, 1, 1), dt.date(year, 12, 31))]))
    return build_calendar(year, holidays, draw(offsets), transitions)


@settings(max_examples=40, deadline=None)
@given(calendars())
def test_calendar_arrays_match_per_hour_local_time(calendar):
    arrays = (calendar.local_hour, calendar.local_day_of_year,
              calendar.is_weekend_day, calendar.is_holiday)
    for got, expected in zip(arrays, per_hour_calendar_arrays(calendar)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert not got.flags.writeable


def test_calendar_rejects_naive_transition_instants():
    with pytest.raises(ValueError, match="timezone-aware"):
        Calendar(year=2014, holiday_dates=frozenset(), base_utc_offset_hours=1.0,
                 transitions=((dt.datetime(2014, 3, 30, 1), 2.0),))


def test_build_calendar_rejects_bad_holiday():
    with pytest.raises(IngestError, match="malformed holiday date"):
        build_calendar(2014, holidays=["not-a-date"])


def test_calendar_rejects_foreign_holiday():
    with pytest.raises(ValueError, match="outside year"):
        Calendar(year=2014, holiday_dates=frozenset({dt.date(2015, 1, 1)}),
                 base_utc_offset_hours=0.0)


def test_load_weather_roundtrip(tmp_path, calendar2014):
    path = write_weather(tmp_path / "w.csv", full_weather_rows())
    records = load_weather(path, calendar2014)
    assert len(records) == 8760
    assert records[17].hour_index == 17
    arrays = weather_arrays(records)
    assert arrays["ghi"].shape == (8760,)
    assert float(arrays["pressure"].min()) == 101325.0


def test_load_weather_rejects_bad_header(tmp_path, calendar2014):
    path = write_weather(tmp_path / "w.csv", full_weather_rows(),
                         header="hour,ghi,temp,pressure,wind")
    with pytest.raises(IngestError, match="header"):
        load_weather(path, calendar2014)


def test_load_weather_rejects_duplicate(tmp_path, calendar2014):
    rows = full_weather_rows()
    rows.append("42,100,10,101325,5")
    path = write_weather(tmp_path / "w.csv", rows)
    with pytest.raises(IngestError, match="duplicate timestamp at hour 42"):
        load_weather(path, calendar2014)


def test_load_weather_reports_gaps(tmp_path, calendar2014):
    rows = [r for i, r in enumerate(full_weather_rows()) if i != 100]
    path = write_weather(tmp_path / "w.csv", rows)
    with pytest.raises(IngestError, match="gap at hour 100"):
        load_weather(path, calendar2014)


def test_load_weather_range_checks(tmp_path, calendar2014):
    cases = [
        ("0,-1,10,101325,5", "ghi_wm2"),
        ("0,100,10,0,5", "pressure_pa"),
        ("0,100,10,101325,-2", "wind_ms"),
        ("0,100,-120,101325,5", "temp_c"),
    ]
    for row, column in cases:
        rows = full_weather_rows()
        rows[0] = row
        path = write_weather(tmp_path / "w.csv", rows)
        with pytest.raises(IngestError, match=column):
            load_weather(path, calendar2014)


@pytest.mark.parametrize("cell, column", [("nan", "ghi_wm2"), ("inf", "pressure_pa"),
                                          ("nan", "temp_c"), ("inf", "wind_ms")])
def test_load_weather_rejects_non_finite(tmp_path, calendar2014, cell, column):
    rows = full_weather_rows()
    cells = rows[17].split(",")
    cells[WEATHER_HEADER.split(",").index(column)] = cell
    rows[17] = ",".join(cells)
    path = write_weather(tmp_path / "w.csv", rows)
    with pytest.raises(IngestError, match=f"non-finite {column} at hour 17"):
        load_weather(path, calendar2014)


def test_load_weather_rejects_non_numeric(tmp_path, calendar2014):
    rows = full_weather_rows()
    rows[3] = "3,abc,10,101325,5"
    path = write_weather(tmp_path / "w.csv", rows)
    with pytest.raises(IngestError, match="non-numeric"):
        load_weather(path, calendar2014)


def test_load_weather_missing_file(tmp_path, calendar2014):
    with pytest.raises(IngestError, match="not found"):
        load_weather(tmp_path / "nope.csv", calendar2014)


def test_load_profile_renormalizes(tmp_path, calendar2014):
    lines = ["hour,weight"] + [f"{i},2.0" for i in range(8760)]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    series = load_profile(path, annual_energy_kwh=8760.0, calendar=calendar2014)
    assert series.total() == pytest.approx(8760.0, rel=1e-12)
    assert series.values[0] == pytest.approx(1.0, rel=1e-12)


def test_load_profile_rejects_negative(tmp_path, calendar2014):
    lines = ["hour,weight"] + [f"{i},1.0" for i in range(8760)]
    lines[5] = "4,-0.5"
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="hour 4 is negative"):
        load_profile(path, 1000.0, calendar2014)


def test_load_profile_rejects_all_zero(tmp_path, calendar2014):
    lines = ["hour,weight"] + [f"{i},0" for i in range(8760)]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="cannot normalize"):
        load_profile(path, 1000.0, calendar2014)


def test_series_write_read_exact(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 1e4, 8760)
    series = HourlySeries(values, unit="kW", year=2014)
    path = tmp_path / "s.csv"
    write_series(series, path, value_column="kw")
    again = read_series(path, unit="kW", year=2014, value_column="kw")
    assert np.array_equal(series.values, again.values)


def test_read_series_header_enforced(tmp_path):
    path = tmp_path / "s.csv"
    write_series(HourlySeries(np.ones(8760), "kW", 2014), path, value_column="kw")
    with pytest.raises(IngestError, match="header"):
        read_series(path, unit="kW", year=2014, value_column="weight")


@given(st.integers(min_value=1970, max_value=2100))
def test_hours_in_year_matches_calendar(year):
    days = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
    assert hours_in_year(year) == days * 24
