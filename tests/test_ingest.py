import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calendar_oracle import local_time, offset_hours_at, utc_time
from urbanmix.config import assemble_demand, assemble_weather, load_config
from urbanmix.demand import build_load_cases, synthesize_service_profile
from urbanmix.generation import PvParams, pv_unit_series, wind_unit_series
from urbanmix.ingest import (Calendar, DstTransition, IngestError, hours_in_year, load_profile,
                             load_weather, read_series, write_series)
from urbanmix.synthdata import household_weights, reference_profile_values, write_input_set

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


@pytest.fixture(scope="module", params=[2014, 2016])
def file_config(request, tmp_path_factory):
    """The configuration of a generated input set for a common and a leap year."""
    calendar = Calendar(request.param)
    return load_config(write_input_set(tmp_path_factory.mktemp("inputs"), calendar, seed=0))


# every function that makes an hourly column, each called on a configuration
ARRAY_PRODUCERS = {
    "load_profile": lambda c: [load_profile(c.household_profile_path, 1000.0, c.calendar)],
    "read_series": lambda c: [read_series(c.reference_profile_dir / "hospital.csv", c.calendar,
                                          value_column="kw")],
    "assemble_demand": lambda c: assemble_demand(c)[1:],
    "assemble_demand synthetic": lambda c: assemble_demand(
        c._replace(household_profile_path=None, reference_profile_dir=None))[1:],
    "household_weights": lambda c: [household_weights(c.calendar)],
    "reference_profile_values": lambda c: [reference_profile_values("hospital", c.calendar)],
    "synthesize_service_profile": lambda c: [synthesize_service_profile(
        {"hospital": 3}, {"hospital": reference_profile_values("hospital", c.calendar)})],
    "build_load_cases": lambda c: build_load_cases(*assemble_demand(c)[1:])[:2],
    "pv_unit_series": lambda c: [pv_unit_series(assemble_weather(c))],
    "pv_unit_series single-diode": lambda c: [
        pv_unit_series(assemble_weather(c), PvParams(model="single-diode"))],
    "wind_unit_series": lambda c: [wind_unit_series(assemble_weather(c))],
}


@pytest.mark.parametrize("producer", ARRAY_PRODUCERS)
def test_every_series_is_a_read_only_column_of_the_calendar(file_config, producer):
    for series in ARRAY_PRODUCERS[producer](file_config):
        assert series.dtype == np.float64
        assert series.shape == (file_config.calendar.n_hours,)
        assert series.flags.writeable is False


def test_calendar_basic_shape(calendar2014):
    assert calendar2014.n_hours == 8760
    assert utc_time(calendar2014, 0) == dt.datetime(2014, 1, 1, tzinfo=dt.timezone.utc)
    assert len(calendar2014.local_hour) == 8760


def test_calendar_base_offset(calendar2014):
    # Jan 1 2014 00:00 UTC is 01:00 local under the +1 base offset
    assert calendar2014.local_hour[0] == 1
    assert calendar2014.local_day_of_year[0] == 1


def test_calendar_dst_transitions(calendar2014):
    # last Sunday of March 2014, 01:00 UTC: offset jumps +1 -> +2
    before = dt.datetime(2014, 3, 30, 0, 59, tzinfo=dt.timezone.utc)
    after = dt.datetime(2014, 3, 30, 1, 0, tzinfo=dt.timezone.utc)
    assert offset_hours_at(calendar2014, before) == 1.0
    assert offset_hours_at(calendar2014, after) == 2.0
    back = dt.datetime(2014, 10, 26, 1, 0, tzinfo=dt.timezone.utc)
    assert offset_hours_at(calendar2014, back) == 1.0
    # hours 2112-2113 are 00:00 and 01:00 UTC on 30 March, 7152-7153 on 26 October
    assert calendar2014.local_hour[2112:2114].tolist() == [1, 3]
    assert calendar2014.local_hour[7152:7154].tolist() == [2, 2]


def test_calendar_local_hour_never_skips_utc_hours(calendar2014):
    # the UTC axis stays dense regardless of DST; only the wall clock jumps
    assert calendar2014.n_hours == len(set(range(calendar2014.n_hours)))
    jumps = np.diff(calendar2014.local_hour.astype(int)) % 24
    assert set(np.unique(jumps)) <= {1, 2, 0}


def test_calendar_weekend_and_holiday(calendar2014):
    # Jan 4 2014 was a Saturday; Jan 1 a holiday (Wednesday)
    sat_idx = [i for i in range(8760)
               if local_time(calendar2014, i).date() == dt.date(2014, 1, 4)]
    assert calendar2014.is_weekend_day[sat_idx].all()
    wed_idx = [i for i in range(8760)
               if local_time(calendar2014, i).date() == dt.date(2014, 1, 1)]
    assert not calendar2014.is_weekend_day[wed_idx].any()
    assert calendar2014.is_holiday[wed_idx].all()
    assert calendar2014.weekend_kind(True)[wed_idx].all()
    assert not calendar2014.weekend_kind(False)[wed_idx].any()


def per_hour_calendar_arrays(calendar):
    times = [local_time(calendar, i) for i in range(calendar.n_hours)]
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
        st.tuples(seconds, instant_zones, offsets).map(lambda t: DstTransition(
            (start + dt.timedelta(seconds=t[0])).astimezone(t[1]), t[2])),
        max_size=3))
    holidays = draw(st.sampled_from([(), (dt.date(year, 1, 1),), (dt.date(year, 12, 31),),
                                     (dt.date(year, 1, 1), dt.date(year, 12, 31))]))
    return Calendar(year, holidays, draw(offsets), transitions)


@settings(max_examples=40, deadline=None)
@given(calendars())
def test_calendar_arrays_match_per_hour_local_time(calendar):
    arrays = (calendar.local_hour, calendar.local_day_of_year,
              calendar.is_weekend_day, calendar.is_holiday)
    for got, expected in zip(arrays, per_hour_calendar_arrays(calendar)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert not got.flags.writeable


def test_calendar_reads_transitions_in_any_form_and_order():
    # a naive instant is read as UTC; one that names an offset is converted to UTC
    spring = DstTransition(dt.datetime(2014, 3, 30, 1), 2.0)
    autumn = DstTransition(dt.datetime(2014, 10, 26, 1), 1.0)
    assert spring.at_utc == dt.datetime(2014, 3, 30, 1, tzinfo=dt.timezone.utc)
    forms = [spring, DstTransition("2014-03-30T01:00+00:00", 2.0),
             DstTransition("2014-03-30T03:00+02:00", 2.0)]
    assert all(form == spring and form.at_utc.tzinfo is dt.timezone.utc for form in forms)
    calendars = [Calendar(2014, (), 1.0, (form, autumn)) for form in forms]
    calendars.append(Calendar(2014, (), 1.0, (autumn, spring)))
    expected = calendars[0]
    for calendar in calendars:
        assert sorted(calendar.transitions) == [spring, autumn]
        for name in ("local_hour", "local_day_of_year", "is_weekend_day", "is_holiday"):
            assert np.array_equal(getattr(calendar, name), getattr(expected, name))
    assert expected.local_hour[2112:2114].tolist() == [1, 3]


@pytest.mark.parametrize("offset, message", [
    ("x", "offset_hours must be a finite number, got 'x'"),
    (None, "offset_hours must be a finite number, got None"),
    (14.5, "offset_hours must be in [-14, 14], got 14.5"),
    (-1e20, "offset_hours must be in [-14, 14], got -1e+20"),
])
def test_dst_transition_rejects_bad_offset(offset, message):
    instant = dt.datetime(2014, 3, 30, 1)
    with pytest.raises(IngestError) as info:
        DstTransition(instant, offset)
    assert str(info.value) == message


@pytest.mark.parametrize("instant", ["0001-01-01T00:00+02:00", "9999-12-31T23:00-02:00"])
def test_dst_transition_rejects_an_instant_outside_the_utc_range(instant):
    with pytest.raises(IngestError) as info:
        DstTransition(instant, 1.0)
    assert str(info.value) == (f"at_utc {dt.datetime.fromisoformat(instant).isoformat()} "
                               "falls outside years 1-9999 in UTC")


@pytest.mark.parametrize("offset", [-14.5, 15, 1e300])
def test_calendar_rejects_base_offset_outside_range(offset):
    with pytest.raises(IngestError, match=r"^base_utc_offset_hours must be in \[-14, 14\]"):
        Calendar(2014, base_utc_offset_hours=offset)


@pytest.mark.parametrize("year", [1969, 10000, 10 ** 20])
def test_calendar_rejects_year_outside_range(year):
    with pytest.raises(IngestError, match=r"year must be in \[1970, 9999\]"):
        Calendar(year)


@pytest.mark.parametrize("year", [1970, 9999])
def test_calendar_at_the_year_bounds_has_true_weekdays(year):
    calendar = Calendar(year)
    first = dt.date(year, 1, 1)
    expected = [(first + dt.timedelta(days=day)).weekday() >= 5
                for day in range(calendar.n_hours // 24)]
    assert calendar.is_weekend_day[::24].tolist() == expected


def test_calendar_rejects_foreign_holiday():
    with pytest.raises(ValueError, match="outside year"):
        Calendar(year=2014, holiday_dates=(dt.date(2015, 1, 1),))


def test_load_weather_roundtrip(tmp_path, calendar2014):
    path = write_weather(tmp_path / "w.csv", full_weather_rows())
    weather = load_weather(path, calendar2014)
    assert len(weather) == 8760
    assert weather.ghi.shape == (8760,)
    assert float(weather.pressure.min()) == 101325.0


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
    assert series.sum() == pytest.approx(8760.0, rel=1e-12)
    assert series[0] == pytest.approx(1.0, rel=1e-12)


def test_load_profile_rejects_negative(tmp_path, calendar2014):
    lines = ["hour,weight"] + [f"{i},1.0" for i in range(8760)]
    lines[5] = "4,-0.5"
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError) as info:
        load_profile(path, 1000.0, calendar2014)
    assert str(info.value) == f"{path} row 6: weight must be >= 0, got -0.5"


def test_read_series_rejects_negative(tmp_path, calendar2014):
    lines = ["hour,kw"] + [f"{i},1.0" for i in range(8760)]
    lines[18] = "17,-1.0"
    path = tmp_path / "s.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError) as info:
        read_series(path, calendar2014, value_column="kw")
    assert str(info.value) == f"{path} row 19: kw must be >= 0, got -1.0"


def test_load_profile_rejects_weights_that_scale_past_the_float_range(tmp_path, calendar2014):
    # finite weights whose total is subnormal: 1000 / 5e-324 overflows
    lines = ["hour,weight", "0,5e-324"] + [f"{i},0" for i in range(1, 8760)]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IngestError) as info:
        load_profile(path, 1000.0, calendar2014)
    assert str(info.value) == f"{path}: profile weights scaled to 1000.0 kWh are not finite"


def test_load_profile_rejects_all_zero(tmp_path, calendar2014):
    lines = ["hour,weight"] + [f"{i},0" for i in range(8760)]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="cannot normalize"):
        load_profile(path, 1000.0, calendar2014)


def test_series_write_read_exact(tmp_path, calendar2014):
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 1e4, 8760)
    path = tmp_path / "s.csv"
    write_series(values, path, value_column="kw")
    again = read_series(path, calendar2014, value_column="kw")
    assert np.array_equal(values, again)


def test_read_series_header_enforced(tmp_path, calendar2014):
    path = tmp_path / "s.csv"
    write_series(np.ones(8760), path, value_column="kw")
    with pytest.raises(IngestError, match="header"):
        read_series(path, calendar2014, value_column="weight")


@given(st.integers(min_value=1970, max_value=2100))
def test_hours_in_year_matches_calendar(year):
    days = (dt.date(year + 1, 1, 1) - dt.date(year, 1, 1)).days
    assert hours_in_year(year) == days * 24


# --- the columnar reader against a row-by-row oracle -------------------------

EDGE_CELLS = ("-0.0", "0", "-2", "+3", "12", ".5", "7.", "1E5", "5e-324",
              "2.225073858507201e-308", "2.2250738585072014e-308", "1e308", "-1e308",
              "1.7976931348623157e308", "-1.7976931348623157e308")
# The lower bound of each value column: a series cell (kw) is a load, so >= 0.
LOWER = {"ghi_wm2": (">=", 0.0), "temp_c": (">", -90.0),
         "pressure_pa": (">", 0.0), "wind_ms": (">=", 0.0), "kw": (">=", 0.0)}


def cell_text(column):
    """Finite numbers within the column's bound as CSV text: edge values, any
    float's repr, whole numbers."""
    op, bound = LOWER[column]
    text = (st.sampled_from(EDGE_CELLS)
            | st.floats(allow_nan=False, allow_infinity=False).map(repr)
            | st.integers(min_value=-10**18, max_value=10**18).map(str))
    return text.filter(lambda t: float(t) >= bound if op == ">=" else float(t) > bound)


def background_cells(rng, column):
    low, high = {"ghi_wm2": (0, 1000), "temp_c": (-20, 40), "pressure_pa": (9e4, 1.1e5),
                 "wind_ms": (0, 25), "kw": (0, 1e3)}[column]
    values = rng.uniform(low, high, 8760)
    return [str(int(v)) if rng.random() < 0.1 else repr(v) for v in values.tolist()]


@st.composite
def tables(draw, columns):
    """(rows of cell text in file order, line end, empty-line and quoting flags, rng).

    Every hour of 2014 appears once; a few rows carry drawn edge values."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    body = [background_cells(rng, column) for column in columns[1:]]
    rows = [[str(h)] + list(cells) for h, cells in enumerate(zip(*body))]
    for hour, cells in draw(st.lists(st.tuples(st.integers(0, 8759),
                                               st.tuples(*map(cell_text, columns[1:]))),
                                     max_size=12)):
        rows[hour][1:] = cells
    for row in rows[::97]:
        row[0] += ".0"
    if draw(st.booleans()):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    return rows, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), \
        draw(st.booleans()), rng


def write_table(path, columns, rows, line_end, empty_lines, quoted, rng):
    """Write the table; returns the line number of each row (the header is line 1)."""
    lines, numbers = [",".join(columns)], []
    for cells in rows:
        if empty_lines and rng.random() < 0.01:
            lines.append("")
        if quoted:
            cells = [f'"{c}"' if rng.random() < 0.05 else c for c in cells]
        lines.append(",".join(cells))
        numbers.append(len(lines))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(line_end.join(lines) + line_end)
    return numbers


def oracle(path):
    """csv.reader and float() per cell; each row's values land at its hour."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row][1:]
    out = np.full((len(rows[0]) - 1, len(rows)), np.nan)
    for row in rows:
        out[:, int(float(row[0]))] = [float(cell) for cell in row[1:]]
    return out


SERIES_COLUMNS = ("hour", "kw")
WEATHER_COLUMNS = tuple(WEATHER_HEADER.split(","))
TABLE_SETTINGS = settings(max_examples=25, deadline=None)


@TABLE_SETTINGS
@given(tables(SERIES_COLUMNS))
def test_read_series_matches_row_oracle(tmp_path_factory, calendar2014, table):
    path = tmp_path_factory.mktemp("series") / "kw.csv"
    write_table(path, SERIES_COLUMNS, *table)
    got = read_series(path, calendar2014, value_column="kw")
    assert got.tobytes() == oracle(path)[0].tobytes()


@TABLE_SETTINGS
@given(tables(WEATHER_COLUMNS))
def test_load_weather_matches_row_oracle(tmp_path_factory, calendar2014, table):
    path = tmp_path_factory.mktemp("weather") / "weather.csv"
    write_table(path, WEATHER_COLUMNS, *table)
    weather = load_weather(path, calendar2014)
    got = np.array([weather.ghi, weather.temp, weather.pressure, weather.wind_speed_10m])
    assert got.tobytes() == oracle(path).tobytes()


FAULTS = ("non-numeric", "width", "fractional hour", "hour out of range",
          "duplicate hour", "gap", "nan", "below range")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([SERIES_COLUMNS, WEATHER_COLUMNS]).flatmap(
    lambda columns: st.tuples(st.just(columns), tables(columns))),
    st.sampled_from(FAULTS), st.integers(0, 8759), st.integers(0, 8759),
    st.sampled_from(["abc", "1_000", "", " ", "1e", "0x10", "--1", "１"]))
def test_single_fault_names_file_and_row(tmp_path_factory, calendar2014, case, fault,
                                         at, other, junk):
    columns, (rows, line_end, empty_lines, quoted, rng) = case
    rows = [list(row) for row in rows]
    column = 1 + at % (len(columns) - 1)
    hour = int(float(rows[at][0]))
    if fault == "non-numeric":
        rows[at][at % len(columns)] = junk
    elif fault == "width":
        rows[at] = rows[at][:-1] if at % 2 else rows[at] + ["1"]
    elif fault == "fractional hour":
        rows[at][0] = f"{hour}.5"
    elif fault == "hour out of range":
        rows[at][0] = str(8760 if at % 2 else -1)
    elif fault == "duplicate hour":
        other = other if other != at else (at + 1) % len(rows)
        rows[at][0] = rows[other][0]
        hour = int(float(rows[other][0]))
    elif fault == "gap":
        del rows[at]
    elif fault == "below range":
        op, bound = LOWER[columns[column]]
        rows[at][column] = repr(bound - 1.0 if op == ">=" else bound)
    else:
        rows[at][column] = "nan"
    path = tmp_path_factory.mktemp("fault") / "table.csv"
    lines = write_table(path, columns, rows, line_end, empty_lines, quoted, rng)
    with pytest.raises(IngestError) as info:
        if columns == WEATHER_COLUMNS:
            load_weather(path, calendar2014)
        else:
            read_series(path, calendar2014, value_column="kw")
    message = str(info.value)
    if fault == "gap":
        assert message == f"{path} incomplete: gap at hour {hour}"
    elif fault == "nan":
        assert message == f"{path}: non-finite {columns[column]} at hour {hour}"
    elif fault == "duplicate hour":
        assert message == (f"{path} row {lines[max(at, other)]}: "
                           f"duplicate timestamp at hour {hour}")
    elif fault == "below range":
        op, _ = LOWER[columns[column]]
        assert message.startswith(f"{path} row {lines[at]}: {columns[column]} must be {op} ")
        assert message.endswith(f", got {rows[at][column]}")
    else:
        kind = {"non-numeric": "non-numeric value", "width": f"expected {len(columns)} cells"}
        assert message.startswith(f"{path} row {lines[at]}: ")
        assert kind.get(fault, "is not a whole hour in 0..8759") in message
