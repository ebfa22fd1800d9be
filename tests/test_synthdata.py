import filecmp
import json

import numpy as np
import pytest

from urbanmix.config import assemble, load_config
from urbanmix.synthdata import (SHAPES, TYPE_ANNUAL_KWH, household_weights,
                                reference_profile_values,
                                synthetic_weather_frame, write_input_set)


def test_weather_frame_shapes_and_ranges(calendar2014):
    frame = synthetic_weather_frame(calendar2014, seed=1)
    ghi, temp = frame.ghi, frame.temp
    pressure, wind = frame.pressure, frame.wind_speed_10m
    assert len(ghi) == len(temp) == len(pressure) == len(wind) == 8760
    assert float(ghi.min()) >= 0.0
    assert float(ghi.max()) < 1100.0
    assert -25.0 < float(temp.min()) and float(temp.max()) < 45.0
    assert 95_000.0 < float(pressure.min()) and float(pressure.max()) < 107_000.0
    assert float(wind.min()) >= 0.0


def test_ghi_zero_through_the_night(calendar2014):
    ghi = synthetic_weather_frame(calendar2014, seed=1).ghi
    # local midnight-to-3am hours never see the sun at 52° latitude
    local = calendar2014.local_hour
    dark = (local >= 0) & (local < 3)
    assert float(np.abs(ghi[dark]).max()) == 0.0
    # and the year still has plenty of daylight
    assert int((ghi > 0).sum()) > 3500


def test_wind_series_is_tie_free(calendar2014):
    wind = synthetic_weather_frame(calendar2014, seed=1234).wind_speed_10m
    assert len(np.unique(wind)) == 8760


def test_weather_deterministic_per_seed(calendar2014):
    a = synthetic_weather_frame(calendar2014, seed=5)
    b = synthetic_weather_frame(calendar2014, seed=5)
    c = synthetic_weather_frame(calendar2014, seed=6)
    for column in ("ghi", "temp", "pressure", "wind_speed_10m"):
        assert np.array_equal(getattr(a, column), getattr(b, column))
    assert not np.array_equal(a.temp, c.temp)


def test_weather_frame_columns_are_read_only(calendar2014):
    frame = synthetic_weather_frame(calendar2014, seed=2)
    assert len(frame) == 8760
    for column in (frame.ghi, frame.temp, frame.pressure, frame.wind_speed_10m):
        assert column.shape == (8760,) and not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0


def test_household_weights_daily_structure(calendar2014):
    w = household_weights(calendar2014)
    assert len(w) == 8760
    assert (w > 0).all()
    day = w.reshape(365, 24)
    # evening demand tops morning demand on a typical weekday (Jan 7, Tue)
    tue = day[6]
    assert tue[18:21].mean() > tue[6:9].mean()
    # winter days carry more energy than summer days
    assert day[:31].sum() > day[181:212].sum()


def test_reference_profiles_normalized(calendar2014):
    for name in ("hospital", "small-office", "supermarket"):
        values = reference_profile_values(name, calendar2014)
        assert values.sum() == pytest.approx(TYPE_ANNUAL_KWH[name], rel=1e-9)
        assert (values >= 0).all()


def test_unknown_reference_type():
    with pytest.raises(KeyError):
        TYPE_ANNUAL_KWH["cinema"]
    assert "cinema" not in SHAPES


def test_office_closes_on_weekends(calendar2014):
    values = reference_profile_values("large-office", calendar2014)
    day = values.reshape(365, 24)
    # Jan 6 2014 is a Monday, Jan 4 a Saturday
    monday = day[5]
    saturday = day[3]
    assert monday[10] > 2.0 * saturday[10]


def test_restaurants_peak_in_the_evening(calendar2014):
    values = reference_profile_values("full-service-restaurant", calendar2014)
    day = values.reshape(365, 24).mean(axis=0)
    assert day[18:22].mean() > 2.0 * day[8:12].mean()


def test_write_input_set_round_trip(tmp_path, calendar2014, config2014):
    out = tmp_path / "inputs"
    config_path = write_input_set(out, calendar2014, seed=1234)
    assert config_path == out / "config.json"
    raw = json.loads(config_path.read_text())
    assert raw["weather"] == "weather.csv"
    config = load_config(config_path)
    weather, _, household, _ = assemble(config)
    # file-backed inputs reproduce the in-memory synthetic pipeline
    synthetic_weather, _, synthetic_household, _ = assemble(config2014.with_seed(1234))
    assert household == pytest.approx(synthetic_household, rel=1e-12)
    for column in ("ghi", "temp", "pressure", "wind_speed_10m"):
        assert np.array_equal(getattr(weather, column), getattr(synthetic_weather, column))
    for name in ("hospital", "warehouse"):
        assert (out / "profiles" / f"{name}.csv").exists()


def test_write_input_set_regeneration_identical(tmp_path, calendar2014):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_input_set(a, calendar2014, seed=7)
    write_input_set(b, calendar2014, seed=7)
    for rel in ("weather.csv", "household.csv", "config.json",
                "profiles/hospital.csv", "profiles/supermarket.csv"):
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
