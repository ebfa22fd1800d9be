import json
import re

import pytest

from urbanmix.config import (ConfigError, GAConfig, assemble, default_config,
                             load_config)
from urbanmix.generation import PvParams, TurbineParams


def write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_default_config():
    config = default_config()
    assert config.calendar.year == 2014
    assert config.households == 100_000
    assert config.household_annual_kwh == 3500.0
    assert config.seed == 0
    assert not config.real_inputs
    assert config.weights == (1.0, 1.0, -5.0)
    assert config.mix_pv_mw == 399.0
    assert config.mix_wind_mw == 30.0
    assert config.sweep_max_mw == 525.0
    assert config.sweep_steps == 11
    assert len(config.calendar.holiday_dates) > 0


def test_with_seed():
    config = default_config()
    assert config.with_seed(9).seed == 9
    assert config.seed == 0
    with pytest.raises(ConfigError, match=exactly("seed must be >= 0, got -1")):
        config.with_seed(-1)


@pytest.mark.parametrize("record, changes", [
    (PvParams, {"temp_coefficient": 0.1}),
    (PvParams, {"model": "bogus"}),
    (TurbineParams, {"cp": 0.7}),
    (TurbineParams, {"cut_in_ms": 30.0}),
    (GAConfig, {"elite": 50}),
])
def test_derived_records_stay_checked(record, changes):
    # `_replace` and `_make` build through the checking constructor
    with pytest.raises(ValueError) as built:
        record(**changes)
    message = exactly(str(built.value))
    with pytest.raises(type(built.value), match=message):
        record()._replace(**changes)
    with pytest.raises(type(built.value), match=message):
        record._make({**record()._asdict(), **changes}.values())


def test_float_fields_hold_floats(tmp_path):
    assert type(TurbineParams(hub_height_m=50).hub_height_m) is float
    assert type(TurbineParams()._replace(cut_out_ms=30).cut_out_ms) is float
    config = load_config(write(tmp_path, {"ga": {"blend_alpha": 1}, "pv": {"noct_offset_c": 27}}))
    assert type(config.ga.blend_alpha) is float and config.ga.blend_alpha == 1.0
    assert type(config.pv.noct_offset_c) is float


def test_service_roofs_must_cover_the_fixture(tmp_path):
    with pytest.raises(ConfigError,
                       match=exactly("config: area.service_roofs.hospital is missing")):
        load_config(write(tmp_path, {"area": {"service_roofs": {"office": 10}}}))
    roofs = default_config().scaling_fixture.roof_areas()
    with pytest.raises(ConfigError, match=exactly("config: area.service_roofs.office is not a "
                                                  "building type of the scaling fixture 'nl2014'")):
        load_config(write(tmp_path, {"area": {"service_roofs": {**roofs, "office": 10.0}}}))
    for given in ({}, roofs):
        config = load_config(write(tmp_path, {"area": {"service_roofs": given}}))
        assert config.area.service_roofs == given


def test_minimal_config(tmp_path):
    config = load_config(write(tmp_path, {"year": 2014}))
    assert config.calendar.year == 2014
    # the built-in 2014 calendar (with holidays) backs a bare year
    assert len(config.calendar.holiday_dates) > 0


def test_other_year_builds_bare_calendar(tmp_path):
    config = load_config(write(tmp_path, {"year": 2015}))
    assert config.calendar.year == 2015
    assert config.calendar.n_hours == 8760
    assert len(config.calendar.holiday_dates) == 0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(write(tmp_path, {"year": 2014, "frobs": 1}))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(array)


def test_year_calendar_consistency(tmp_path):
    calendar = {"year": 2015, "holidays": [], "base_utc_offset_hours": 0.0}
    (tmp_path / "cal.json").write_text(json.dumps(calendar))
    with pytest.raises(ConfigError, match="does not match calendar"):
        load_config(write(tmp_path, {"year": 2014, "calendar": "cal.json"}))


def test_broken_calendar_file_is_config_error(tmp_path):
    (tmp_path / "cal.json").write_text(json.dumps({"year": "x"}))
    with pytest.raises(ConfigError, match="cannot read calendar"):
        load_config(write(tmp_path, {"calendar": "cal.json"}))
    with pytest.raises(ConfigError, match="cannot read calendar"):
        load_config(write(tmp_path, {"calendar": "absent.json"}))
    (tmp_path / "cal.json").write_text(json.dumps({"year": 10000}))
    with pytest.raises(ConfigError, match=r"cannot read calendar .*year must be in \[1970, 9999\]"):
        load_config(write(tmp_path, {"calendar": "cal.json"}))


def test_broken_scaling_file_is_config_error(tmp_path):
    (tmp_path / "scaling.json").write_text(json.dumps({"households_per_100k": 1}))
    with pytest.raises(ConfigError, match="cannot read scaling"):
        load_config(write(tmp_path, {"year": 2014, "scaling": "scaling.json"}))


def test_relative_paths_resolve_against_config_dir(tmp_path):
    nested = tmp_path / "inputs"
    nested.mkdir()
    config = load_config(write(nested, {"year": 2014, "weather": "weather.csv"}))
    assert config.weather_path == nested / "weather.csv"


def test_numeric_type_checks(tmp_path):
    with pytest.raises(ConfigError,
                       match=exactly("config: households must be an integer, got 'many'")):
        load_config(write(tmp_path, {"year": 2014, "households": "many"}))
    with pytest.raises(ConfigError, match="must be true or false"):
        load_config(write(tmp_path, {"year": 2014, "real_inputs": "yes"}))
    with pytest.raises(ConfigError, match=exactly("config: households must be > 0, got -5")):
        load_config(write(tmp_path, {"year": 2014, "households": -5}))
    with pytest.raises(ConfigError, match=exactly("config: sweep.steps must be >= 2, got 1")):
        load_config(write(tmp_path, {"year": 2014, "sweep": {"steps": 1}}))
    with pytest.raises(ConfigError, match="household_annual_kwh"):
        load_config(write(tmp_path, {"year": 2014, "household_annual_kwh": 0}))


def test_section_overrides(tmp_path):
    config = load_config(write(tmp_path, {
        "year": 2014,
        "turbine": {"cut_in_ms": 3.0},
        "pv": {"temp_coefficient": -0.004, "diode": {"isc_a": 4.0}},
        "sweep": {"max_mw": 100.0, "steps": 3},
        "mix_preset": {"pv_mw": 50.0, "wind_mw": 5.0},
        "stats": {"alpha": 0.01, "pooled": True},
        "weights": [2.0, 1.0, -3.0],
        "ga": {"population": 20},
        "seed": 11,
    }))
    assert config.turbine.cut_in_ms == 3.0
    assert config.pv.temp_coefficient == -0.004
    assert config.pv.diode.isc_a == 4.0 and config.pv.diode.n_cells == 36
    assert config.sweep_max_mw == 100.0
    assert config.sweep_steps == 3
    assert config.mix_pv_mw == 50.0
    assert config.alpha == 0.01
    assert config.pooled is True
    assert config.weights == (2.0, 1.0, -3.0)
    assert config.ga.population == 20
    assert config.seed == 11


def test_bad_section_option_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=exactly("config: unknown keys ['turbine.rotor']")):
        load_config(write(tmp_path, {"year": 2014, "turbine": {"rotor": 1}}))
    with pytest.raises(ConfigError,
                       match=exactly("config: turbine.cp must be in (0, 0.593), got 0.7")):
        load_config(write(tmp_path, {"year": 2014, "turbine": {"cp": 0.7}}))
    with pytest.raises(ConfigError, match=exactly("config: turbine.cut_in_ms must be "
                                                  "< cut_out_ms, got 30.0 >= 25.0")):
        load_config(write(tmp_path, {"year": 2014, "turbine": {"cut_in_ms": 30.0}}))
    with pytest.raises(ConfigError,
                       match=exactly("config: weights must be a list of 3 values, got [1.0]")):
        load_config(write(tmp_path, {"year": 2014, "weights": [1.0]}))


def test_area_section_carries_roof_only(tmp_path):
    config = load_config(write(tmp_path, {
        "year": 2014, "area": {"roof_only_pv": True, "phi_area": 2.0}}))
    assert config.roof_only_pv is True
    assert config.area.phi_area == 2.0


@pytest.mark.parametrize("payload, label", [
    ({"stats": {"pooled": "false"}}, "stats.pooled"),
    ({"stats": {"pooled": 0}}, "stats.pooled"),
    ({"area": {"roof_only_pv": "false"}}, "area.roof_only_pv"),
    ({"area": {"roof_only_pv": 1}}, "area.roof_only_pv"),
])
def test_non_boolean_flags_rejected(tmp_path, payload, label):
    with pytest.raises(ConfigError, match=f"{label} must be true or false"):
        load_config(write(tmp_path, {"year": 2014, **payload}))


def test_benchmarks_override(tmp_path):
    config = load_config(write(tmp_path, {
        "year": 2014, "benchmarks": [{"name": "X", "twh": 5.0}]}))
    assert len(config.benchmarks) == 1
    assert config.benchmarks[0].name == "X"
    with pytest.raises(ConfigError,
                       match=exactly("config: benchmarks[0].twh is missing")):
        load_config(write(tmp_path, {"year": 2014, "benchmarks": [{"name": "X"}]}))


def test_assemble_synthetic_fallback():
    inputs = assemble(default_config())
    assert len(inputs.weather) == 8760
    assert len(inputs.household) == 8760
    assert len(inputs.service) == 8760
    assert inputs.household.sum() == pytest.approx(3.5e8, rel=1e-9)
    assert sum(inputs.service_mix.values()) == 834


def test_assemble_seed_controls_weather():
    base = assemble(default_config())
    other = assemble(default_config().with_seed(5))
    assert base.weather.temp[100] != other.weather.temp[100]
    again = assemble(default_config())
    assert base.weather.temp[100] == again.weather.temp[100]
