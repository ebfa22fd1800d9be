import filecmp
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import urbanmix
from urbanmix import cli
from urbanmix.cli import main
from urbanmix.config import default_config
from urbanmix.synthdata import write_input_set


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main(["--out", str(out), *args]), out


def test_scale_outputs(tmp_path, capsys):
    code, out = run(tmp_path, "scale")
    assert code == 0
    printed = capsys.readouterr().out
    assert "4 inconsistencies flagged" in printed
    for name in ("scale_report.txt", "scale_mix_per_100k.csv",
                 "scale_reconciliation.csv", "scale_office_bands.csv"):
        assert (out / name).exists()
    mix = (out / "scale_mix_per_100k.csv").read_text().splitlines()
    assert len(mix) == 1 + 13
    counts = [int(line.split(",")[1]) for line in mix[1:]]
    assert sum(counts) == 834


def test_profiles_outputs(tmp_path):
    code, out = run(tmp_path, "profiles")
    assert code == 0
    for name in ("profiles_household.csv", "profiles_service.csv",
                 "load_residential-only.csv", "load_mixed.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 1 + 8760
    summary = json.loads((out / "profiles_summary.json").read_text())
    assert summary["phi"] > 1.0
    assert summary["household_annual_kwh"] == pytest.approx(3.5e8, rel=1e-9)


def test_generation_outputs(tmp_path):
    code, out = run(tmp_path, "generation")
    assert code == 0
    pv = (out / "generation_pv_unit.csv").read_text().splitlines()
    assert pv[0] == "hour,w_per_m2"
    wind = (out / "generation_wind_unit.csv").read_text().splitlines()
    assert wind[0] == "hour,kw"
    summary = json.loads((out / "generation_summary.json").read_text())
    assert summary["wind_peak_kw"] <= 500.0
    assert summary["pv_peak_w_per_m2"] <= 107.9


def test_sweep_outputs_and_determinism(tmp_path, capsys):
    code_a, out_a = run(tmp_path / "a", "sweep")
    code_b, out_b = run(tmp_path / "b", "sweep")
    assert code_a == code_b == 0
    assert "121" in capsys.readouterr().out
    for name in ("sweep_metrics.csv", "sweep_significance.csv", "sweep_deltas.csv"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)
    metrics = (out_a / "sweep_metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 242


def test_classify_outputs(tmp_path):
    code, out = run(tmp_path, "classify", "--pv-mw", "399", "--wind-mw", "30")
    assert code == 0
    counts = (out / "category_counts.csv").read_text().splitlines()
    assert counts[-1].endswith(",8760")
    summary = json.loads((out / "mix_summary.json").read_text())
    assert summary["pv_mw"] == 399.0
    assert summary["turbines"] == 60


def test_classify_counts_every_hour_of_a_leap_year(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"year": 2016}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "classify"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == ("classified 8784 hours at mix (399.0 MW PV, 30.0 MW wind) "
                          "into 150 categories")
    counts = (out / "category_counts.csv").read_text().splitlines()
    assert counts[-1].startswith("all,all,all,")
    assert counts[-1].endswith(",8784")


def test_optimize_outputs(tmp_path):
    code, out = run(tmp_path, "optimize")
    assert code == 0
    report = json.loads((out / "optimize_report.json").read_text())
    assert report["seed"] == 0
    assert report["constraint_slacks_m2"]["total_area"] >= -1.0


def test_validate_passes_on_fixture(tmp_path, capsys):
    code, out = run(tmp_path, "validate")
    assert code == 0
    text = (out / "validate_report.txt").read_text()
    assert "FAIL" not in text
    assert "SKIP" in text
    assert "fixture-only" in text
    assert capsys.readouterr().out.count("PASS") >= 4


def test_flags_accepted_before_and_after_subcommand(tmp_path):
    out_pre = tmp_path / "pre"
    out_post = tmp_path / "post"
    assert main(["--out", str(out_pre), "scale"]) == 0
    assert main(["scale", "--out", str(out_post)]) == 0
    assert filecmp.cmp(out_pre / "scale_report.txt",
                       out_post / "scale_report.txt", shallow=False)


def test_seed_changes_synthetic_weather(tmp_path):
    _, out_a = run(tmp_path / "a", "generation")
    code, out_b = main(["--out", str(tmp_path / "b" / "out"), "--seed", "7",
                        "generation"]), tmp_path / "b" / "out"
    assert code == 0
    assert not filecmp.cmp(out_a / "generation_pv_unit.csv",
                           out_b / "generation_pv_unit.csv", shallow=False)


def test_unknown_subcommand_is_usage_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "out"), "frobnicate"]) == 1
    assert main([]) == 1


def test_missing_config_file_exits_1(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "scale"]) == 1


def test_unknown_config_key_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"year": 2014, "frobs": 3}))
    assert main(["--config", str(bad), "--out", str(tmp_path / "out"), "scale"]) == 1


def test_bad_weather_data_exits_2(tmp_path):
    weather = tmp_path / "weather.csv"
    lines = ["hour,ghi_wm2,temp_c,pressure_pa,wind_ms"]
    lines += [f"{i},-5.0,10.0,101325.0,4.0" for i in range(8760)]
    weather.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"year": 2014, "weather": "weather.csv"}))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "generation"])
    assert code == 2


def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"year": 2014, "seed": 3,
                               "mix_preset": {"pv_mw": 100.0, "wind_mw": 10.0}}))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "classify"])
    assert code == 0
    summary = json.loads((out / "mix_summary.json").read_text())
    assert summary["pv_mw"] == 100.0
    assert summary["turbines"] == 20


def test_parallel_flag_output_matches_serial(tmp_path):
    # --parallel is still accepted; scenario evaluation is serial either way
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["--out", str(serial), "--parallel", "1", "sweep"]) == 0
    assert main(["--out", str(parallel), "--parallel", "4", "sweep"]) == 0
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert filecmp.cmp(serial / name, parallel / name, shallow=False), name


@pytest.mark.parametrize("raw", [
    {"sweep": {"max_mw": -5, "steps": 2}},
    {"sweep": {"max_mw": 0}},
    {"mix_preset": {"pv_mw": -1.0}},
    {"mix_preset": {"wind_mw": -0.2}},
])
def test_bad_capacities_exit_1(tmp_path, capsys, raw):
    assert_config_error(tmp_path, capsys, raw)


@pytest.mark.parametrize("raw, command, where", [
    ({"sweep": {"max_mw": 1e308, "steps": 2}}, ["sweep"], "inf turbines"),
    ({}, ["classify", "--wind-mw", "inf"], "inf turbines"),
    # NaN is no negative number: it is reported as not finite
    ({}, ["classify", "--pv-mw", "nan"], "got (nan, 30.0) MW: nan m² of panel"),
])
def test_non_finite_capacity_exits_2(tmp_path, capsys, raw, command, where):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: capacities must be finite")
    assert where in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "sweep_metrics.csv").exists()
    assert not (out / "mix_summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("raw, command", [
    ({"sweep": {"max_mw": 1e307, "steps": 2}}, ["sweep"]),
    ({}, ["classify", "--wind-mw", "1e307"]),
])
def test_overflowing_generation_exits_2(tmp_path, capsys, raw, command):
    # 2e307 turbines is a finite count, but their MW overflow
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("validation error: generation is not finite for "
                            "0.0 m² of panel and 2e+307 turbines\n")
    assert not (out / "sweep_metrics.csv").exists()
    assert not (out / "mix_summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("raw, command, where", [
    ({"sweep": {"max_mw": 1e300, "steps": 2}}, ["sweep"], "0.0 MW PV and 1e+300 MW wind"),
    ({}, ["classify", "--pv-mw", "1e300"], "1e+300 MW PV and 30.0 MW wind"),
])
def test_overflowing_variance_exits_2(tmp_path, capsys, raw, command, where):
    # the generation is finite, but the squares of its deviations are not
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *command]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("validation error: sample variance overflows the double "
                            f"range at {where}\n")
    assert not (out / "sweep_metrics.csv").exists()
    assert not (out / "mix_summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["profiles", "validate"])
def test_overflowing_demand_exits_2(tmp_path, capsys, command):
    # each number is finite, but households × kWh per household is not
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"household_annual_kwh": 1e308}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert capsys.readouterr().err == "validation error: mixed load must be finite\n"
    assert not any(out.iterdir())


_CELL_NOT_FINITE = ("PV cell temperature and linear-derate output at hour ",
                    " must be finite, got ")
_OUTPUT_NOT_FINITE = ("PV output at hour ", " is not finite, got ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pv, message", [
    *(pytest.param({**pv, "model": model}, _CELL_NOT_FINITE, id=f"pv{i}-{model}")
      for i, pv in enumerate([
          # the cell temperature overflows, and 0 · inf is not a number
          {"noct_offset_c": 1.7e308, "temp_coefficient": 0},
          {"noct_offset_c": 1.7e308},
          # a finite cell temperature whose linear derate overflows
          {"noct_offset_c": 1e300, "temp_coefficient": -1e10},
      ])
      for model in ("linear-derate", "single-diode")),
    # a finite cell temperature and linear derate, but a diode current or
    # power that overflows
    *(pytest.param({"model": "single-diode", "diode": diode}, _OUTPUT_NOT_FINITE,
                   id=f"diode-{key}-{value!r}")
      for diode in ({"isc_a": 1e308}, {"isc_a": 1e-320}, {"rs_ohm": 1e308},
                    {"isc_temp_coeff": 1e308})
      for key, value in diode.items()),
])
def test_non_finite_pv_output_exits_2(tmp_path, capsys, pv, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pv": pv}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 2
    err = capsys.readouterr().err
    start, middle = message
    assert err.startswith("validation error: " + start)
    assert middle in err and err.count("\n") == 1
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("raw, message", [
    # every hour is finite, but the year's sum overflows
    ({"pv": {"rated_power_density_wm2": 1e308}},
     "PV output per m² summed over the year must be finite, got inf"),
    ({"pv": {"model": "single-diode", "panel_area_m2": 1e-306}},
     "PV output per m² summed over the year must be finite, got inf"),
    ({"turbine": {"rotor_area_m2": 1e308, "nominal_power_kw": 1e308}},
     "wind output per turbine summed over the year must be finite, got inf"),
])
def test_non_finite_year_sum_exits_2(tmp_path, capsys, raw, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, raw, message", [
    # the GA's widest blend interval, then its mutation scale, leaves the double range
    ("optimize", {"ga": {"blend_alpha": 1e308}},
     "blend_alpha must keep the search's steps over the 15390999.0 m² range finite, "
     "got 1e+308"),
    ("optimize", {"ga": {"mutation_sigma_frac": 1e308}},
     "mutation_sigma_frac must keep the search's steps over the 15390999.0 m² range finite, "
     "got 1e+308"),
    # the module's thermal voltage overflows, then rounds to zero
    ("generation", {"pv": {"model": "single-diode", "diode": {"ideality": 1e308}}},
     "single-diode thermal voltage must be positive and finite, got inf V "
     "(n_cells=36, ideality=1e+308)"),
    ("generation", {"pv": {"model": "single-diode", "diode": {"ideality": 5e-324}}},
     "single-diode thermal voltage must be positive and finite, got 0.0 V "
     "(n_cells=36, ideality=5e-324)"),
    # a subnormal footprint puts infinitely many turbines on the wind area
    ("optimize", {"area": {"turbine_footprint_km2_per_mw": 5e-324}},
     "turbine_footprint_m2 must leave the turbine count of the 10260666.0 m² wind area "
     "finite, got 2.47033e-318 m²"),
])
def test_extreme_setting_exits_2_with_one_line(tmp_path, capsys, command, raw, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(out.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["linear-derate", "single-diode"])
def test_pv_cell_below_absolute_zero_exits_2(tmp_path, capsys, model):
    # a NOCT offset of -300 °C puts a bright hour's cell below 0 K
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pv": {"model": model, "noct_offset_c": -300}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: PV cell temperature at hour ")
    assert " is at or below absolute zero, got " in err and err.count("\n") == 1
    assert not any(out.iterdir())


def assert_config_error(tmp_path, capsys, raw):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    command = "sweep" if "sweep" in raw else "classify"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "sweep_metrics.csv").exists()
    assert not (out / "mix_summary.json").exists()


@pytest.mark.parametrize("raw", [
    {"sweep": {"stepz": 3}},
    {"sweep": {"max_mw": "big"}},
    {"sweep": {"steps": 2.7}},
    {"sweep": {"max_mw": float("inf")}},
    {"sweep": [3]},
    {"mix_preset": {"pv_mw": "a"}},
    {"mix_preset": {"pv": 1.0}},
    {"stats": {"alpha": "x"}},
    {"stats": {"alpha": 7}},
    {"stats": {"alpha": 0}},
    {"stats": {"alhpa": 0.1}},
    {"pv": {"noct_offset_c": "x"}},
    {"pv": {"panel_area_m2": True}},
    {"weights": ["x", 1, 1]},
    {"weights": [float("inf"), 1, 1]},
    {"benchmarks": [{"name": "X", "twh": "x"}]},
    {"benchmarks": [{"name": 3, "twh": 30.0}]},
    {"sign_convention": "bogus"},
    {"area": 5},
    {"area": "x"},
    {"area": []},
    {"turbine": {"rotor_area_m2": float("inf")}},
    {"turbine": {"shear_exponent": float("nan")}},
    {"area": {"phi_area": float("nan")}},
    {"turbine": {"hub_height_m": "x"}},
    {"area": {"service_roofs": {"office": -1.0}}},
    {"year": 10000},
    {"weights": [-1, 1, 1]},
    {"weights": [1, 0, -5]},
    {"weights": [1, 1, 5]},
    {"area": {"phi_area": 0.5}},
    {"area": {"service_roofs": {"office": 10}}},
    {"turbine": {"hub_height_m": 1e308, "shear_exponent": 2}},
    {"area": {"service_roofs": {**default_config().scaling_fixture.roof_areas(),
                                "bogus-type": 5}}},
])
def test_bad_config_sections_exit_1(tmp_path, capsys, raw):
    assert_config_error(tmp_path, capsys, raw)


@pytest.mark.parametrize("command", ["profiles", "optimize"])
def test_service_roofs_missing_a_building_type_exits_1(tmp_path, capsys, command):
    # a non-empty map gives every building type of the scaling fixture
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"area": {"service_roofs": {"office": 10}}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert capsys.readouterr().err == "error: config: area.service_roofs.hospital is missing\n"
    assert not out.exists() or not any(out.iterdir())


def rename(raw, old, new):
    """``raw`` with its key ``old`` renamed ``new``, in place."""
    raw[new] = raw.pop(old)


def every_band(raw, **change):
    """``raw``, a scaling file, with ``change`` made to each office band, in place."""
    for band in raw["office_bands"]["bands"]:
        band.update(change)


@pytest.mark.parametrize("key, fixture, change, message", [
    ("calendar", "calendar_nl2014.json",
     lambda raw: raw.update(base_utc_offset_hours=float("nan")),
     "base_utc_offset_hours must be a finite number, got nan"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(roof_area_m2=float("nan")),
     "buildings[0].roof_area_m2 must be a finite number, got nan"),
    # numbers are checked as given, not coerced first
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(year="2014"),
     "year must be an integer, got '2014'"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(year=2014.9),
     "year must be an integer, got 2014.9"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(base_utc_offset_hours=True),
     "base_utc_offset_hours must be a finite number, got True"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(base_utc_offset_hours="1"),
     "base_utc_offset_hours must be a finite number, got '1'"),
    ("calendar", "calendar_nl2014.json",
     lambda raw: raw["dst_transitions"][0].update(offset_hours="2"),
     "dst_transitions[0].offset_hours must be a finite number, got '2'"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(roof_area_m2="4484"),
     "buildings[0].roof_area_m2 must be a finite number, got '4484'"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(roof_area_m2=True),
     "buildings[0].roof_area_m2 must be a finite number, got True"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(published_national="263"),
     "buildings[0].published_national must be an integer, got '263'"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0]["local"].update(count="134"),
     "buildings[0].local.count must be a finite number, got '134'"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].update(published_count=326.0),
     "office_bands.bands[0].published_count must be an integer, got 326.0"),
    # the rule of the per-100k mix's counts, checked where the file is read
    ("scaling", "scaling_nl2014.json", lambda raw: raw.update(households_per_100k=0),
     "households_per_100k must be > 0, got 0.0"),
    ("scaling", "scaling_nl2014.json", lambda raw: raw.update(households_per_100k=-75.9),
     "households_per_100k must be > 0, got -75.9"),
    # unknown keys and wrong shapes, named by their key path
    ("calendar", "calendar_nl2014.json", lambda raw: rename(raw, "holidays", "holiday"),
     "unknown keys ['holiday']"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: rename(raw, "households_per_100k", "household_per_100k"),
     "unknown keys ['household_per_100k']"),
    ("scaling", "scaling_nl2014.json", lambda raw: rename(raw["buildings"][1], "notes", "note"),
     "unknown keys ['buildings[1].note']"),
    ("scaling", "scaling_nl2014.json", lambda raw: [], "the file must hold a JSON object"),
    ("scaling", "scaling_nl2014.json", lambda raw: raw["buildings"][0].update(local=[1]),
     "buildings[0].local must map names to numbers, got [1]"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].pop("share_pct"),
     "office_bands.bands[0].share_pct is missing"),
    ("scaling", "scaling_nl2014.json", lambda raw: raw["buildings"].__setitem__(0, "hospital"),
     "buildings[0] must be an object"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.pop("year"), "year is missing"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(holidays=5),
     "holidays must be a list, got 5"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(holidays="2014-01-01"),
     "holidays must be a list, got '2014-01-01'"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw["holidays"].__setitem__(0, 20140101),
     "holidays[0] must be an ISO date, got 20140101"),
    # offsets a clock can have, so no local hour overflows or moves by days
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(base_utc_offset_hours=1e300),
     "base_utc_offset_hours must be in [-14, 14], got 1e+300"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(base_utc_offset_hours=1000),
     "base_utc_offset_hours must be in [-14, 14], got 1000.0"),
    ("calendar", "calendar_nl2014.json",
     lambda raw: raw["dst_transitions"][0].update(offset_hours=1e20),
     "dst_transitions[0].offset_hours must be in [-14, 14], got 1e+20"),
    # dates are parsed where the file is read, and named by their key path
    ("calendar", "calendar_nl2014.json", lambda raw: raw["holidays"].append("2014-13-01"),
     "holidays[11] must be an ISO date, got '2014-13-01'"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw["dst_transitions"][0].update(at_utc="x"),
     "dst_transitions[0].at_utc must be an ISO date and time, got 'x'"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw["dst_transitions"][1].update(at_utc=5),
     "dst_transitions[1].at_utc must be an ISO date and time, got 5"),
    ("calendar", "calendar_nl2014.json", lambda raw: raw.update(dst_transitions=[5]),
     "dst_transitions[0] must be an object"),
    ("calendar", "calendar_nl2014.json",
     lambda raw: raw["dst_transitions"][0].update(offset_hours=15),
     "dst_transitions[0].offset_hours must be in [-14, 14], got 15.0"),
    ("calendar", "calendar_nl2014.json",
     lambda raw: raw["dst_transitions"][0].update(at_utc="0001-01-01T00:00+02:00"),
     "dst_transitions[0].at_utc 0001-01-01T00:00:00+02:00 falls outside years 1-9999 in UTC"),
    # every office band rule holds when the file is read, not only when `scale` runs
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].update(share_pct=-5),
     "office_bands.bands[0].share_pct must be >= 0, got -5.0"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][4].update(share_pct=22),
     "office_bands.bands share_pct must sum to 100 ± 0.1, got 90.0"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].update(published_area_m2="abc"),
     "office_bands.bands[0].published_area_m2 must be a finite number, got 'abc'"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].update(published_area_m2=-1),
     "office_bands.bands[0].published_area_m2 must be >= 0, got -1.0"),
    ("scaling", "scaling_nl2014.json", lambda raw: raw["office_bands"]["bands"][4].pop("avg_m2"),
     "office_bands.bands[4].avg_m2 is missing: an open-ended band (max_m2 null) needs its "
     "average area"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"].update(total_used_area_m2=-5),
     "office_bands.total_used_area_m2 must be > 0, got -5.0"),
    # floor areas and published figures, which `scale` would divide by or write out
    ("scaling", "scaling_nl2014.json", lambda raw: every_band(raw, avg_m2=0),
     "office_bands.bands[0].avg_m2 must be > 0, got 0.0"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][0].update(min_m2=-1e6),
     "office_bands.bands[0].min_m2 must be >= 0, got -1000000.0"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][3].update(max_m2=1000),
     "office_bands.bands[3].max_m2 must be > min_m2, got 1000.0 <= 5000.0"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["office_bands"]["bands"][2].update(published_count=-1),
     "office_bands.bands[2].published_count must be >= 0, got -1"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(published_national=-5),
     "buildings[0].published_national must be >= 0, got -5"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][1].update(published_per_100k=-1),
     "buildings[1].published_per_100k must be >= 0, got -1"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][1].update(alt_published_per_100k=-2),
     "buildings[1].alt_published_per_100k must be >= 0, got -2"),
    # inputs within their ranges whose counts, rounded to integers, would overflow
    ("scaling", "scaling_nl2014.json",
     lambda raw: raw["buildings"][0].update(local={"count": 1e308, "quantity": 1e308},
                                            reference={"quantity": 1e-300}),
     "building type 'hospital': its count-ratio national equivalents must be finite, got inf"),
    ("scaling", "scaling_nl2014.json", lambda raw: raw.update(households_per_100k=1e-310),
     "households_per_100k 1e-310 scales the national count 263 of building type 'hospital' "
     "past the float range"),
    ("scaling", "scaling_nl2014.json",
     lambda raw: (every_band(raw, avg_m2=1e-300),
                  raw["office_bands"].update(total_used_area_m2=1e300)),
     "office_bands.total_used_area_m2 1e+300 over the share-weighted average area 1e-300 "
     "gives no finite office count"),
])
def test_non_finite_number_in_a_fixture_file_exits_1(tmp_path, capsys, key, fixture, change,
                                                       message):
    # the calendar and scaling files are read by the config's row reader; a
    # change that returns a value replaces the whole file with it
    raw = json.loads((Path(urbanmix.__file__).parent / "data" / fixture).read_text())
    changed = change(raw)
    if isinstance(changed, list):
        raw = changed
    (tmp_path / fixture).write_text(json.dumps(raw))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: fixture}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "profiles"]) == 1
    assert capsys.readouterr().err == (f"error: cannot read {key} file {tmp_path / fixture}: "
                                       f"{message}\n")


def key_paths(value, path=""):
    """(key path, the object that holds the key, the key) of every key in
    ``value``, a parsed JSON file; a breakdown's entries are names, not keys."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from key_paths(item, f"{path}[{i}]")
    elif isinstance(value, dict) and not path.endswith(".breakdown"):
        for key, item in value.items():
            child = f"{path}.{key}" if path else key
            yield child, value, key
            yield from key_paths(item, child)


@pytest.mark.parametrize("key, fixture", [("calendar", "calendar_nl2014.json"),
                                          ("scaling", "scaling_nl2014.json")])
def test_renaming_any_key_of_a_shipped_file_exits_1(tmp_path, capsys, key, fixture):
    # a key that no row reads is rejected, so no key can be dropped silently
    text = (Path(urbanmix.__file__).parent / "data" / fixture).read_text()
    paths = [path for path, _, _ in key_paths(json.loads(text))]
    assert len(paths) > (20 if key == "scaling" else 5)
    for path in paths:
        raw = json.loads(text)
        _, holder, name = next(entry for entry in key_paths(raw) if entry[0] == path)
        rename(holder, name, "misspelt")
        renamed = path[:len(path) - len(name)] + "misspelt"
        (tmp_path / fixture).write_text(json.dumps(raw))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({key: fixture}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "scale"]) == 1, path
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {key} file {tmp_path / fixture}: "), path
        assert err.count("\n") == 1 and renamed in err, (path, err)


def optimize_outputs(tmp_path, name, raw):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_integer_in_a_float_field_writes_the_same_report(tmp_path):
    ga = {"max_generations": 2}
    whole = optimize_outputs(tmp_path, "whole", {"ga": {**ga, "blend_alpha": 1}})
    assert whole == optimize_outputs(tmp_path, "float", {"ga": {**ga, "blend_alpha": 1.0}})
    assert b'"blend_alpha": 1.0,' in whole["optimize_report.json"]


def test_absent_and_empty_service_roofs_mean_the_fixtures(tmp_path):
    ga = {"max_generations": 2}
    absent = optimize_outputs(tmp_path, "absent", {"ga": ga})
    roofs = default_config().scaling_fixture.roof_areas()
    for name, given in (("empty", {}), ("fixture", roofs)):
        raw = {"ga": ga, "area": {"service_roofs": given}}
        assert optimize_outputs(tmp_path, name, raw) == absent, name


@pytest.fixture(scope="module")
def input_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    write_input_set(root, default_config().calendar, seed=0)
    return root


def reader(name):
    """The command that reads input file ``name``, and the summary it writes last."""
    if name == "weather.csv":
        return "generation", "generation_summary.json"
    return "profiles", "profiles_summary.json"


def run_on_inputs(inputs, out, command):
    return main(["--config", str(inputs / "config.json"), "--out", str(out), command])


@pytest.mark.parametrize("command, unused", [
    ("profiles", ("weather.csv",)),
    ("generation", ("household.csv", "profiles")),
])
def test_command_runs_without_the_inputs_it_does_not_read(tmp_path, input_set, command,
                                                          unused):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    for name in unused:
        if (inputs / name).is_dir():
            shutil.rmtree(inputs / name)
        else:
            (inputs / name).unlink()
    assert run_on_inputs(input_set, tmp_path / "full", command) == 0
    assert run_on_inputs(inputs, tmp_path / "part", command) == 0
    written = sorted(path.name for path in (tmp_path / "full").iterdir())
    assert written and written == sorted(path.name for path in (tmp_path / "part").iterdir())
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "full", tmp_path / "part", written,
                                           shallow=False)
    assert mismatch == errors == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, column, cell", [
    ("weather.csv", "ghi_wm2", "nan"),
    ("household.csv", "weight", "inf"),
    ("profiles/hospital.csv", "kw", "-inf"),
])
def test_non_finite_input_cell_exits_2(tmp_path, capsys, input_set, name, column, cell):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    target = inputs / name
    lines = target.read_text().splitlines()
    cells = lines[1 + 17].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[1 + 17] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    command, summary = reader(name)
    assert run_on_inputs(inputs, tmp_path / "out", command) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {target}: non-finite {column} at hour 17\n"
    assert not (tmp_path / "out" / summary).exists()


@pytest.mark.parametrize("name, column", [
    ("weather.csv", "ghi_wm2"),
    ("household.csv", "weight"),
    ("profiles/hospital.csv", "kw"),
])
def test_input_cell_below_range_exits_2(tmp_path, capsys, input_set, name, column):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    target = inputs / name
    lines = target.read_text().splitlines()
    cells = lines[1 + 17].split(",")
    cells[lines[0].split(",").index(column)] = "-1.0"
    lines[1 + 17] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    command, summary = reader(name)
    assert run_on_inputs(inputs, tmp_path / "out", command) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {target} row 19: {column} must be >= 0, got -1.0\n"
    assert not (tmp_path / "out" / summary).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, row, cell", [
    ("weather.csv", "17,abc,10.0,101325.0,4.0", "abc"),
    ("household.csv", "17,1_000", "1_000"),
    ("profiles/hospital.csv", "17,", ""),
    ("household.csv", "17,\udcff", "\udcff"),  # the byte 0xff, which is not UTF-8
])
def test_non_numeric_input_cell_exits_2(tmp_path, capsys, input_set, name, row, cell):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    target = inputs / name
    lines = target.read_text().splitlines()
    lines[1 + 17] = row
    target.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    command, summary = reader(name)
    assert run_on_inputs(inputs, tmp_path / "out", command) == 2
    column = lines[0].split(",")[1]
    fault = ("byte 0xff is not UTF-8 text" if cell == "\udcff"
             else f"non-numeric value {cell!r} in column {column}")
    assert capsys.readouterr().err == f"validation error: {target} row 19: {fault}\n"
    assert not (tmp_path / "out" / summary).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["weather.csv", "household.csv", "profiles/hospital.csv"])
@pytest.mark.parametrize("fault, message", [
    (b"", "{target}: empty file"),
    (b"\xff", "{target} row 1: byte 0xff is not UTF-8 text"),  # in the header
    (None, "{target} row 8762: byte 0xff is not UTF-8 text"),  # 0xff after the last row
])
def test_empty_or_undecodable_input_file_exits_2(tmp_path, capsys, input_set, name, fault,
                                                  message):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    target = inputs / name
    if fault is None:
        with target.open("ab") as handle:
            handle.write(b"\xff")
    else:
        target.write_bytes(fault)
    command, summary = reader(name)
    assert run_on_inputs(inputs, tmp_path / "out", command) == 2
    assert capsys.readouterr().err == f"validation error: {message.format(target=target)}\n"
    assert not (tmp_path / "out" / summary).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, kind", [
    ("weather.csv", "weather"),
    ("household.csv", "profile"),
    ("profiles/hospital.csv", "profile"),
])
def test_missing_input_file_exits_2(tmp_path, capsys, input_set, name, kind):
    inputs = tmp_path / "inputs"
    shutil.copytree(input_set, inputs)
    target = inputs / name
    target.unlink()
    command, summary = reader(name)
    assert run_on_inputs(inputs, tmp_path / "out", command) == 2
    assert capsys.readouterr().err == f"validation error: {kind} file not found: {target}\n"
    assert not (tmp_path / "out" / summary).exists()


def test_unexpected_value_error_is_not_a_validation_error(tmp_path, capsys, monkeypatch):
    def broken(args, config):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(cli._HANDLERS, "scale", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["--out", str(tmp_path / "out"), "scale"])
    assert "validation error" not in capsys.readouterr().err


def test_no_command_imports_scipy(tmp_path):
    script = textwrap.dedent("""
        import sys
        from urbanmix.cli import main
        for command in ("scale", "profiles", "generation", "sweep", "classify",
                        "optimize", "validate"):
            assert main(["--out", sys.argv[1], command]) == 0, command
            assert "scipy" not in sys.modules, command
    """)
    src = str(Path(urbanmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def single_diode_generation(tmp_path, name, pv):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"pv": pv}))
    out = tmp_path / name
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 0
    return out


def test_single_diode_generation_is_deterministic(tmp_path):
    first = single_diode_generation(tmp_path, "first", {"model": "single-diode"})
    second = single_diode_generation(tmp_path, "second", {"model": "single-diode"})
    rows = (first / "generation_pv_unit.csv").read_text().splitlines()[1:]
    values = np.array([float(row.split(",")[1]) for row in rows])
    assert len(values) == 8760
    assert np.isfinite(values).all() and values.min() >= 0.0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name


def test_pv_diode_object_configures_generation(tmp_path):
    def peak(out):
        return json.loads((out / "generation_summary.json").read_text())["pv_peak_w_per_m2"]

    default = single_diode_generation(tmp_path, "default", {"model": "single-diode"})
    stronger = single_diode_generation(tmp_path, "stronger",
                                       {"model": "single-diode", "diode": {"isc_a": 4.0}})
    assert peak(stronger) > peak(default)


@pytest.mark.parametrize("diode", [{"isc": 4.0}, 4.0, {"n_cells": 0},
                                   {"voc_temp_coeff": "x"}])
def test_bad_pv_diode_exits_1(tmp_path, capsys, diode):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pv": {"model": "single-diode", "diode": diode}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "pv.diode" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "generation_pv_unit.csv").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_diode_exponent_exits_2(tmp_path, capsys):
    # 60 V over one cell puts voc/vt near 2,000, where exp leaves the double range
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"pv": {"model": "single-diode",
                                      "diode": {"voc_v": 60.0, "n_cells": 1}}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "generation"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: single-diode voc/vt reaches ")
    assert "(voc_v=60.0, n_cells=1); exp overflows above 709.78" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "generation_pv_unit.csv").exists()


@pytest.mark.parametrize("command", ["scale", "profiles", "generation", "sweep", "classify",
                                     "optimize", "validate"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_negative_seed_exits_1(tmp_path, capsys, command, form):
    # numpy's generators take no negative seed; every command rejects it up front
    out = tmp_path / "out"
    if form == "flag":
        argv = ["--seed", "-1"]
        expected = "error: seed must be >= 0, got -1\n"
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": -3}))
        argv = ["--config", str(cfg)]
        expected = "error: config: seed must be >= 0, got -3\n"
    assert main([*argv, "--out", str(out), command]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("ga, message", [
    ({"population": 4.5}, "population must be an integer, got 4.5"),
    ({"elite": True}, "elite must be an integer, got True"),
    ({"max_generations": "9"}, "max_generations must be an integer, got '9'"),
    ({"tournament_k": 2.0}, "tournament_k must be an integer, got 2.0"),
    ({"blend_alpha": float("nan")}, "blend_alpha must be a finite number, got nan"),
    ({"mutation_sigma_frac": float("inf")},
     "mutation_sigma_frac must be a finite number, got inf"),
    ({"stall_rel_tol": False}, "stall_rel_tol must be a finite number, got False"),
    ({"mutation_rate": 7}, "mutation_rate must be in [0, 1], got 7.0"),
    ({"mutation_rate": -0.1}, "mutation_rate must be in [0, 1], got -0.1"),
    ({"blend_alpha": -0.5}, "blend_alpha must be >= 0, got -0.5"),
    ({"mutation_sigma_frac": -1e-9}, "mutation_sigma_frac must be >= 0, got -1e-09"),
    ({"stall_rel_tol": -1.0}, "stall_rel_tol must be >= 0, got -1.0"),
    ({"stall_generations": -1}, "stall_generations must be >= 1, got -1"),
    ({"stall_generations": 0}, "stall_generations must be >= 1, got 0"),
    ({"max_generations": -2}, "max_generations must be >= 0, got -2"),
    ({"population": 3}, "population must be >= 4, got 3"),
    ({"tournament_k": 51}, "tournament_k must be <= population, got 51 > 50"),
    ({"population": 4, "elite": 4}, "elite must be < population, got 4 >= 4"),
])
def test_bad_ga_options_exit_1(tmp_path, capsys, ga, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ga": ga}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 1
    assert capsys.readouterr().err == f"error: config: ga.{message}\n"
    assert not (out / "optimize_report.json").exists()


@pytest.mark.parametrize("command", ["scale", "profiles", "generation", "sweep", "classify",
                                     "optimize", "validate"])
def test_phi_area_below_1_exits_1(tmp_path, capsys, command):
    # wind may use (phi_area - 1) times the roof area, so phi_area < 1 is no budget
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"area": {"phi_area": 0.5}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 1
    assert capsys.readouterr().err == "error: config: area.phi_area must be >= 1, got 0.5\n"
    assert not out.exists() or not any(out.iterdir())


def test_unknown_ga_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"ga": {"populaton": 50}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 1
    assert capsys.readouterr().err == "error: config: unknown keys ['ga.populaton']\n"
    assert not (out / "optimize_report.json").exists()


# The urbanmix modules each command must not load: what it does not run.
UNUSED_MODULES = {
    "scale": {"classify", "demand", "experiments", "metrics", "optimize", "stats",
              "synthdata"},
    "profiles": {"classify", "experiments", "metrics", "optimize", "stats", "validation"},
    "generation": {"classify", "demand", "experiments", "metrics", "optimize", "stats",
                   "validation"},
    "sweep": {"classify", "optimize", "validation"},
    "classify": {"optimize", "validation"},
    "optimize": {"classify", "validation"},
    "validate": {"classify", "optimize"},
}


def test_each_command_loads_only_what_it_runs(tmp_path):
    script = textwrap.dedent("""
        import json, sys
        from urbanmix.cli import main
        assert main(["--out", sys.argv[1], sys.argv[2]]) == 0
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("urbanmix"))))
    """)
    src = str(Path(urbanmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command, unused in UNUSED_MODULES.items():
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path / command),
                                 command], env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        loaded = {name.split(".")[1] for name in json.loads(result.stdout.splitlines()[-1])
                  if "." in name}
        assert not loaded & unused, (command, sorted(loaded & unused))
        assert {"cli", "config"} <= loaded


def test_import_urbanmix_loads_no_submodule():
    # the package holds no names of its own: each is imported from its module
    script = ("import sys, urbanmix; "
              "assert [m for m in sys.modules if m.startswith('urbanmix.')] == []; "
              "from urbanmix import stats; "
              "assert stats.welch_t_test.__module__ == 'urbanmix.stats'")
    src = str(Path(urbanmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    with pytest.raises(AttributeError, match="no attribute 'welch_t_test'"):
        urbanmix.welch_t_test  # noqa: B018
