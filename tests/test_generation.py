import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmix.generation import (STC_CELL_TEMP, STC_IRRADIANCE, AreaBudget,
                                 GenerationError, PvParams, SingleDiodeParams,
                                 TurbineParams, air_density, area_budget_totals,
                                 capacity_coefficients, cell_temperature,
                                 generation_mw, hub_height_speed, pv_power,
                                 pv_unit_series, wind_power, wind_unit_series)
from urbanmix.ingest import WeatherRecord
from urbanmix.scaling import ServiceMix


def record(ghi=0.0, temp=15.0, pressure=101325.0, wind=0.0, hour=0):
    return WeatherRecord(hour_index=hour, ghi=ghi, temp=temp,
                         pressure=pressure, wind_speed_10m=wind)


def test_air_density_standard_conditions():
    rho = air_density(15.0, 101325.0)
    assert rho == pytest.approx(1.225, abs=0.002)


def test_air_density_rejects_unphysical_temperature():
    with pytest.raises(GenerationError, match="temperature"):
        air_density(-120.0, 101325.0)


def test_hub_height_speed_power_law():
    v = hub_height_speed(6.0, TurbineParams())
    assert v == pytest.approx(6.0 * 5.0 ** 0.15, rel=1e-12)


def test_wind_power_below_cut_in():
    assert wind_power(record(wind=1.0), TurbineParams()) == 0.0


def test_wind_power_above_cut_out():
    # 24 m/s at 10 m exceeds 25 m/s at hub height after the shear correction
    assert wind_power(record(wind=24.0), TurbineParams()) == 0.0


def test_wind_power_mid_range_hand_value():
    # 1/2 * rho * A * V^3 * Cp / 1000 at V0=6, rho=1.225
    params = TurbineParams()
    # pick pressure/temp giving rho = 1.225 exactly
    rho = 1.225
    temp = 15.0
    pressure = rho * 287.05 * (temp + 273.15)
    kw = wind_power(record(wind=6.0, temp=temp, pressure=pressure), params)
    v_hub = 6.0 * 5.0 ** 0.15
    expected = 0.5 * rho * params.rotor_area_m2 * v_hub ** 3 * params.cp / 1000.0
    assert kw == pytest.approx(expected, rel=1e-12)
    assert kw == pytest.approx(218.8, abs=0.5)


def test_wind_power_clips_at_nominal():
    kw = wind_power(record(wind=10.0, temp=15.0, pressure=101325.0), TurbineParams())
    assert kw == 500.0


def test_wind_power_cut_boundaries_use_hub_speed():
    params = TurbineParams()
    shear = 5.0 ** 0.15
    just_below_cut_in = (params.cut_in_ms / shear) * 0.999
    just_above_cut_in = (params.cut_in_ms / shear) * 1.001
    assert wind_power(record(wind=just_below_cut_in), params) == 0.0
    assert wind_power(record(wind=just_above_cut_in), params) > 0.0
    just_below_cut_out = (params.cut_out_ms / shear) * 0.999
    just_above_cut_out = (params.cut_out_ms / shear) * 1.001
    assert wind_power(record(wind=just_below_cut_out), params) == 500.0
    assert wind_power(record(wind=just_above_cut_out), params) == 0.0


def test_cell_temperature_offset():
    params = PvParams()
    assert cell_temperature(20.0, 800.0, params) == pytest.approx(47.0)
    assert cell_temperature(20.0, 0.0, params) == pytest.approx(20.0)


def test_pv_power_zero_at_night():
    assert pv_power(record(ghi=0.0), PvParams()) == 0.0


def test_pv_power_linear_derate_hand_value():
    params = PvParams()
    w = pv_power(record(ghi=500.0, temp=10.0), params)
    t_cell = 10.0 + 27.0 * (500.0 / 800.0)
    expected = params.rated_power_density_wm2 * 0.5 * (1 - 0.005 * (t_cell - 25.0))
    assert w == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("model", ["linear-derate", "single-diode"])
def test_pv_power_keeps_nan_irradiance(model):
    assert math.isnan(pv_power(record(ghi=float("nan")), PvParams(model=model)))


def test_pv_power_clamped_to_rated():
    params = PvParams()
    # very cold and bright: the temperature boost would exceed the rating
    w = pv_power(record(ghi=1100.0, temp=-30.0), params)
    assert w == params.rated_power_density_wm2


def test_pv_power_never_negative():
    w = pv_power(record(ghi=100.0, temp=90.0), PvParams())
    assert w >= 0.0


def test_single_diode_model_close_to_linear_at_stc():
    diode = SingleDiodeParams()
    linear = PvParams()
    single = PvParams(model="single-diode", diode=diode)
    w_stc = pv_power(record(ghi=1000.0, temp=25.0 - 27.0 * 1000.0 / 800.0), single)
    assert w_stc > 0
    # same order of magnitude as the rated density at STC cell temperature
    assert w_stc == pytest.approx(linear.rated_power_density_wm2, rel=0.15)


def test_single_diode_monotonic_in_irradiance():
    single = PvParams(model="single-diode", diode=SingleDiodeParams())
    low = pv_power(record(ghi=200.0, temp=15.0), single)
    high = pv_power(record(ghi=800.0, temp=15.0), single)
    assert 0 < low < high


def diode_operating_point(ghi, temp, params, diode):
    """(photocurrent A, open-circuit V, module thermal voltage V) for one hour."""
    t_cell = cell_temperature(temp, ghi, params) + 273.15
    vt_module = diode.n_cells * diode.ideality * 1.380649e-23 * t_cell / 1.602176634e-19
    t_delta = (t_cell - 273.15) - STC_CELL_TEMP
    i_ph = diode.isc_a * (ghi / STC_IRRADIANCE) * (1.0 + diode.isc_temp_coeff / diode.isc_a * t_delta)
    voc = diode.voc_v + diode.voc_temp_coeff * t_delta
    return i_ph, voc, vt_module


def reference_mpp(ghi, temp, params, diode):
    """One hour's maximum-power-point watts, solved on its own: the oracle."""
    i_ph, voc, vt_module = diode_operating_point(ghi, temp, params, diode)
    if i_ph <= 0 or voc <= 0:
        return 0.0
    i_sat = i_ph / math.expm1(voc / vt_module)
    rs = diode.rs_ohm * diode.n_cells
    v_grid = np.linspace(0.0, voc, 200)
    i = np.full_like(v_grid, i_ph)
    for _ in range(40):
        arg = np.clip((v_grid + i * rs) / vt_module, None, 80.0)
        i_new = i_ph - i_sat * np.expm1(arg)
        i = 0.7 * i + 0.3 * i_new
    i = np.clip(i, 0.0, None)
    return float(np.max(v_grid * i))


def test_single_diode_year_matches_per_hour_oracle(weather2014, calendar2014):
    params = PvParams(model="single-diode")
    series = pv_unit_series(weather2014, calendar2014.year, params).values
    ghi, temp = weather2014.ghi, weather2014.temp
    day = np.flatnonzero(ghi > 0).tolist()
    hours = sorted(set(day[::10]) | {day[0], day[-1]})
    expected = np.array([reference_mpp(ghi[h], temp[h], params, SingleDiodeParams())
                         for h in hours]) / params.panel_area_m2
    assert np.array_equal(series[hours], expected)
    assert pv_power(record(ghi=ghi[day[0]], temp=temp[day[0]]), params) == series[day[0]]
    night = np.ones(len(series), dtype=bool)
    night[day] = False
    assert not series[night].any()
    # the year's sum, pinned to the last bit
    assert float(series.sum()) == 109162.18999894528


def test_wind_year_matches_per_hour_power(weather2014, wind_unit):
    hours = zip(weather2014.temp.tolist(), weather2014.pressure.tolist(),
                weather2014.wind_speed_10m.tolist())
    expected = [wind_power(record(temp=t, pressure=p, wind=v)) for t, p, v in hours]
    assert np.array_equal(wind_unit.values, expected)
    assert wind_unit.values.any()


def test_linear_year_sum_pinned(pv_unit):
    assert float(pv_unit.values.sum()) == 104019.80827083281


@pytest.mark.parametrize("kwargs", [
    {"isc_a": 0.0}, {"isc_a": float("nan")}, {"voc_v": 0.0}, {"voc_v": -21.1},
    {"n_cells": 0}, {"n_cells": 36.0}, {"n_cells": True},
    {"ideality": 0.0}, {"ideality": -1.2}, {"rs_ohm": -0.008},
    {"voc_temp_coeff": "x"}, {"isc_temp_coeff": float("inf")},
])
def test_single_diode_params_validated(kwargs):
    with pytest.raises(GenerationError, match=next(iter(kwargs))):
        SingleDiodeParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"noct_offset_c": "x"}, {"rated_power_density_wm2": float("nan")},
    {"panel_area_m2": True}, {"temp_coefficient": float("-inf")},
])
def test_pv_params_numbers_validated(kwargs):
    with pytest.raises(GenerationError, match=next(iter(kwargs))):
        PvParams(**kwargs)


def test_pv_params_reject_non_diode_object():
    with pytest.raises(GenerationError, match="diode"):
        PvParams(model="single-diode", diode={"isc_a": 4.0})


def test_unit_series_lengths(weather2014, pv_unit, wind_unit):
    assert len(pv_unit) == 8760
    assert len(wind_unit) == 8760
    assert pv_unit.unit == "W/m2"
    assert wind_unit.unit == "kW"
    assert float(wind_unit.values.max()) <= 500.0
    assert float(pv_unit.values.min()) >= 0.0


def generation_at(pv_mw, wind_mw, pv_unit, wind_unit):
    area, turbines = capacity_coefficients(pv_mw, wind_mw)
    return generation_mw(area, turbines, pv_unit.values, wind_unit.values)


def test_scenario_generation_doubling_exact(pv_unit, wind_unit):
    g1 = generation_at(100.0, 50.0, pv_unit, wind_unit)
    g2 = generation_at(200.0, 100.0, pv_unit, wind_unit)
    assert np.array_equal(g1 + g1, g2)


def test_scenario_generation_zero(pv_unit, wind_unit):
    g = generation_at(0.0, 0.0, pv_unit, wind_unit)
    assert float(np.abs(g).max()) == 0.0


def test_scenario_generation_turbine_rounding(pv_unit, wind_unit):
    g_half_up = generation_at(0.0, 0.25, pv_unit, wind_unit)
    g_one = generation_at(0.0, 0.5, pv_unit, wind_unit)
    assert np.array_equal(g_half_up, g_one)
    g_down = generation_at(0.0, 0.2, pv_unit, wind_unit)
    assert float(np.abs(g_down).max()) == 0.0


def test_scenario_generation_rejects_negative(pv_unit, wind_unit):
    with pytest.raises(GenerationError):
        generation_at(-1.0, 0.0, pv_unit, wind_unit)


@pytest.mark.parametrize("pv_mw, wind_mw", [
    (math.inf, 0.0), (0.0, math.inf), (1e308, 0.0), (0.0, 1e308),
])
def test_capacity_coefficients_reject_non_finite(pv_mw, wind_mw):
    # 1e308 MW is finite, but its panel area or turbine count is not
    with pytest.raises(GenerationError, match="capacities must be finite"):
        capacity_coefficients(pv_mw, wind_mw)


def test_generation_kernel_rejects_negative_coefficients(pv_unit, wind_unit):
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(-1.0, 0.0, pv_unit.values, wind_unit.values)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(0.0, -0.5, pv_unit.values, wind_unit.values)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(np.array([10.0, -1.0]), np.array([1.0, 2.0]),
                      pv_unit.values, wind_unit.values)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(1.0, 1.0, -pv_unit.values, wind_unit.values)


def test_generation_kernel_batch_rows_match_scalar_calls(pv_unit, wind_unit):
    areas = np.array([0.0, 1.0e5, 3.7e6])
    turbines = np.array([4.0, 0.0, 2.5])
    batch = generation_mw(areas, turbines, pv_unit.values, wind_unit.values)
    assert batch.shape == (3, 8760)
    for i in range(3):
        row = generation_mw(areas[i], turbines[i], pv_unit.values, wind_unit.values)
        assert np.array_equal(batch[i], row)


def test_generation_kernel_shape_checks(pv_unit, wind_unit):
    with pytest.raises(GenerationError, match="length"):
        generation_mw(1.0, 1.0, pv_unit.values, wind_unit.values[:-1])
    with pytest.raises(GenerationError, match="equal-length"):
        generation_mw(np.ones(2), np.ones(3), pv_unit.values, wind_unit.values)


def test_area_budget_totals(service_mix, fixture_nl):
    budget = AreaBudget(service_roofs=fixture_nl.roof_areas())
    a_roof, pv_cap, wind_cap = area_budget_totals(service_mix, 100_000, budget)
    assert a_roof == pytest.approx(5_130_333.0)
    assert pv_cap == pytest.approx(3 * a_roof)
    assert wind_cap == pytest.approx(2 * a_roof)
    _, pv_roof_only, _ = area_budget_totals(service_mix, 100_000, budget,
                                            roof_only_pv=True)
    assert pv_roof_only == pytest.approx(a_roof)


def test_area_budget_missing_type(fixture_nl):
    budget = AreaBudget(service_roofs={})
    mix = ServiceMix(entries=(("hospital", 1),))
    with pytest.raises(GenerationError, match="no roof area"):
        area_budget_totals(mix, 10, budget)


def test_turbine_footprint():
    budget = AreaBudget()
    assert budget.footprint_m2_per_turbine() == pytest.approx(172_500.0)


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=-20.0, max_value=35.0),
       st.floats(min_value=90_000.0, max_value=105_000.0))
def test_wind_power_bounded(v, temp, pressure):
    kw = wind_power(record(wind=v, temp=temp, pressure=pressure), TurbineParams())
    assert 0.0 <= kw <= 500.0


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=1300.0),
       st.floats(min_value=-20.0, max_value=45.0),
       st.sampled_from(["linear-derate", "single-diode"]))
def test_pv_power_bounded(ghi, temp, model):
    params = PvParams(model=model)
    w = pv_power(record(ghi=ghi, temp=temp), params)
    if model == "linear-derate":
        assert 0.0 <= w <= params.rated_power_density_wm2
    else:
        i_ph, voc, _ = diode_operating_point(ghi, temp, params, SingleDiodeParams())
        assert 0.0 <= w * params.panel_area_m2 <= i_ph * voc
