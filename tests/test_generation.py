import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generation_oracle import diode_mpp_wm2, pv_hour, wind_hour, wind_kw
from urbanmix.generation import (STC_CELL_TEMP, STC_IRRADIANCE, TURBINE_UNIT_MW,
                                 AreaBudget, GenerationError, PvParams,
                                 SingleDiodeParams, TurbineParams, _single_diode_mpp,
                                 air_density, area_budget_totals,
                                 capacity_coefficients, cell_temperature,
                                 generation_mw, hub_height_speed,
                                 pv_unit_series, wind_unit_series)
from urbanmix.ingest import WeatherFrame


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
    assert wind_hour(wind=1.0) == 0.0


def test_wind_power_above_cut_out():
    # 24 m/s at 10 m exceeds 25 m/s at hub height after the shear correction
    assert wind_hour(wind=24.0) == 0.0


def test_wind_power_mid_range_hand_value():
    # 1/2 * rho * A * V^3 * Cp / 1000 at V0=6, rho=1.225
    params = TurbineParams()
    # pick pressure/temp giving rho = 1.225 exactly
    rho = 1.225
    temp = 15.0
    pressure = rho * 287.05 * (temp + 273.15)
    kw = wind_hour(wind=6.0, temp=temp, pressure=pressure, params=params)
    v_hub = 6.0 * 5.0 ** 0.15
    expected = 0.5 * rho * params.rotor_area_m2 * v_hub ** 3 * params.cp / 1000.0
    assert kw == pytest.approx(expected, rel=1e-12)
    assert kw == pytest.approx(218.8, abs=0.5)


def test_wind_power_clips_at_nominal():
    kw = wind_hour(wind=10.0, temp=15.0, pressure=101325.0)
    assert kw == 500.0


def test_wind_power_cut_boundaries_use_hub_speed():
    params = TurbineParams()
    shear = 5.0 ** 0.15
    just_below_cut_in = (params.cut_in_ms / shear) * 0.999
    just_above_cut_in = (params.cut_in_ms / shear) * 1.001
    assert wind_hour(wind=just_below_cut_in, params=params) == 0.0
    assert wind_hour(wind=just_above_cut_in, params=params) > 0.0
    just_below_cut_out = (params.cut_out_ms / shear) * 0.999
    just_above_cut_out = (params.cut_out_ms / shear) * 1.001
    assert wind_hour(wind=just_below_cut_out, params=params) == 500.0
    assert wind_hour(wind=just_above_cut_out, params=params) == 0.0


def test_cell_temperature_offset():
    params = PvParams()
    assert cell_temperature(20.0, 800.0, params) == pytest.approx(47.0)
    assert cell_temperature(20.0, 0.0, params) == pytest.approx(20.0)


def test_pv_power_zero_at_night():
    assert pv_hour(ghi=0.0) == 0.0


def test_pv_power_linear_derate_hand_value():
    params = PvParams()
    w = pv_hour(ghi=500.0, temp=10.0, params=params)
    t_cell = 10.0 + 27.0 * (500.0 / 800.0)
    expected = params.rated_power_density_wm2 * 0.5 * (1 - 0.005 * (t_cell - 25.0))
    assert w == pytest.approx(expected, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_single_diode_kernel_keeps_nan_irradiance():
    # a series cannot hold NaN, so the hour goes through the kernel alone
    ghi = np.array([math.nan])
    t_cell = cell_temperature(np.array([15.0]), ghi, PvParams())
    assert math.isnan(_single_diode_mpp(ghi, t_cell, SingleDiodeParams())[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["linear-derate", "single-diode"])
def test_pv_nan_irradiance_rejected(model):
    # a weather file cannot hold NaN, but a WeatherFrame built in code can
    message = ("PV cell temperature and linear-derate output at hour 0 must be finite, "
               "got nan °C and nan W/m²")
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        pv_hour(ghi=math.nan, params=PvParams(model=model))


@pytest.mark.parametrize("model", ["linear-derate", "single-diode"])
def test_pv_cell_at_or_below_absolute_zero_rejected(model):
    # -300 °C of NOCT offset puts the cell at 15 - 300 = -285 °C in an 800 W/m² hour
    params = PvParams(model=model, noct_offset_c=-300.0)
    message = "PV cell temperature at hour 0 is at or below absolute zero, got -285.0 °C"
    with pytest.raises(GenerationError, match=f"^{message}$"):
        pv_hour(ghi=800.0, temp=15.0, params=params)
    # exactly 0 K is rejected too; at night the offset does not apply
    with pytest.raises(GenerationError, match="absolute zero, got -273.15 °C"):
        pv_hour(ghi=800.0, temp=-273.15 + 300.0, params=params)
    assert pv_hour(ghi=0.0, temp=15.0, params=params) == 0.0


def test_pv_power_clamped_to_rated():
    params = PvParams()
    # very cold and bright: the temperature boost would exceed the rating
    w = pv_hour(ghi=1100.0, temp=-30.0, params=params)
    assert w == params.rated_power_density_wm2


def test_pv_power_never_negative():
    w = pv_hour(ghi=100.0, temp=90.0)
    assert w >= 0.0


def test_single_diode_model_close_to_linear_at_stc():
    diode = SingleDiodeParams()
    linear = PvParams()
    single = PvParams(model="single-diode", diode=diode)
    w_stc = pv_hour(ghi=1000.0, temp=25.0 - 27.0 * 1000.0 / 800.0, params=single)
    assert w_stc > 0
    # same order of magnitude as the rated density at STC cell temperature
    assert w_stc == pytest.approx(linear.rated_power_density_wm2, rel=0.15)


def test_single_diode_monotonic_in_irradiance():
    single = PvParams(model="single-diode", diode=SingleDiodeParams())
    low = pv_hour(ghi=200.0, temp=15.0, params=single)
    high = pv_hour(ghi=800.0, temp=15.0, params=single)
    assert 0 < low < high


def diode_operating_point(ghi, temp, params, diode):
    """(photocurrent A, open-circuit V, module thermal voltage V) for one hour."""
    t_cell = cell_temperature(temp, ghi, params) + 273.15
    vt_module = diode.n_cells * diode.ideality * 1.380649e-23 * t_cell / 1.602176634e-19
    t_delta = (t_cell - 273.15) - STC_CELL_TEMP
    i_ph = diode.isc_a * (ghi / STC_IRRADIANCE) * (1.0 + diode.isc_temp_coeff / diode.isc_a * t_delta)
    voc = diode.voc_v + diode.voc_temp_coeff * t_delta
    return i_ph, voc, vt_module


DIODES = {
    "default": SingleDiodeParams(),
    "no-series-resistance": SingleDiodeParams(rs_ohm=0.0),
    "60-cell": SingleDiodeParams(isc_a=8.5, voc_v=37.5, n_cells=60, ideality=1.5, rs_ohm=0.05),
}


def assert_matches_reference(got, ghi, temp, params):
    """Each hour within 1e-12 of the 30-digit maximum power point; below
    1e-300 W/m² the hour's saturation current can be subnormal in doubles,
    so there the difference need only be below that."""
    for hour, value in enumerate(got.tolist()):
        want = diode_mpp_wm2(float(ghi[hour]), float(temp[hour]), params)
        if math.isnan(want):
            assert math.isnan(value), hour
        else:
            assert abs(value - want) <= 1e-12 * want + 1e-300, (hour, value, want)


@pytest.mark.parametrize("diode", DIODES.values(), ids=DIODES)
def test_single_diode_year_matches_mpmath_reference(weather2014, diode):
    params = PvParams(model="single-diode", diode=diode)
    series = pv_unit_series(weather2014, params)
    ghi, temp = weather2014.ghi, weather2014.temp
    day = np.flatnonzero(ghi > 0).tolist()
    hours = sorted(set(day[::25]) | {day[0], day[-1]})
    assert_matches_reference(series[hours], ghi[hours], temp[hours], params)
    assert pv_hour(ghi[day[0]], temp[day[0]], params) == series[day[0]]
    night = np.ones(len(series), dtype=bool)
    night[day] = False
    assert not series[night].any()
    assert (series[day] > 0).all()


def test_single_diode_year_sum_pinned(weather2014):
    series = pv_unit_series(weather2014, PvParams(model="single-diode"))
    assert float(series.sum()) == 109164.96500162831


@st.composite
def diode_params(draw):
    """Diode parameters from the validated ranges, kept physical enough that
    exp(V_oc / V_t) stays a double even in the coldest hour."""
    n_cells = draw(st.integers(1, 144))
    return SingleDiodeParams(
        isc_a=draw(st.floats(0.05, 15.0)),
        voc_v=n_cells * draw(st.floats(0.3, 0.8)),
        n_cells=n_cells,
        ideality=draw(st.floats(0.8, 2.5)),
        rs_ohm=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5))),
        isc_temp_coeff=draw(st.floats(-0.01, 0.01)),
        voc_temp_coeff=n_cells * draw(st.floats(-0.005, 0.001)),
    )


EXTREME_HOURS = {
    "tiny": (st.floats(5e-324, 1e-200), st.floats(-20.0, 35.0)),
    "bright": (st.floats(1500.0, 1e5), st.floats(-20.0, 35.0)),
    "hot": (st.floats(0.0, 1100.0), st.floats(45.0, 80.0)),
    "cold": (st.floats(0.0, 1100.0), st.floats(-89.9, -40.0)),
    "nan": (st.just(math.nan), st.floats(-20.0, 35.0)),
}


@settings(max_examples=100, deadline=None)
@given(diode=diode_params(), n_hours=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_single_diode_kernel_matches_mpmath_reference(diode, n_hours, seed, data):
    rng = np.random.default_rng(seed)
    ghi = rng.uniform(0.0, 1100.0, n_hours)
    temp = rng.uniform(-20.0, 35.0, n_hours)
    kinds = data.draw(st.lists(st.sampled_from(sorted(EXTREME_HOURS)), max_size=6))
    for kind in kinds:
        hour = data.draw(st.integers(0, n_hours - 1))
        ghi_st, temp_st = EXTREME_HOURS[kind]
        ghi[hour], temp[hour] = data.draw(ghi_st), data.draw(temp_st)
    params = PvParams(model="single-diode", diode=diode)
    t_cell = cell_temperature(temp, ghi, params)
    got = _single_diode_mpp(ghi, t_cell, diode) / params.panel_area_m2
    assert np.isnan(got).tolist() == np.isnan(ghi).tolist()
    assert_matches_reference(got, ghi, temp, params)


def test_wind_year_matches_per_hour_power(weather2014, wind_unit):
    hours = zip(weather2014.temp.tolist(), weather2014.pressure.tolist(),
                weather2014.wind_speed_10m.tolist())
    expected = [wind_kw(v, t, p) for t, p, v in hours]
    assert np.array_equal(wind_unit, expected)
    assert wind_unit.any()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_hours=st.integers(1, 40), hub_height_m=st.sampled_from([10.0, 50.0]))
def test_wind_columns_bit_equal_to_wind_power(data, n_hours, hub_height_m):
    # hub speeds drawn freely and exactly at (and one ulp either side of) the
    # cut-in, the cut-out and the nominal clip of each hour's air density; at
    # a 10 m hub the shear factor is exactly 1, so those speeds are hit exactly
    params = TurbineParams(hub_height_m=hub_height_m)
    factor = hub_height_speed(1.0, params)
    temps = data.draw(st.lists(st.floats(-89.0, 50.0), min_size=n_hours, max_size=n_hours))
    pressures = data.draw(st.lists(st.floats(50_000.0, 110_000.0),
                                   min_size=n_hours, max_size=n_hours))
    speeds = []
    for temp, pressure in zip(temps, pressures):
        swept = 0.5 * air_density(temp, pressure) * params.rotor_area_m2 * params.cp
        clip = (params.nominal_power_kw * 1000.0 / swept) ** (1 / 3)
        edge = data.draw(st.sampled_from([params.cut_in_ms, params.cut_out_ms, clip]))
        hub = data.draw(st.one_of(st.floats(0.0, 40.0), st.just(edge),
                                  st.just(math.nextafter(edge, 0.0)),
                                  st.just(math.nextafter(edge, math.inf))))
        speeds.append(hub / factor)
    # a 2014 series has 8760 hours: the drawn ones come first, calm hours follow
    calm = 8760 - n_hours
    frame = WeatherFrame(ghi=np.zeros(8760), temp=temps + [15.0] * calm,
                         pressure=pressures + [101325.0] * calm,
                         wind_speed_10m=speeds + [0.0] * calm)
    columns = wind_unit_series(frame, params).tolist()
    per_hour = [wind_kw(v, t, p, params) for t, p, v in zip(temps, pressures, speeds)]
    assert [float.hex(x) for x in columns[:n_hours]] == [float.hex(x) for x in per_hour]
    assert columns[n_hours:] == [0.0] * calm


@pytest.mark.parametrize("temp, pressure, message", [
    (-90.0, 101325.0, "temperature must be above -90.0 °C, got -90.0"),
    (15.0, 0.0, "pressure must be positive, got 0.0"),
    (-95.0, -1.0, "temperature must be above -90.0 °C, got -95.0"),
])
def test_wind_columns_report_first_bad_hour(temp, pressure, message):
    # the first hour that fails names itself as the per-hour model does
    temps = np.full(8760, 15.0)
    pressures = np.full(8760, 101325.0)
    temps[1:3], pressures[1:3] = (temp, -100.0), (pressure, -5.0)
    frame = WeatherFrame(ghi=np.zeros(8760), temp=temps, pressure=pressures,
                         wind_speed_10m=np.full(8760, 8.0))
    with pytest.raises(GenerationError, match=f"^{message}$"):
        wind_unit_series(frame)
    with pytest.raises(GenerationError, match=f"^{message}$"):
        wind_kw(8.0, temp, pressure)


def test_linear_year_sum_pinned(pv_unit):
    assert float(pv_unit.sum()) == 104019.80827083281


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


@pytest.mark.parametrize("params, kwargs, message", [
    (TurbineParams, {"rotor_area_m2": float("inf")},
     "rotor_area_m2 must be a finite number, got inf"),
    (TurbineParams, {"shear_exponent": float("nan")},
     "shear_exponent must be a finite number, got nan"),
    (TurbineParams, {"hub_height_m": "x"}, "hub_height_m must be a finite number, got 'x'"),
    (TurbineParams, {"cp": True}, "cp must be a finite number, got True"),
    (AreaBudget, {"phi_area": float("nan")}, "phi_area must be a finite number, got nan"),
    (AreaBudget, {"household_roof_m2_each": "x"},
     "household_roof_m2_each must be a finite number, got 'x'"),
    (AreaBudget, {"turbine_footprint_km2_per_mw": float("-inf")},
     "turbine_footprint_km2_per_mw must be a finite number, got -inf"),
    (AreaBudget, {"service_roofs": 5},
     "service_roofs must map names to numbers, got 5"),
    (AreaBudget, {"service_roofs": {"office": -1.0}},
     "service_roofs.office must be >= 0, got -1.0"),
    (AreaBudget, {"service_roofs": {"office": float("nan")}},
     "service_roofs.office must be a finite number, got nan"),
    (AreaBudget, {"service_roofs": {"office": "x"}},
     "service_roofs.office must be a finite number, got 'x'"),
    (AreaBudget, {"service_roofs": {3: 1.0}},
     "service_roofs must map names to numbers, got {3: 1.0}"),
    (AreaBudget, {"phi_area": 0.5}, "phi_area must be >= 1, got 0.5"),
    (TurbineParams, {"cp": 0.7}, "cp must be in (0, 0.593), got 0.7"),
    # each finite, but the hub-speed factor they give is not
    (TurbineParams, {"hub_height_m": 1e308, "shear_exponent": 2.0},
     "hub_height_m / 10 to the power shear_exponent must be finite, got (1e+308 / 10) ** 2.0"),
    (TurbineParams, {"hub_height_m": 1e5, "shear_exponent": 1e3},
     "hub_height_m / 10 to the power shear_exponent must be finite, got (100000.0 / 10) ** "
     "1000.0"),
])
def test_turbine_and_area_numbers_validated(params, kwargs, message):
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        params(**kwargs)


def test_pv_params_reject_non_diode_object():
    with pytest.raises(GenerationError, match="diode"):
        PvParams(model="single-diode", diode={"isc_a": 4.0})


def test_unit_series_lengths(weather2014, pv_unit, wind_unit):
    assert len(pv_unit) == 8760
    assert len(wind_unit) == 8760
    assert float(wind_unit.max()) <= 500.0
    assert float(pv_unit.min()) >= 0.0


def generation_at(pv_mw, wind_mw, pv_unit, wind_unit):
    area, turbines = capacity_coefficients(pv_mw, wind_mw)
    return generation_mw(area, turbines, pv_unit, wind_unit)


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
        generation_mw(-1.0, 0.0, pv_unit, wind_unit)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(0.0, -0.5, pv_unit, wind_unit)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(np.array([10.0, -1.0]), np.array([1.0, 2.0]),
                      pv_unit, wind_unit)
    with pytest.raises(GenerationError, match="non-negative"):
        generation_mw(1.0, 1.0, -pv_unit, wind_unit)


def test_generation_kernel_batch_rows_match_scalar_calls(pv_unit, wind_unit):
    areas = np.array([0.0, 1.0e5, 3.7e6])
    turbines = np.array([4.0, 0.0, 2.5])
    batch = generation_mw(areas, turbines, pv_unit, wind_unit)
    assert batch.shape == (3, 8760)
    for i in range(3):
        row = generation_mw(areas[i], turbines[i], pv_unit, wind_unit)
        assert np.array_equal(batch[i], row)


def test_generation_kernel_shape_checks(pv_unit, wind_unit):
    with pytest.raises(GenerationError, match="length"):
        generation_mw(1.0, 1.0, pv_unit, wind_unit[:-1])
    with pytest.raises(GenerationError, match="equal-length"):
        generation_mw(np.ones(2), np.ones(3), pv_unit, wind_unit)


def test_area_budget_totals(service_mix, fixture_nl):
    budget = AreaBudget(service_roofs=fixture_nl.roof_areas())
    assert area_budget_totals(service_mix, 100_000, budget) == pytest.approx(5_130_333.0)


def test_area_budget_missing_type(fixture_nl):
    budget = AreaBudget(service_roofs={})
    mix = {"hospital": 1}
    with pytest.raises(GenerationError, match="no roof area"):
        area_budget_totals(mix, 10, budget)


def test_turbine_footprint():
    budget = AreaBudget()
    assert budget.footprint_m2_per_turbine(TURBINE_UNIT_MW) == pytest.approx(172_500.0)


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=-20.0, max_value=35.0),
       st.floats(min_value=90_000.0, max_value=105_000.0))
def test_wind_power_bounded(v, temp, pressure):
    kw = wind_hour(wind=v, temp=temp, pressure=pressure)
    assert 0.0 <= kw <= 500.0


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=1300.0),
       st.floats(min_value=-20.0, max_value=45.0),
       st.sampled_from(["linear-derate", "single-diode"]))
def test_pv_power_bounded(ghi, temp, model):
    params = PvParams(model=model)
    w = pv_hour(ghi=ghi, temp=temp, params=params)
    if model == "linear-derate":
        assert 0.0 <= w <= params.rated_power_density_wm2
    else:
        i_ph, voc, _ = diode_operating_point(ghi, temp, params, SingleDiodeParams())
        assert 0.0 <= w * params.panel_area_m2 <= i_ph * voc
