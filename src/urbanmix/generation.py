"""Solar and wind generation from weather.

Per-unit series (W per m² of PV, kW per turbine) are built once from the
weather year; `generation_mw` scales them to installed capacities, for one
scenario or a batch of them.
"""

from __future__ import annotations

import math
import sys
from types import MappingProxyType

import numpy as np

from .ingest import MIN_TEMP_C, ValidationError, WeatherFrame, _read_only, checked_record
from .scaling import round_half_away

R_DRY_AIR = 287.05          # J/(kg K)
BETZ_LIMIT = 0.593
STC_IRRADIANCE = 1000.0     # W/m²
STC_CELL_TEMP = 25.0        # °C
NOCT_IRRADIANCE = 800.0     # W/m²
TURBINE_UNIT_MW = 0.5
_EXPM1_MAX = math.log(sys.float_info.max)  # expm1 overflows above this


class GenerationError(ValidationError):
    pass


class TurbineParams(checked_record(GenerationError,
                                  ("hub_height_m", float, "> 0", 50.0),
                                  ("rotor_area_m2", float, "> 0", 2290.0),
                                  ("cp", float, f"in (0, {BETZ_LIMIT})", 0.35),
                                  ("cut_in_ms", float, "> 0", 2.5),
                                  ("cut_out_ms", float, None, 25.0),
                                  ("nominal_power_kw", float, "> 0", 500.0),
                                  ("shear_exponent", float, "> 0", 0.15))):
    __slots__ = ()

    def _rules(self):
        if not self.cut_in_ms < self.cut_out_ms:
            raise GenerationError(f"cut_in_ms must be < cut_out_ms, "
                                  f"got {self.cut_in_ms} >= {self.cut_out_ms}")
        try:  # the factor `hub_height_speed` applies; a float power raises on overflow
            factor = (self.hub_height_m / 10.0) ** self.shear_exponent
        except OverflowError:
            factor = math.inf
        if not factor < math.inf:
            raise GenerationError(f"hub_height_m / 10 to the power shear_exponent must be "
                                  f"finite, got ({self.hub_height_m} / 10) ** "
                                  f"{self.shear_exponent}")


class SingleDiodeParams(checked_record(GenerationError,
                                       ("isc_a", float, "> 0", 3.8),
                                       ("voc_v", float, "> 0", 21.1),
                                       ("n_cells", int, ">= 1", 36),
                                       ("ideality", float, "> 0", 1.2),
                                       ("rs_ohm", float, ">= 0", 0.008),
                                       ("isc_temp_coeff", float, None, 0.0024),  # A/°C
                                       ("voc_temp_coeff", float, None, -0.08))):  # V/°C
    """One-diode module model inputs at standard test conditions."""

    __slots__ = ()


class PvParams(checked_record(GenerationError,
                             ("rated_power_density_wm2", float, "> 0", 107.9),
                             ("temp_coefficient", float, "<= 0", -0.005),  # 1/°C
                             ("noct_offset_c", float, None, 27.0),
                             ("panel_area_m2", float, "> 0", 0.556),
                             ("model", str, ("linear-derate", "single-diode"), "linear-derate"),
                             ("diode", SingleDiodeParams | None, None, None))):
    """Flat-plate PV parameters (datasheet values supplied as config).

    Defaults describe a 60 W, 0.556 m² crystalline module: 107.9 W/m² rated
    density, -0.5%/°C power coefficient, 47 °C nominal operating cell
    temperature (i.e. a 27 °C offset above ambient at 800 W/m²). ``diode``
    is None or the single-diode model's module.
    """

    __slots__ = ()


class AreaBudget(checked_record(GenerationError,
                               ("household_roof_m2_each", float, "> 0", 33.0),
                               # building type -> roof m²; empty: the scaling fixture's
                               ("service_roofs", dict[str, float], ">= 0", MappingProxyType({})),
                               ("phi_area", float, ">= 1", 3.0),
                               ("turbine_footprint_km2_per_mw", float, "> 0", 0.345))):
    __slots__ = ()

    def footprint_m2_per_turbine(self, turbine_unit_mw: float) -> float:
        return self.turbine_footprint_km2_per_mw * 1e6 * turbine_unit_mw


def air_density(temp: float, pressure: float) -> float:
    """Ideal-gas density of dry air, kg/m³."""
    if temp <= MIN_TEMP_C:
        raise GenerationError(f"temperature must be above {MIN_TEMP_C} °C, got {temp}")
    if pressure <= 0:
        raise GenerationError(f"pressure must be positive, got {pressure}")
    return pressure / (R_DRY_AIR * (temp + 273.15))


def hub_height_speed(v0, params: TurbineParams):
    return v0 * (params.hub_height_m / 10.0) ** params.shear_exponent


def cell_temperature(temp, ghi, params: PvParams):
    return temp + params.noct_offset_c * (ghi / NOCT_IRRADIANCE)


def _single_diode_mpp(ghi: np.ndarray, t_cell: np.ndarray,
                      diode: SingleDiodeParams) -> np.ndarray:
    """Module maximum-power-point watts, one per hour of the ``ghi`` and cell
    temperature (°C) columns.

    Module-level one-diode model: photocurrent proportional to irradiance,
    saturation current fixed by the open-circuit point at cell temperature.
    In the junction voltage x = V + I·R_s the current is explicit,
    I = I_ph − I_0·expm1(x/V_t), and the power is P = (x − R_s·I)·I; R_s = 0
    is the same formula. V rises with x, so P is unimodal on 0 ≤ x ≤ V_oc (it
    is negative and rising while V < 0, and I = 0 at V_oc), and a
    golden-section search over x finds each hour's maximum. The search stops
    when no hour's bracket shrinks any more, at the resolution of the doubles.
    Hours without irradiance, photocurrent or open-circuit voltage give 0.
    """
    t_kelvin = t_cell + 273.15
    vt_module = diode.n_cells * diode.ideality * 1.380649e-23 * t_kelvin / 1.602176634e-19
    t_delta = t_cell - STC_CELL_TEMP
    i_ph = diode.isc_a * (ghi / STC_IRRADIANCE) * (1.0 + diode.isc_temp_coeff / diode.isc_a * t_delta)
    voc = diode.voc_v + diode.voc_temp_coeff * t_delta
    mpp = np.zeros(len(ghi))
    # "not <= 0" rather than "> 0": a NaN input stays NaN instead of reading as night
    lit = ~((ghi <= 0) | (i_ph <= 0) | (voc <= 0))
    i_ph, voc, vt = i_ph[lit], voc[lit], vt_module[lit]
    ratio = voc / vt
    if (ratio > _EXPM1_MAX).any():
        raise GenerationError(f"single-diode voc/vt reaches {float(np.nanmax(ratio))!r} "
                              f"(voc_v={diode.voc_v!r}, n_cells={diode.n_cells!r}); "
                              f"exp overflows above {_EXPM1_MAX!r}")
    i_sat = i_ph / np.expm1(ratio)
    rs = diode.rs_ohm * diode.n_cells

    def power(x):
        i = i_ph - i_sat * np.expm1(x / vt)
        return (x - rs * i) * i

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    low, high = np.zeros(len(voc)), voc
    while True:
        step = shrink * (high - low)
        inner_low, inner_high = high - step, low + step
        p_low, p_high = power(inner_low), power(inner_high)
        left = p_low > p_high  # the maximum lies in [low, inner_high]
        new_low = np.where(left, low, inner_low)
        new_high = np.where(left, inner_high, high)
        # widths never grow, so the loop ends; a NaN hour's width never shrinks
        if not (new_high - new_low < high - low).any():
            mpp[lit] = np.maximum(p_low, p_high)
            return mpp
        low, high = new_low, new_high


def pv_unit_series(weather: WeatherFrame, params: PvParams = PvParams()) -> np.ndarray:
    """Per-m² PV output for a weather year, W/m², as a read-only column.

    The linear-derate model clips P = rated × (G / 1000) × (1 + γ (T_cell − 25))
    to [0, rated]; the single-diode model takes the module's maximum power
    point at the same cell temperature. Finite weather can still give an hour
    whose cell is at or below absolute zero (a negative NOCT offset in a bright
    hour), or whose cell temperature or unclipped linear-derate P is not finite
    (an overflowing offset or temperature coefficient), or whose output is not
    finite (an overflowing diode current), when a parameter is extreme; under
    either model the first such hour is rejected.
    """
    ghi = weather.ghi
    with np.errstate(over="ignore", invalid="ignore"):
        t_cell = cell_temperature(weather.temp, ghi, params)
        linear = (params.rated_power_density_wm2 * (ghi / STC_IRRADIANCE)
                  * (1.0 + params.temp_coefficient * (t_cell - STC_CELL_TEMP)))
    cold = np.flatnonzero(t_cell <= -273.15)
    if len(cold):
        raise GenerationError(f"PV cell temperature at hour {cold[0]} is at or below "
                              f"absolute zero, got {float(t_cell[cold[0]])!r} °C")
    bad = np.flatnonzero(~(np.isfinite(t_cell) & np.isfinite(linear)))
    if len(bad):
        hour = bad[0]
        raise GenerationError(f"PV cell temperature and linear-derate output at hour {hour} "
                              f"must be finite, got {float(t_cell[hour])!r} °C and "
                              f"{float(linear[hour])!r} W/m²")
    if params.model == "linear-derate":
        values = np.where(ghi <= 0, 0.0, np.clip(linear, 0.0, params.rated_power_density_wm2))
    else:
        # an extreme diode parameter can overflow the kernel: the check below
        # rejects the first hour it spoils
        with np.errstate(over="ignore", invalid="ignore"):
            values = (_single_diode_mpp(ghi, t_cell, params.diode or SingleDiodeParams())
                      / params.panel_area_m2)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise GenerationError(f"PV output at hour {bad[0]} is not finite, "
                              f"got {float(values[bad[0]])!r}")
    return _read_only(values)


def wind_unit_series(weather: WeatherFrame,
                     params: TurbineParams = TurbineParams()) -> np.ndarray:
    """Per-turbine output for a weather year, kW, as a read-only column.

    Swept-area power 0.5 ρ A V³ Cp at hub-height speed, zero outside the
    cut-in/cut-out window, clipped at nominal power.
    """
    temp, pressure = weather.temp, weather.pressure
    bad = np.flatnonzero((temp <= MIN_TEMP_C) | (pressure <= 0))
    if len(bad):
        air_density(float(temp[bad[0]]), float(pressure[bad[0]]))  # raises its message
    rho = pressure / (R_DRY_AIR * (temp + 273.15))
    v = hub_height_speed(weather.wind_speed_10m, params)
    # "not outside" rather than "inside": a NaN speed stays NaN instead of reading as calm
    run = ~((v < params.cut_in_ms) | (v > params.cut_out_ms))
    # Python floats: numpy's v ** 3 can differ in the last bit.
    v_cubed = np.array([x ** 3 for x in v[run].tolist()])
    raw_w = 0.5 * rho[run] * params.rotor_area_m2 * v_cubed * params.cp
    values = np.zeros(len(v))
    values[run] = np.minimum(raw_w / 1000.0, params.nominal_power_kw)
    return _read_only(values)


def capacity_coefficients(pv_mw: float, wind_mw: float,
                          pv_params: PvParams = PvParams()) -> tuple[float, int]:
    """(panel area in m², whole turbines) for installed capacities in MW.

    PV capacity becomes panel area via the rated power density; wind
    capacity is rounded half away from zero to whole 0.5 MW turbines. An
    infinite capacity, or one whose area or turbine count overflows, is
    rejected.
    """
    if pv_mw < 0 or wind_mw < 0:
        raise GenerationError(
            f"capacities must be non-negative, got ({pv_mw}, {wind_mw})"
        )
    area = pv_mw * 1e6 / pv_params.rated_power_density_wm2
    turbines = wind_mw / TURBINE_UNIT_MW
    if not (area < math.inf and turbines < math.inf):
        raise GenerationError(
            f"capacities must be finite, got ({pv_mw}, {wind_mw}) MW: "
            f"{area} m² of panel, {turbines} turbines"
        )
    return area, round_half_away(turbines)


def generation_mw(panel_area_m2, turbines, g_pv, g_turbine) -> np.ndarray:
    """Generation in MW: G = A_pv·g_pv/10⁶ + n·g_wt/10³.

    ``g_pv`` is W per m² of panel and ``g_turbine`` kW per turbine, per hour.
    The coefficients are scalars, giving G of shape (n_hours,), or
    equal-length 1-D arrays, giving one row per scenario. Turbine counts need
    not be whole. Non-negative coefficients and per-unit series make G ≥ 0.
    A G that overflows (or meets an infinite per-unit value) is rejected,
    naming the first scenario's coefficients that give it.
    """
    area = np.asarray(panel_area_m2, dtype=float)
    n = np.asarray(turbines, dtype=float)
    g_pv = np.asarray(g_pv, dtype=float)
    g_turbine = np.asarray(g_turbine, dtype=float)
    if area.ndim > 1 or area.shape != n.shape:
        raise GenerationError("coefficients must be scalars or equal-length 1-D arrays")
    if g_pv.ndim != 1 or g_pv.shape != g_turbine.shape:
        raise GenerationError(
            f"per-unit series length mismatch: {g_pv.shape} vs {g_turbine.shape}")
    if not ((area >= 0).all() and (n >= 0).all()):
        raise GenerationError("panel area and turbine count must be non-negative, "
                              f"got ({panel_area_m2}, {turbines})")
    # min(initial=0) is negative exactly when some value is; empty arrays pass
    if g_pv.min(initial=0.0) < 0 or g_turbine.min(initial=0.0) < 0:
        raise GenerationError("per-unit generation must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        g = area[..., None] * g_pv / 1e6 + n[..., None] * g_turbine / 1000.0
    # G >= 0 where it is a number, so its largest value is finite exactly when all of it is
    if not g.max(initial=0.0) < math.inf:
        row = np.flatnonzero(~np.isfinite(g).all(axis=-1))[0]
        raise GenerationError(
            f"generation is not finite for {float(area.flat[row])} m² of panel and "
            f"{float(n.flat[row])} turbines")
    return g


def area_budget_totals(mix: dict, n_households: int, budget: AreaBudget) -> float:
    """Total roof area in m²: every household's, plus each building type's
    count times its roof."""
    if n_households < 0:
        raise GenerationError("household count must be non-negative")
    service = 0.0
    for name, count in mix.items():
        if name not in budget.service_roofs:
            raise GenerationError(f"no roof area for building type {name!r}")
        service += count * budget.service_roofs[name]
    return n_households * budget.household_roof_m2_each + service
