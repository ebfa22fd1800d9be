"""Oracles for the generation kernels: the per-hour wind formula that
`wind_unit_series` evaluates over the columns, the single-diode maximum power
point at 30 digits, and the column kernels run on one hour padded to a whole
year."""

import math

import mpmath
import numpy as np

from urbanmix.generation import (NOCT_IRRADIANCE, STC_CELL_TEMP, STC_IRRADIANCE, PvParams,
                                 SingleDiodeParams, TurbineParams, air_density,
                                 hub_height_speed, pv_unit_series, wind_unit_series)
from urbanmix.ingest import WeatherFrame


def wind_kw(wind_speed_10m, temp, pressure, params=TurbineParams()) -> float:
    """kW produced by one turbine in one hour, in Python floats.

    Swept-area power 0.5 ρ A V³ Cp at hub-height speed, zero outside the
    cut-in/cut-out window, clipped at nominal power.
    """
    rho = air_density(temp, pressure)
    v = hub_height_speed(wind_speed_10m, params)
    if v < params.cut_in_ms or v > params.cut_out_ms:
        return 0.0
    raw_w = 0.5 * rho * params.rotor_area_m2 * v ** 3 * params.cp
    return min(raw_w / 1000.0, params.nominal_power_kw)


def diode_mpp_wm2(ghi, temp, params) -> float:
    """W per m² of panel at one hour's single-diode maximum power point,
    computed at 30 digits from the same float inputs as the kernel.

    The current is the model's explicit form in the terminal voltage V
    (Jain & Kapoor 2004): I = I_ph + I_0 − (V_t/R_s)·W((R_s·I_0/V_t)·
    exp((V + R_s(I_ph + I_0))/V_t)), with dI/dV = −W/(R_s(1 + W)); with
    R_s = 0 it is I_ph − I_0·expm1(V/V_t). The maximum is the root of
    dP/dV = I + V·dI/dV on [0, V_oc], where I(V_oc) = 0.
    """
    if math.isnan(ghi):
        return math.nan
    diode = params.diode or SingleDiodeParams()
    with mpmath.workdps(30):
        mpf = mpmath.mpf
        t_cell = mpf(temp) + mpf(params.noct_offset_c) * (mpf(ghi) / NOCT_IRRADIANCE)
        t_delta = t_cell - STC_CELL_TEMP
        vt = (diode.n_cells * mpf(diode.ideality) * mpf("1.380649e-23")
              * (t_cell + mpf("273.15")) / mpf("1.602176634e-19"))
        i_ph = (mpf(diode.isc_a) * (mpf(ghi) / STC_IRRADIANCE)
                * (1 + mpf(diode.isc_temp_coeff) / mpf(diode.isc_a) * t_delta))
        voc = mpf(diode.voc_v) + mpf(diode.voc_temp_coeff) * t_delta
        if ghi <= 0 or i_ph <= 0 or voc <= 0:
            return 0.0
        i_sat = i_ph / mpmath.expm1(voc / vt)
        rs = mpf(diode.rs_ohm) * diode.n_cells

        def current(v):
            if rs == 0:
                return i_ph - i_sat * mpmath.expm1(v / vt), -i_sat * mpmath.exp(v / vt) / vt
            w = mpmath.lambertw(rs * i_sat / vt * mpmath.exp((v + rs * (i_ph + i_sat)) / vt)).real
            return i_ph + i_sat - vt / rs * w, -w / (rs * (1 + w))

        def slope(v):  # dP/dV in units of I_ph: findroot's tolerance is absolute
            i, di_dv = current(v)
            return (i + v * di_dv) / i_ph

        v_mp = mpmath.findroot(slope, (mpf(0), voc), solver="illinois")
        return float(v_mp * current(v_mp)[0] / mpf(params.panel_area_m2))


def padded_year(ghi=0.0, temp=15.0, pressure=101325.0, wind=0.0) -> WeatherFrame:
    """A 2014 weather year whose first hour is the given one; every later hour
    is dark and calm at 15 °C and 101,325 Pa."""
    first = np.array([ghi, temp, pressure, wind])
    columns = np.repeat([[0.0, 15.0, 101325.0, 0.0]], 8760, axis=0).T
    columns[:, 0] = first
    return WeatherFrame(*columns)


def pv_hour(ghi=0.0, temp=15.0, params=PvParams()) -> float:
    """W per m² of panel in one hour, from `pv_unit_series` over a padded year."""
    return float(pv_unit_series(padded_year(ghi=ghi, temp=temp), params)[0])


def wind_hour(wind=0.0, temp=15.0, pressure=101325.0, params=TurbineParams()) -> float:
    """kW of one turbine in one hour, from `wind_unit_series` over a padded year."""
    frame = padded_year(temp=temp, pressure=pressure, wind=wind)
    return float(wind_unit_series(frame, params)[0])
