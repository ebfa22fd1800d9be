"""Oracles for the generation kernels: the per-hour wind formula that
`wind_unit_series` evaluates over the columns, and the column kernels run on
one hour padded to a whole year."""

import numpy as np

from urbanmix.generation import (PvParams, TurbineParams, air_density, hub_height_speed,
                                 pv_unit_series, wind_unit_series)
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
