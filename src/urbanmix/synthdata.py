"""Deterministic synthetic input generators.

Produces weather, household, and per-building-type reference profiles with
the qualitative features the models expect: solar irradiance that is zero at
night and cloud-modulated by day, continuous (tie-free) wind speeds, an
evening-peaking household shape, and service shapes concentrated in weekday
business hours. Everything is a pure function of the calendar and the seed,
so repeated runs write byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .config import SimulationConfig
from .ingest import Calendar, WeatherFrame, _read_only, write_series

LATITUDE_DEG = 52.1
DEFAULT_SEED = 1234
_CONFIG_DEFAULTS = SimulationConfig._field_defaults  # an input set's household defaults

# Annual electricity use per single reference building, kWh.
TYPE_ANNUAL_KWH = {
    "hospital": 8.0e6,
    "large-hotel": 2.4e6,
    "small-hotel": 3.5e5,
    "large-office": 2.5e6,
    "medium-office": 6.0e5,
    "small-office": 6.0e4,
    "primary-school": 2.0e5,
    "secondary-school": 7.5e5,
    "stand-alone-retail": 4.0e5,
    "supermarket": 1.6e6,
    "full-service-restaurant": 3.0e5,
    "quick-service-restaurant": 4.5e5,
    "warehouse": 2.3e5,
}


def _day_shape(base: float, *spans) -> np.ndarray:
    """24-hour weight vector: `base` everywhere, overridden on [start, end) spans."""
    w = np.full(24, float(base))
    for start, end, level in spans:
        w[start:end] = level
    return w


_OFFICE_WEEKDAY = _day_shape(0.15, (7, 9, 0.7), (9, 17, 1.0), (17, 19, 0.45))
_OFFICE_WEEKEND = _day_shape(0.15)

# name -> (weekday shape, weekend/holiday shape, seasonal amplitude)
SHAPES = {
    "hospital": (_day_shape(0.75, (8, 18, 1.0)),
                 _day_shape(0.75, (9, 17, 0.9)), 0.06),
    "large-hotel": (_day_shape(0.6, (6, 10, 1.2), (17, 23, 1.7)),
                    _day_shape(0.65, (7, 11, 1.3), (17, 23, 1.8)), 0.05),
    "small-hotel": (_day_shape(0.55, (6, 10, 1.15), (17, 23, 1.6)),
                    _day_shape(0.6, (7, 11, 1.25), (17, 23, 1.7)), 0.05),
    "large-office": (_OFFICE_WEEKDAY, _OFFICE_WEEKEND, 0.08),
    "medium-office": (_OFFICE_WEEKDAY, _OFFICE_WEEKEND, 0.08),
    "small-office": (_OFFICE_WEEKDAY, _OFFICE_WEEKEND, 0.08),
    "primary-school": (_day_shape(0.1, (7, 17, 1.0)), _day_shape(0.1), 0.1),
    "secondary-school": (_day_shape(0.1, (7, 18, 1.0)), _day_shape(0.1), 0.1),
    "stand-alone-retail": (_day_shape(0.2, (9, 19, 1.0), (19, 21, 0.85)),
                           _day_shape(0.2, (10, 17, 0.75)), 0.06),
    "supermarket": (_day_shape(0.35, (8, 22, 1.0)),
                    _day_shape(0.35, (9, 21, 0.9)), 0.05),
    "full-service-restaurant": (_day_shape(0.12, (11, 15, 0.8), (17, 23, 2.7)),
                                _day_shape(0.12, (11, 15, 0.9), (17, 24, 2.7)), 0.04),
    "quick-service-restaurant": (_day_shape(0.15, (11, 17, 1.0), (17, 22, 2.7), (22, 24, 1.6)),
                                 _day_shape(0.15, (11, 17, 1.1), (17, 22, 2.7), (22, 24, 1.7)), 0.04),
    "warehouse": (_day_shape(0.3, (6, 18, 1.0)),
                  _day_shape(0.3, (8, 14, 0.5)), 0.05),
}

HOUSEHOLD_WEEKDAY = _day_shape(
    0.55, (6, 9, 0.85), (9, 16, 0.72), (16, 18, 1.2), (18, 21, 1.55),
    (21, 23, 1.05), (23, 24, 0.75))
HOUSEHOLD_WEEKEND = _day_shape(
    0.6, (8, 11, 1.0), (11, 17, 0.88), (17, 21, 1.45), (21, 23, 1.0))
HOUSEHOLD_SEASONAL_AMP = 0.24


def _seasonal(day_of_year: np.ndarray, amplitude: float, peak_day: int = 15) -> np.ndarray:
    return 1.0 + amplitude * np.cos(2 * np.pi * (day_of_year - peak_day) / 365.0)


def _ar1(rng: np.random.Generator, n: int, rho: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) noise with unit-free innovations of std `sigma`."""
    eps = rng.normal(0.0, sigma, size=n).tolist()
    stationary_std = sigma / math.sqrt(1.0 - rho * rho)
    x = float(rng.normal(0.0, stationary_std))
    out = [x]
    # Python floats: the same IEEE operations as numpy scalars, without their overhead.
    for e in eps[1:]:
        x = rho * x + e
        out.append(x)
    return np.array(out)


def _weights(calendar: Calendar, weekday: np.ndarray, weekend_shape: np.ndarray,
             amp: float, holidays_as_weekend: bool) -> np.ndarray:
    """The day kind's shape at each local clock hour, times the seasonal factor."""
    weekend = calendar.weekend_kind(holidays_as_weekend)
    lh = calendar.local_hour
    base = np.where(weekend, weekend_shape[lh], weekday[lh])
    return base * _seasonal(calendar.local_day_of_year, amp)


def household_weights(calendar: Calendar, holidays_as_weekend: bool = True) -> np.ndarray:
    """Relative household demand weights, evening-peaking and winter-heavy, as
    a read-only column."""
    return _read_only(_weights(calendar, HOUSEHOLD_WEEKDAY, HOUSEHOLD_WEEKEND,
                               HOUSEHOLD_SEASONAL_AMP, holidays_as_weekend))


def reference_profile_values(name: str, calendar: Calendar,
                             holidays_as_weekend: bool = True) -> np.ndarray:
    """Hourly kW draw of one reference building of the given type, its annual
    energy TYPE_ANNUAL_KWH, as a read-only column."""
    if name not in SHAPES:
        raise KeyError(f"no synthetic shape for building type {name!r}")
    w = _weights(calendar, *SHAPES[name], holidays_as_weekend)
    return _read_only(w * (TYPE_ANNUAL_KWH[name] / w.sum()))


def synthetic_weather_frame(calendar: Calendar, seed: int = DEFAULT_SEED) -> WeatherFrame:
    """One synthetic weather year.

    GHI is a clear-sky elevation model modulated by smoothly varying
    cloudiness, exactly zero whenever the sun is below the horizon. Wind is
    strictly positive and continuous, so an hourly year contains no repeated
    values (needed for unambiguous quantile binning downstream).
    """
    rng = np.random.default_rng(seed)
    n = calendar.n_hours
    doy = calendar.local_day_of_year.astype(float)
    lh = calendar.local_hour.astype(float)

    decl = np.radians(23.45) * np.sin(2 * np.pi * (284 + doy) / 365.0)
    hour_angle = np.radians(15.0 * (lh + 0.5 - 12.7))
    lat = math.radians(LATITUDE_DEG)
    cos_zenith = (math.sin(lat) * np.sin(decl)
                  + math.cos(lat) * np.cos(decl) * np.cos(hour_angle))
    clear_sky = 990.0 * np.clip(cos_zenith, 0.0, None) ** 1.15

    cloud = _ar1(rng, n, rho=0.92, sigma=0.16)
    clearness = np.clip(0.62 + 0.5 * cloud, 0.05, 1.0)
    ghi = clear_sky * clearness

    temp = (10.2 + 7.3 * np.cos(2 * np.pi * (doy - 197) / 365.0)
            + 3.1 * np.cos(2 * np.pi * (lh - 14.0) / 24.0)
            + 1.5 * _ar1(rng, n, rho=0.9, sigma=0.5))

    pressure = 101_325.0 + _ar1(rng, n, rho=0.985, sigma=150.0)

    breeze = _ar1(rng, n, rho=0.96, sigma=0.28)
    wind = np.abs(5.2 + 2.2 * breeze
                  + 0.8 * np.cos(2 * np.pi * (doy - 20) / 365.0))

    return WeatherFrame(ghi=ghi, temp=temp, pressure=pressure, wind_speed_10m=wind)


def write_weather_csv(path, frame: WeatherFrame) -> None:
    columns = (frame.ghi, frame.temp, frame.pressure, frame.wind_speed_10m)
    with Path(path).open("w") as handle:
        handle.write("hour_utc,ghi_wm2,temp_c,pressure_pa,wind_ms\n")
        handle.writelines(f"{i},{g!r},{t!r},{p!r},{w!r}\n" for i, (g, t, p, w)
                          in enumerate(zip(*(c.tolist() for c in columns))))


def write_input_set(out_dir, calendar: Calendar, seed: int = DEFAULT_SEED,
                    households: int = _CONFIG_DEFAULTS["households"],
                    household_annual_kwh: float = _CONFIG_DEFAULTS["household_annual_kwh"]) -> Path:
    """Write a complete runnable input set; returns the config file path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles_dir = out_dir / "profiles"
    profiles_dir.mkdir(exist_ok=True)

    write_weather_csv(out_dir / "weather.csv", synthetic_weather_frame(calendar, seed))

    write_series(household_weights(calendar), out_dir / "household.csv", value_column="weight")
    for name in sorted(SHAPES):
        write_series(reference_profile_values(name, calendar), profiles_dir / f"{name}.csv",
                     value_column="kw")

    config = {
        "year": calendar.year,
        "weather": "weather.csv",
        "household_profile": "household.csv",
        "reference_profile_dir": "profiles",
        "households": households,
        "household_annual_kwh": household_annual_kwh,
        "real_inputs": False,
        "seed": seed,
    }
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return config_path
