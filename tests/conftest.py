import numpy as np
import pytest

from urbanmix.config import default_config
from urbanmix.generation import pv_unit_series, wind_unit_series
from urbanmix.ingest import HourlySeries
from urbanmix.scaling import build_service_mix
from urbanmix.synthdata import (SHAPES, household_weights,
                                reference_profile_values,
                                synthetic_weather_frame)

HOUSEHOLDS = 100_000
HOUSEHOLD_ANNUAL_KWH = 3500.0


@pytest.fixture(scope="session")
def config2014():
    return default_config()


@pytest.fixture(scope="session")
def calendar2014(config2014):
    return config2014.calendar


@pytest.fixture(scope="session")
def fixture_nl(config2014):
    return config2014.scaling_fixture


@pytest.fixture(scope="session")
def service_mix(fixture_nl):
    return build_service_mix(fixture_nl.specs,
                             households_per_100k=fixture_nl.households_per_100k)


@pytest.fixture(scope="session")
def weather2014(calendar2014):
    return synthetic_weather_frame(calendar2014, seed=1234)


@pytest.fixture(scope="session")
def pv_unit(weather2014, calendar2014):
    return pv_unit_series(weather2014, calendar2014.year)


@pytest.fixture(scope="session")
def wind_unit(weather2014, calendar2014):
    return wind_unit_series(weather2014, calendar2014.year)


@pytest.fixture(scope="session")
def household_series(calendar2014):
    w = household_weights(calendar2014)
    annual = HOUSEHOLD_ANNUAL_KWH * HOUSEHOLDS
    return HourlySeries(w * (annual / w.sum()), unit="kW", year=calendar2014.year)


@pytest.fixture(scope="session")
def reference_profiles(calendar2014):
    return {name: HourlySeries(reference_profile_values(name, calendar2014),
                               unit="kW", year=calendar2014.year)
            for name in SHAPES}


@pytest.fixture(scope="session")
def service_series(service_mix, reference_profiles):
    from urbanmix.demand import synthesize_service_profile
    return synthesize_service_profile(service_mix, reference_profiles)
