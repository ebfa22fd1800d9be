import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanmix.demand import (MIXED, RESIDENTIAL_ONLY, DemandError, LoadCase,
                             build_load_cases, compute_phi, mixed_case,
                             residential_case, synthesize_service_profile)
from urbanmix.ingest import HourlySeries
from urbanmix.scaling import ServiceMix


def test_phi_reference_value():
    assert compute_phi(7.10481, 3.49982) == pytest.approx(2.03005, abs=5e-6)


def test_phi_rejects_nonpositive_household():
    with pytest.raises(DemandError):
        compute_phi(7.0, 0.0)
    with pytest.raises(DemandError):
        compute_phi(7.0, -1.0)


def test_load_cases_share_annual_energy(household_series, service_series):
    residential, mixed, phi = build_load_cases(household_series, service_series)
    assert residential.kind == RESIDENTIAL_ONLY
    assert mixed.kind == MIXED
    assert residential.annual_energy == pytest.approx(mixed.annual_energy, rel=1e-12)
    assert phi == pytest.approx(
        (household_series.total() + service_series.total()) / household_series.total(),
        rel=1e-12)


def test_residential_case_scales_household(household_series):
    case = residential_case(household_series, phi=2.0)
    assert np.array_equal(case.series.values, household_series.values * 2.0)
    assert case.phi == 2.0


def test_mixed_case_adds_pointwise(household_series, service_series):
    case = mixed_case(household_series, service_series)
    assert np.array_equal(case.series.values,
                          household_series.values + service_series.values)


def test_residential_case_rejects_negative_phi(household_series):
    with pytest.raises(DemandError):
        residential_case(household_series, phi=-0.5)


def test_synthesize_service_profile_weights_by_count(calendar2014):
    flat = HourlySeries(np.ones(8760), unit="kW", year=2014)
    double = HourlySeries(np.full(8760, 2.0), unit="kW", year=2014)
    mix = ServiceMix(entries=(("a", 3), ("b", 1)))
    total = synthesize_service_profile(mix, {"a": flat, "b": double})
    assert np.allclose(total.values, 3 * 1.0 + 1 * 2.0)


def test_synthesize_service_profile_missing_type():
    mix = ServiceMix(entries=(("a", 1), ("b", 1)))
    flat = HourlySeries(np.ones(8760), unit="kW", year=2014)
    with pytest.raises(DemandError, match="no reference profile for building type 'b'"):
        synthesize_service_profile(mix, {"a": flat})


def test_synthesize_service_profile_year_mismatch():
    mix = ServiceMix(entries=(("a", 1), ("b", 1)))
    profiles = {"a": HourlySeries(np.ones(8760), unit="kW", year=2014),
                "b": HourlySeries(np.ones(8784), unit="kW", year=2012)}
    with pytest.raises(DemandError, match="year mismatch"):
        synthesize_service_profile(mix, profiles)


def test_load_case_rejects_negative_series():
    values = np.zeros(8760)
    values[0] = -1.0
    series = HourlySeries(values, unit="kW", year=2014)
    with pytest.raises(DemandError):
        LoadCase(kind=MIXED, series=series, annual_energy=series.total())


def test_load_case_rejects_unknown_kind():
    series = HourlySeries(np.ones(8760), unit="kW", year=2014)
    message = "kind must be one of ('residential-only', 'mixed'), got 'industrial'"
    with pytest.raises(DemandError, match=f"^{re.escape(message)}$"):
        LoadCase(kind="industrial", series=series, annual_energy=series.total())


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=0.1, max_value=100.0))
def test_phi_homogeneity(mixed_annual, household_annual):
    phi = compute_phi(mixed_annual, household_annual)
    assert phi == pytest.approx(mixed_annual / household_annual, rel=1e-12)
    assert compute_phi(2 * mixed_annual, 2 * household_annual) == pytest.approx(phi, rel=1e-12)


def test_equal_energy_identity(household_series, service_series):
    residential, mixed, _ = build_load_cases(household_series, service_series)
    # phi is defined exactly so the two cases integrate to the same energy
    assert residential.series.total() == pytest.approx(mixed.series.total(), rel=1e-12)
