import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanmix.demand import DemandError, build_load_cases, synthesize_service_profile
from urbanmix.ingest import HourlySeries, hours_in_year


def flat(annual_kwh, year=2014):
    """A constant kW series with the given annual energy."""
    n = hours_in_year(year)
    return HourlySeries(np.full(n, annual_kwh / n), unit="kW", year=year)


def test_phi_reference_value():
    _, _, phi = build_load_cases(flat(3.49982), flat(7.10481 - 3.49982))
    assert phi == pytest.approx(2.03005, abs=5e-6)


def test_phi_rejects_nonpositive_household(service_series):
    with pytest.raises(DemandError, match="household annual energy must be positive"):
        build_load_cases(flat(0.0), service_series)
    with pytest.raises(DemandError, match="household load must be non-negative"):
        build_load_cases(flat(-1.0), service_series)


def test_load_cases_share_annual_energy(household_series, service_series):
    residential, mixed, phi = build_load_cases(household_series, service_series)
    assert residential.total() == pytest.approx(mixed.total(), rel=1e-12)
    assert phi == pytest.approx(
        (household_series.total() + service_series.total()) / household_series.total(),
        rel=1e-12)


def test_residential_case_scales_household(household_series, service_series):
    residential, _, phi = build_load_cases(household_series, service_series)
    assert np.array_equal(residential.values, household_series.values * phi)
    assert (residential.unit, residential.year) == ("kW", 2014)


def test_mixed_case_adds_pointwise(household_series, service_series):
    _, mixed, phi = build_load_cases(household_series, service_series)
    assert np.array_equal(mixed.values, household_series.values + service_series.values)
    assert phi == mixed.total() / household_series.total()


def test_synthesize_service_profile_weights_by_count(calendar2014):
    flat = HourlySeries(np.ones(8760), unit="kW", year=2014)
    double = HourlySeries(np.full(8760, 2.0), unit="kW", year=2014)
    mix = {"a": 3, "b": 1}
    total = synthesize_service_profile(mix, {"a": flat, "b": double})
    assert np.allclose(total.values, 3 * 1.0 + 1 * 2.0)


def test_synthesize_service_profile_missing_type():
    mix = {"a": 1, "b": 1}
    flat = HourlySeries(np.ones(8760), unit="kW", year=2014)
    with pytest.raises(DemandError, match="no reference profile for building type 'b'"):
        synthesize_service_profile(mix, {"a": flat})


def test_synthesize_service_profile_year_mismatch():
    mix = {"a": 1, "b": 1}
    profiles = {"a": HourlySeries(np.ones(8760), unit="kW", year=2014),
                "b": HourlySeries(np.ones(8784), unit="kW", year=2012)}
    with pytest.raises(DemandError, match="year mismatch"):
        synthesize_service_profile(mix, profiles)


def test_load_case_rejects_negative_series(household_series, service_series):
    # build_load_cases checks both inputs; the readers reject a negative cell first
    values = np.zeros(8760)
    values[0] = -1.0
    negative = HourlySeries(values, unit="kW", year=2014)
    with pytest.raises(DemandError, match="^household load must be non-negative$"):
        build_load_cases(negative, service_series)
    with pytest.raises(DemandError, match="^service load must be non-negative$"):
        build_load_cases(household_series, negative)


def test_load_cases_reject_a_year_mismatch(household_series):
    with pytest.raises(DemandError, match="year mismatch: household 2014 vs service 2016"):
        build_load_cases(household_series, flat(1.0, year=2016))


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_phi_homogeneity(household_annual, service_annual):
    _, _, phi = build_load_cases(flat(household_annual), flat(service_annual))
    assert phi == pytest.approx((household_annual + service_annual) / household_annual,
                                rel=1e-12)
    _, _, doubled = build_load_cases(flat(2 * household_annual), flat(2 * service_annual))
    assert doubled == pytest.approx(phi, rel=1e-12)


def test_equal_energy_identity(household_series, service_series):
    residential, mixed, _ = build_load_cases(household_series, service_series)
    # phi is defined exactly so the two cases integrate to the same energy
    assert residential.total() == pytest.approx(mixed.total(), rel=1e-12)
