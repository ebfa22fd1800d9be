import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanmix.demand import DemandError, build_load_cases, synthesize_service_profile


def flat(annual_kwh):
    """A constant kW series of 2014's 8760 hours with the given annual energy."""
    return np.full(8760, annual_kwh / 8760)


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
    assert residential.sum() == pytest.approx(mixed.sum(), rel=1e-12)
    assert phi == pytest.approx(
        (household_series.sum() + service_series.sum()) / household_series.sum(),
        rel=1e-12)


def test_residential_case_scales_household(household_series, service_series):
    residential, _, phi = build_load_cases(household_series, service_series)
    assert np.array_equal(residential, household_series * phi)


def test_mixed_case_adds_pointwise(household_series, service_series):
    _, mixed, phi = build_load_cases(household_series, service_series)
    assert np.array_equal(mixed, household_series + service_series)
    assert phi == float(mixed.sum()) / float(household_series.sum())


def test_synthesize_service_profile_weights_by_count(calendar2014):
    mix = {"a": 3, "b": 1}
    total = synthesize_service_profile(mix, {"a": np.ones(8760), "b": np.full(8760, 2.0)})
    assert np.allclose(total, 3 * 1.0 + 1 * 2.0)


def test_synthesize_service_profile_missing_type():
    mix = {"a": 1, "b": 1}
    with pytest.raises(DemandError, match="no reference profile for building type 'b'"):
        synthesize_service_profile(mix, {"a": np.ones(8760)})


def test_load_case_rejects_negative_series(household_series, service_series):
    # build_load_cases checks both inputs; the readers reject a negative cell first
    values = np.zeros(8760)
    values[0] = -1.0
    with pytest.raises(DemandError, match="^household load must be non-negative$"):
        build_load_cases(values, service_series)
    with pytest.raises(DemandError, match="^service load must be non-negative$"):
        build_load_cases(household_series, values)


@pytest.mark.parametrize("household, service, case", [
    # finite loads whose hourly sum, or whose annual energy, leaves the float range
    (np.full(8760, 1e308), np.full(8760, 1e308), "mixed"),
    (flat(1.0), np.full(8760, 1e308), "residential-only"),
    (np.full(8760, np.inf), flat(1.0), "mixed"),
    (np.full(8760, np.nan), flat(1.0), "mixed"),
])
def test_load_cases_reject_non_finite_loads(household, service, case):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DemandError, match=f"^{case} load must be finite$"):
        build_load_cases(household, service)


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
    assert residential.sum() == pytest.approx(mixed.sum(), rel=1e-12)
