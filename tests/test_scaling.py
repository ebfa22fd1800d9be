import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanmix.scaling import (METHODS, BuildingScalingSpec, OfficeBand, ScalingError,
                              ScalingFixture, area_equivalents, build_service_mix,
                              count_ratio_equivalents, national_count,
                              office_band_counts, per_100k,
                              recomputed_national, round_half_away,
                              warehouse_equivalents)

EXPECTED_PER_100K = {
    "hospital": 3,
    "large-hotel": 1,
    "small-hotel": 16,
    "large-office": 9,
    "medium-office": 47,
    "small-office": 6,
    "primary-school": 32,
    "secondary-school": 9,
    "stand-alone-retail": 177,
    "supermarket": 12,
    "full-service-restaurant": 170,
    "quick-service-restaurant": 189,
    "warehouse": 163,
}

# Unrounded national recomputation from raw inputs, rounded at the national step.
EXPECTED_RECOMPUTED_NATIONAL = {
    "hospital": 263,
    "large-hotel": 69,
    "small-hotel": 1193,
    "large-office": 675,
    "medium-office": 3621,
    "small-office": 478,
    "primary-school": 2411,
    "secondary-school": 693,
    "stand-alone-retail": 13416,
    "supermarket": 904,
    "full-service-restaurant": 12903,
    "quick-service-restaurant": 14372,
    "warehouse": 12413,
}


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(-0.5) == -1
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4999) == 2
    assert round_half_away(0.0) == 0


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_round_half_away_integers_fixed(n):
    assert round_half_away(float(n)) == n
    assert round_half_away(n + 0.5) == (n + 1 if n >= 0 else n)


def test_count_ratio_equivalents():
    assert count_ratio_equivalents(134, 316, 161) == pytest.approx(263.0, abs=0.5)
    with pytest.raises(ScalingError):
        count_ratio_equivalents(10, 5, 0)


def test_area_equivalents():
    assert area_equivalents(91865, 77) == pytest.approx(1193.0, abs=0.5)
    with pytest.raises(ScalingError):
        area_equivalents(100, 0)


def test_warehouse_equivalents():
    result = warehouse_equivalents(12_000_000, 239, 82_600, 334_100)
    assert result == pytest.approx(12413, abs=1)
    with pytest.raises(ScalingError):
        warehouse_equivalents(0, 239, 82_600, 334_100)


def test_per_100k_rounding():
    assert per_100k(263) == 3
    assert per_100k(12903) == 170
    assert per_100k(14372) == 189
    assert per_100k(0) == 0
    with pytest.raises(ScalingError):
        per_100k(-1)


def test_fixture_recomputed_nationals(fixture_nl):
    for spec in fixture_nl.specs:
        got = round_half_away(recomputed_national(spec))
        assert got == EXPECTED_RECOMPUTED_NATIONAL[spec.name], spec.name


def test_fixture_published_per_100k(fixture_nl):
    for spec in fixture_nl.specs:
        national = national_count(spec, use_published=True)
        assert per_100k(national, fixture_nl.households_per_100k) \
            == EXPECTED_PER_100K[spec.name], spec.name


def test_service_mix_counts(service_mix):
    assert service_mix == EXPECTED_PER_100K
    assert sum(service_mix.values()) == 834


def test_service_mix_order_matches_fixture(fixture_nl, service_mix):
    assert list(service_mix) == [s.name for s in fixture_nl.specs]


def test_office_band_distribution(fixture_nl):
    results = office_band_counts(fixture_nl.office_bands,
                                 fixture_nl.office_total_used_area_m2)
    counts = [r.count for r in results]
    assert counts[:4] == [326, 1238, 1498, 1368]
    # the top band recomputes to 2084, not the published 2048
    assert counts[4] == 2084
    total_area = sum(r.area_m2 for r in results)
    assert total_area == pytest.approx(fixture_nl.office_total_used_area_m2, rel=1e-12)
    # unrounded counts, not rounded ones, carry the per-band areas
    assert results[0].area_m2 == pytest.approx(244249, abs=260)


def test_office_band_share_validation():
    bands = (OfficeBand(0, 100, 60.0), OfficeBand(100, 200, 30.0))
    with pytest.raises(ScalingError, match="sum to 100"):
        office_band_counts(bands, 1000.0)


def test_open_band_requires_average():
    band = OfficeBand(10_000, None, 32.0)
    with pytest.raises(ScalingError, match="average"):
        band.average_area()
    assert OfficeBand(500, 1000, 5.0).average_area() == 750.0


def test_spec_validation_errors():
    with pytest.raises(ScalingError, match=re.escape(
            f"method must be one of {METHODS}, got 'mystery'")):
        BuildingScalingSpec(name="x", method="mystery", local={}, reference={},
                            roof_area_m2=1.0)
    with pytest.raises(ScalingError, match="^local.quantity is missing$"):
        BuildingScalingSpec(name="x", method="count-ratio", local={"count": 5},
                            reference={"quantity": 2}, roof_area_m2=1.0)
    with pytest.raises(ScalingError, match=re.escape("roof_area_m2 must be > 0, got 0.0")):
        BuildingScalingSpec(name="x", method="direct-count", local={"count": 5},
                            reference={}, roof_area_m2=0.0)
    with pytest.raises(ScalingError,
                       match="^reference.quantity is not an input of the direct-count method$"):
        BuildingScalingSpec(name="x", method="direct-count", local={"count": 5},
                            reference={"quantity": 2}, roof_area_m2=1.0)
    with pytest.raises(ScalingError, match=re.escape("local.count must be > 0, got 0.0")):
        BuildingScalingSpec(name="x", method="direct-count", local={"count": 0},
                            reference={}, roof_area_m2=1.0)


def test_fixture_rejects_a_building_type_listed_twice(fixture_nl):
    # the service mix is a dict by building type, so each type is listed once
    specs = (*fixture_nl.specs, fixture_nl.specs[3])
    name = fixture_nl.specs[3].name
    with pytest.raises(ScalingError, match=f"^building type '{name}' is listed twice$"):
        ScalingFixture(name="x", households_per_100k=75.9, specs=specs)


def test_build_service_mix_recomputed_differs_for_flagged_types(fixture_nl):
    mix_pub = build_service_mix(fixture_nl.specs, use_published=True)
    mix_rec = build_service_mix(fixture_nl.specs, use_published=False)
    assert mix_pub["medium-office"] == 47
    assert mix_rec["medium-office"] == 48
    assert mix_pub["warehouse"] == 163
    assert mix_rec["warehouse"] == 164
    for name in ("hospital", "small-hotel", "supermarket", "full-service-restaurant"):
        assert mix_pub[name] == mix_rec[name]


def test_roof_areas_exposed(fixture_nl):
    roofs = fixture_nl.roof_areas()
    assert roofs["hospital"] == 4484.0
    assert roofs["quick-service-restaurant"] == 232.0
    assert len(roofs) == 13


@given(st.floats(min_value=0, max_value=1e7, allow_nan=False))
def test_per_100k_scaling_linearity(x):
    assert per_100k(x, households_per_100k=1.0) == round_half_away(x)
