import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urbanmix.scaling import (_METHODS, METHODS, BuildingScalingSpec, OfficeBand, ScalingError,
                              ScalingFixture, national_count, office_band_counts, per_100k,
                              recomputed_national, round_half_away)
from urbanmix.validation import reconcile_published

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


# One spec per method, with inputs whose national equivalents are worked out by hand.
HAND_WORKED = {
    "count-ratio": ({"count": 10, "quantity": 6}, {"quantity": 4}, 10 * 6 / 4),
    "total-area": ({"total": 1000}, {"per_building": 8}, 125.0),
    "office-bands": ({"band_area_m2": 3000}, {"floor_area_m2": 1200}, 2.5),
    "warehouse-energy-employees": (
        {"sector_consumption_mwh": 12_000, "employees": 300},
        {"building_consumption_mwh": 240, "employees": 600}, 12_000 / 240 * (300 / 600)),
    "direct-count": ({"count": 7}, {}, 7.0),
}


def test_every_method_has_a_hand_worked_case():
    assert tuple(HAND_WORKED) == METHODS


@pytest.mark.parametrize("method", METHODS)
def test_method_formula_hand_value(method):
    local, reference, expected = HAND_WORKED[method]
    spec = BuildingScalingSpec(name="x", method=method, local=local, reference=reference,
                               roof_area_m2=1.0)
    assert recomputed_national(spec) == expected
    assert national_count(spec) == round_half_away(expected)


def test_per_100k_rounding():
    assert per_100k(263, 75.9) == 3
    assert per_100k(12903, 75.9) == 170
    assert per_100k(14372, 75.9) == 189
    assert per_100k(0, 75.9) == 0


def test_fixture_recomputed_nationals(fixture_nl):
    for spec in fixture_nl.specs:
        got = round_half_away(recomputed_national(spec))
        assert got == EXPECTED_RECOMPUTED_NATIONAL[spec.name], spec.name


def test_fixture_published_per_100k(fixture_nl):
    for spec in fixture_nl.specs:
        national = national_count(spec)
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
    # a published area is kept as the file gives it, so its table writes an int as one
    assert [type(b.published_area_m2) for b in fixture_nl.office_bands] == [int] * 5


def test_office_band_share_validation(fixture_nl):
    bands = (OfficeBand(0, 100, 60.0), OfficeBand(100, 200, 30.0))
    with pytest.raises(ScalingError, match=re.escape(
            "office_bands.bands share_pct must sum to 100 ± 0.1, got 90.0")):
        ScalingFixture(name="x", households_per_100k=75.9, specs=fixture_nl.specs,
                       office_bands=bands)
    with pytest.raises(ScalingError, match=re.escape("share_pct must be >= 0, got -5.0")):
        OfficeBand(0, 100, -5.0)


def test_open_band_requires_average():
    with pytest.raises(ScalingError, match="^avg_m2 is missing: an open-ended band"):
        OfficeBand(10_000, None, 32.0)
    assert OfficeBand(10_000, None, 32.0, avg_m2=15_000).average_area() == 15_000
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


def test_build_service_mix_recomputed_differs_for_flagged_types(fixture_nl, service_mix):
    report = reconcile_published(fixture_nl)
    recomputed = {row.building_type: row.recomputed_per_100k for row in report.rows}
    assert service_mix["medium-office"] == 47
    assert recomputed["medium-office"] == 48
    assert service_mix["warehouse"] == 163
    assert recomputed["warehouse"] == 164
    for name in ("hospital", "small-hotel", "supermarket", "full-service-restaurant"):
        assert service_mix[name] == recomputed[name]


def test_roof_areas_exposed(fixture_nl):
    roofs = fixture_nl.roof_areas()
    assert roofs["hospital"] == 4484.0
    assert roofs["quick-service-restaurant"] == 232.0
    assert len(roofs) == 13


@given(st.floats(min_value=0, max_value=1e7, allow_nan=False))
def test_per_100k_scaling_linearity(x):
    assert per_100k(x, households_per_100k=1.0) == round_half_away(x)


def readme_method_table() -> dict:
    """{method: (local inputs, reference inputs)} of the README's method table."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in text[text.index("| method | `local` inputs |"):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        method, *inputs = (cell.strip() for cell in line.split("|")[1:4])
        table[method.strip("`")] = tuple(
            () if cell == "none" else tuple(name.strip(" `") for name in cell.split(","))
            for cell in inputs)
    return table


def test_readme_method_table_lists_every_method_and_its_inputs():
    assert readme_method_table() == {method: row[:2] for method, row in _METHODS.items()}
