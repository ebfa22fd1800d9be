import numpy as np
import pytest

from urbanmix.config import DEFAULT_BENCHMARKS
from urbanmix.scaling import HOUSEHOLDS_PER_100K
from urbanmix.validation import national_total_check, reconcile_published, render_reconciliation


@pytest.fixture(scope="module")
def report(fixture_nl):
    return reconcile_published(fixture_nl)


def test_reconciliation_covers_everything(report, fixture_nl):
    assert len(report.rows) == 13
    assert len(report.band_rows) == 5
    names = [row.building_type for row in report.rows]
    assert names == [spec.name for spec in fixture_nl.specs]


def test_flagged_inconsistencies_match_fixture(report, fixture_nl):
    assert set(report.inconsistencies) == set(fixture_nl.documented_inconsistencies)
    assert len(report.inconsistencies) == 4


def test_medium_office_row(report):
    row = next(r for r in report.rows if r.building_type == "medium-office")
    assert row.verdict == "inconsistent"
    assert row.published_national == 3569
    assert row.recomputed_national == 3621
    assert row.national_delta == 52
    assert row.published_per_100k == 47
    assert row.recomputed_per_100k == 48
    assert "per-100k" in row.detail


def test_warehouse_row(report):
    row = next(r for r in report.rows if r.building_type == "warehouse")
    assert row.verdict == "inconsistent"
    assert row.published_national == 12397
    assert row.recomputed_national == 12413
    assert row.published_per_100k == 163
    assert row.recomputed_per_100k == 164


def test_quick_service_restaurant_row(report):
    row = next(r for r in report.rows if r.building_type == "quick-service-restaurant")
    assert row.verdict == "inconsistent"
    assert row.published_per_100k == 189
    assert row.alt_published_per_100k == 190
    assert "disagree" in row.detail


def test_consistent_rows_are_clean(report):
    clean = {"hospital", "large-hotel", "small-hotel", "large-office",
             "small-office", "primary-school", "secondary-school",
             "stand-alone-retail", "supermarket", "full-service-restaurant"}
    for row in report.rows:
        if row.building_type in clean:
            assert row.verdict == "match"
            assert row.detail == ""
            assert abs(row.national_delta) <= 1


def test_office_band_rows(report):
    labels = [b.band for b in report.band_rows]
    assert labels == ["500-1000 m2", "1000-2500 m2", "2500-5000 m2",
                      "5000-10000 m2", "10000-open m2"]
    open_band = report.band_rows[-1]
    assert open_band.verdict == "inconsistent"
    assert open_band.published_count == 2048
    assert open_band.recomputed_count == 2084
    assert open_band.delta == 36
    for band in report.band_rows[:-1]:
        assert band.verdict == "match"
        assert band.delta == 0


def test_breakdown_note_present(report):
    assert any("quick-service-restaurant" in note and "13861" in note
               for note in report.notes)


def test_render_reconciliation_text(report):
    text = render_reconciliation(report)
    assert "building type reconciliation" in text
    assert "office band reconciliation" in text
    assert "4 inconsistencies flagged" in text
    for name in ("medium-office", "quick-service-restaurant", "warehouse"):
        assert name in text
    assert "note: quick-service-restaurant" in text


def test_national_check_skipped_for_synthetic():
    series = np.ones(8760)
    out = national_total_check(series, HOUSEHOLDS_PER_100K, DEFAULT_BENCHMARKS, real_inputs=False)
    assert out.skipped
    assert out.modeled_twh is None
    assert out.reason == "fixture-only, check skipped"


def test_national_check_scales_per_100k_total():
    # a flat 40 MW per-100k profile carries 350.4 GWh; nationally x75.9
    series = np.full(8760, 40_000.0)
    out = national_total_check(series, 75.9, DEFAULT_BENCHMARKS, real_inputs=True)
    assert not out.skipped
    expected_twh = 40_000.0 * 8760 * 75.9 / 1e9
    assert out.modeled_twh == pytest.approx(expected_twh, rel=1e-12)
    assert out.ratios["PBL"] == pytest.approx(expected_twh / 33.6, rel=1e-12)
    assert out.ratios["CBS"] == pytest.approx(expected_twh / 30.6, rel=1e-12)


def test_national_check_linear_in_profile():
    base = np.full(8760, 10_000.0)
    double = np.full(8760, 20_000.0)
    a = national_total_check(base, HOUSEHOLDS_PER_100K, DEFAULT_BENCHMARKS, real_inputs=True)
    b = national_total_check(double, HOUSEHOLDS_PER_100K, DEFAULT_BENCHMARKS, real_inputs=True)
    assert b.modeled_twh == pytest.approx(2.0 * a.modeled_twh, rel=1e-12)


def test_default_benchmarks():
    names = {b.name: b.twh for b in DEFAULT_BENCHMARKS}
    assert names == {"PBL": 33.6, "CBS": 30.6}
