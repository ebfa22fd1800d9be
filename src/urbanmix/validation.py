"""Cross-cutting fixture checks.

Two battery pieces live here: reconciliation of the published scaling
intermediates against independent recomputation from the raw inputs, and
the national service-demand total compared with external benchmark
statistics.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .scaling import (
    ScalingFixture,
    national_count,
    office_band_counts,
    per_100k,
    recomputed_national,
    round_half_away,
)

VERDICT_MATCH = "match"
VERDICT_INCONSISTENT = "inconsistent"

# published national counts within one unit of the recomputation are taken
# as rounding wobble, not real disagreement; per-100k counts must agree
# exactly since a whole building per 100k households is a material amount
NATIONAL_TOLERANCE = 1


class ReconciliationRow(NamedTuple):
    """One row of scale_reconciliation.csv, whose columns are its fields."""
    building_type: str
    published_national: int
    recomputed_national: int
    national_delta: int
    published_per_100k: int
    recomputed_per_100k: int
    alt_published_per_100k: int | None
    verdict: str
    detail: str = ""


class BandRow(NamedTuple):
    """One row of scale_office_bands.csv, whose columns are its fields."""
    band: str
    published_count: int | None
    recomputed_count: int
    delta: int | None
    published_area_m2: float | None
    recomputed_area_m2: float
    verdict: str


class ReconciliationReport(NamedTuple):
    rows: tuple[ReconciliationRow, ...]
    band_rows: tuple[BandRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def inconsistencies(self) -> list[str]:
        flagged = [row.building_type for row in self.rows if row.verdict != VERDICT_MATCH]
        flagged += [f"office band {row.band}" for row in self.band_rows
                    if row.verdict != VERDICT_MATCH]
        return flagged


def _reconcile_spec(spec, households_per_100k: float) -> ReconciliationRow:
    recomputed = round_half_away(recomputed_national(spec))
    published = national_count(spec)
    national_delta = recomputed - published
    published_100k = spec.published_per_100k
    if published_100k is None:
        published_100k = per_100k(published, households_per_100k)
    recomputed_100k = per_100k(recomputed, households_per_100k)

    problems = []
    if abs(national_delta) > NATIONAL_TOLERANCE:
        problems.append(
            f"published national count {published} vs recomputed {recomputed}"
        )
    if recomputed_100k != published_100k:
        problems.append(
            f"recomputed per-100k count {recomputed_100k} vs published {published_100k}"
        )
    if (spec.alt_published_per_100k is not None
            and spec.alt_published_per_100k != published_100k):
        problems.append(
            f"two published per-100k values disagree: {published_100k} vs "
            f"{spec.alt_published_per_100k}"
        )
    return ReconciliationRow(
        building_type=spec.name,
        published_national=published,
        recomputed_national=recomputed,
        national_delta=national_delta,
        published_per_100k=published_100k,
        recomputed_per_100k=recomputed_100k,
        alt_published_per_100k=spec.alt_published_per_100k,
        verdict=VERDICT_INCONSISTENT if problems else VERDICT_MATCH,
        detail="; ".join(problems),
    )


def reconcile_published(fixture: ScalingFixture) -> ReconciliationReport:
    """Compare every published intermediate against recomputation.

    Covers all building types plus the office band table; no silent
    omissions. Disagreements beyond rounding get an "inconsistent" verdict.
    """
    rows = tuple(_reconcile_spec(spec, fixture.households_per_100k)
                 for spec in fixture.specs)

    band_rows = []
    if fixture.office_bands and fixture.office_total_used_area_m2:
        results = office_band_counts(fixture.office_bands,
                                     fixture.office_total_used_area_m2)
        for res in results:
            band = res.band
            upper = "open" if band.max_m2 is None else f"{band.max_m2:g}"
            delta = None
            verdict = VERDICT_MATCH
            if band.published_count is not None:
                delta = res.count - band.published_count
                if delta != 0:
                    verdict = VERDICT_INCONSISTENT
            band_rows.append(BandRow(
                band=f"{band.min_m2:g}-{upper} m2",
                published_count=band.published_count,
                recomputed_count=res.count,
                delta=delta,
                published_area_m2=band.published_area_m2,
                recomputed_area_m2=res.area_m2,
                verdict=verdict,
            ))

    notes = []
    for spec in fixture.specs:
        if spec.breakdown:
            component_sum = sum(spec.breakdown.values())
            if component_sum != spec.published_national:
                notes.append(
                    f"{spec.name}: component rows sum to {component_sum} while the "
                    f"published total {spec.published_national} is used as canonical"
                )
    return ReconciliationReport(rows=rows, band_rows=tuple(band_rows),
                                notes=tuple(notes))


def render_reconciliation(report: ReconciliationReport) -> str:
    lines = ["building type reconciliation"]
    lines.append(f"{'type':<26} {'published':>10} {'recomputed':>10} "
                 f"{'per-100k':>9} {'recomp.':>8} verdict")
    for row in report.rows:
        lines.append(
            f"{row.building_type:<26} {row.published_national:>10} {row.recomputed_national:>10} "
            f"{row.published_per_100k:>9} {row.recomputed_per_100k:>8} {row.verdict}"
        )
        if row.detail:
            lines.append(f"{'':<26}   {row.detail}")
    if report.band_rows:
        lines.append("")
        lines.append("office band reconciliation")
        lines.append(f"{'band':<18} {'published':>10} {'recomputed':>10} verdict")
        for band in report.band_rows:
            pub = "-" if band.published_count is None else str(band.published_count)
            lines.append(f"{band.band:<18} {pub:>10} {band.recomputed_count:>10} "
                         f"{band.verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    flagged = report.inconsistencies
    lines.append("")
    lines.append(f"{len(flagged)} inconsistencies flagged"
                 + (": " + ", ".join(flagged) if flagged else ""))
    return "\n".join(lines)


class NationalTotalReport(NamedTuple):
    modeled_twh: float | None
    ratios: Mapping[str, float] = MappingProxyType({})
    skipped: bool = False
    reason: str = ""


def national_total_check(service_profile: np.ndarray, households_per_100k: float,
                         benchmarks, real_inputs: bool) -> NationalTotalReport:
    """National service-sector TWh implied by the per-100k profile.

    The per-100k annual energy (kWh) scales linearly to the national
    household count; ratios against the benchmark totals quantify coverage.
    Synthetic inputs make the absolute level meaningless, so the check is
    marked skipped unless the caller declares the inputs real.
    """
    if not real_inputs:
        return NationalTotalReport(
            modeled_twh=None, skipped=True,
            reason="fixture-only, check skipped",
        )
    national_kwh = float(service_profile.sum()) * households_per_100k
    modeled_twh = national_kwh / 1e9
    ratios = {b.name: modeled_twh / b.twh for b in benchmarks}
    return NationalTotalReport(modeled_twh=modeled_twh, ratios=ratios)
