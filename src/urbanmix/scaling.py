"""Reference-building scaling.

Converts local building-use statistics (bed counts, floor areas, employee
numbers, ...) into reference-building equivalents via the ratio
f = x_local / x_reference, then into a per-100 000-household service mix.

Each building type is described declaratively by a BuildingScalingSpec so
new regions can be supported by supplying a new spec file; each method is one
row of `_METHODS`, its inputs and its formula. The shipped Dutch 2014 fixture
pins the published intermediate values alongside the raw inputs;
recomputation from the raw inputs is kept separate so the two can be
reconciled (see the validation module).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .ingest import ValidationError, _field_rows, _read_json, checked_record

HOUSEHOLDS_PER_100K = 75.9

# One row per method: (its local inputs, its reference inputs, its national
# equivalents from the spec's ``local`` and ``reference`` maps).
_METHODS = {
    "count-ratio": (("count", "quantity"), ("quantity",),
                    lambda loc, ref: loc["count"] * (loc["quantity"] / ref["quantity"])),
    "total-area": (("total",), ("per_building",),
                   lambda loc, ref: loc["total"] / ref["per_building"]),
    "office-bands": (("band_area_m2",), ("floor_area_m2",),
                     lambda loc, ref: loc["band_area_m2"] / ref["floor_area_m2"]),
    "warehouse-energy-employees": (
        ("sector_consumption_mwh", "employees"), ("building_consumption_mwh", "employees"),
        lambda loc, ref: ((loc["sector_consumption_mwh"] / ref["building_consumption_mwh"])
                          * (loc["employees"] / ref["employees"]))),
    "direct-count": (("count",), (), lambda loc, ref: float(loc["count"])),
}
METHODS = tuple(_METHODS)


class ScalingError(ValidationError):
    """Raised for invalid scaling specs or inputs."""


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def per_100k(national_equivalents: float, households_per_100k: float) -> int:
    """National equivalents scaled to one 100 000-household urban area."""
    return round_half_away(national_equivalents / households_per_100k)


class OfficeBand(checked_record(ScalingError,
                               ("min_m2", float, ">= 0"),
                               # > min_m2 (checked by _rules); None: the open-ended top band
                               ("max_m2", float | None, None),
                               ("share_pct", float, ">= 0"),
                               # midpoint unless given; an open-ended band must give it
                               ("avg_m2", float | None, "> 0", None),
                               ("published_count", int | None, ">= 0", None),
                               # an int kept as an int: scale_office_bands.csv writes it as read
                               ("published_area_m2", int | float | None, ">= 0", None))):
    """One floor-area band of the office stock distribution."""

    __slots__ = ()

    def _rules(self):
        if self.max_m2 is not None and not self.max_m2 > self.min_m2:
            raise ScalingError(f"max_m2 must be > min_m2, got {self.max_m2} <= {self.min_m2}")
        if self.max_m2 is None and self.avg_m2 is None:
            raise ScalingError("avg_m2 is missing: an open-ended band (max_m2 null) "
                               "needs its average area")

    def average_area(self) -> float:
        return self.avg_m2 if self.avg_m2 is not None else (self.min_m2 + self.max_m2) / 2.0


class OfficeBandResult(NamedTuple):
    band: OfficeBand
    count: int
    area_m2: float


def office_band_counts(bands, total_used_area: float) -> list[OfficeBandResult]:
    """Distribute a total office floor area over size bands.

    With N = total / Σ(share_j × avg_j), band j holds n_j = share_j × N
    offices occupying n_j × avg_j m². The unrounded per-band areas sum to
    the total exactly by construction.
    """
    bands = list(bands)
    if not bands:
        raise ScalingError("no office bands given")
    weighted_avg = sum((b.share_pct / 100.0) * b.average_area() for b in bands)
    # the shares sum to about 100 and each average is > 0: it is 0 only by underflow
    n_total = total_used_area / weighted_avg if weighted_avg else math.inf
    results = []
    for band in bands:
        raw = (band.share_pct / 100.0) * n_total
        if not math.isfinite(raw):
            raise ScalingError(f"office_bands.total_used_area_m2 {total_used_area!r} over the "
                               f"share-weighted average area {weighted_avg!r} gives no finite "
                               f"office count")
        results.append(OfficeBandResult(
            band=band,
            count=round_half_away(raw),
            area_m2=raw * band.average_area(),
        ))
    return results


class BuildingScalingSpec(checked_record(ScalingError,
                                        ("name", str, None),
                                        ("method", str, METHODS),
                                        ("local", dict[str, float], "> 0"),  # input name -> number
                                        ("reference", dict[str, float], "> 0"),
                                        ("roof_area_m2", float, "> 0"),
                                        ("quantity", str, None, ""),
                                        ("published_national", int | None, ">= 0", None),
                                        ("published_per_100k", int | None, ">= 0", None),
                                        ("alt_published_per_100k", int | None, ">= 0", None),
                                        ("breakdown", dict[str, int] | None, ">= 0", None),
                                        ("notes", str, None, ""))):
    """Declarative scaling recipe for one service-sector consumer type.

    ``local`` and ``reference`` hold exactly the inputs its method reads, each
    > 0. ``published_national`` and ``published_per_100k`` pin the published
    intermediate values for the shipped fixture; ``alt_published_per_100k``
    records a second published per-100k figure where the source prints two
    conflicting ones. ``breakdown`` optionally carries component counts
    behind a direct-count total, for provenance.
    """

    __slots__ = ()

    def _rules(self):
        for side, names in zip(("local", "reference"), _METHODS[self.method][:2]):
            inputs = getattr(self, side)
            for key in inputs:
                if key not in names:
                    raise ScalingError(f"{side}.{key} is not an input of the {self.method} method")
            for key in names:
                if key not in inputs:
                    raise ScalingError(f"{side}.{key} is missing")


def recomputed_national(spec: BuildingScalingSpec) -> float:
    """Unrounded national equivalents recomputed from the spec's raw inputs."""
    return _METHODS[spec.method][-1](spec.local, spec.reference)


def national_count(spec: BuildingScalingSpec) -> int:
    """The published national count where the spec gives one, else the recomputed one."""
    if spec.published_national is not None:
        return spec.published_national
    return round_half_away(recomputed_national(spec))


def build_service_mix(fixture: ScalingFixture) -> dict[str, int]:
    """{building type: per-100k reference-building count}, in spec order: each
    spec's national count, then the per-100k step."""
    return {spec.name: per_100k(national_count(spec), fixture.households_per_100k)
            for spec in fixture.specs}


class ScalingFixture(checked_record(ScalingError,
                                   ("name", str, None),
                                   ("households_per_100k", float, "> 0"),
                                   ("specs", [BuildingScalingSpec], None, ()),
                                   ("office_bands", [OfficeBand], None, ()),
                                   ("office_total_used_area_m2", float | None, "> 0", None),
                                   ("documented_inconsistencies", [str], None, ()))):
    """A full scaling dataset: building specs plus the office band table."""

    __slots__ = ()

    def _rules(self):
        if not self.specs:
            raise ScalingError("buildings must list at least one building type")
        names = [spec.name for spec in self.specs]
        for name in names:
            if names.count(name) > 1:
                raise ScalingError(f"building type {name!r} is listed twice")
        share_sum = sum(band.share_pct for band in self.office_bands)
        if self.office_bands and abs(share_sum - 100.0) > 0.1:
            raise ScalingError(f"office_bands.bands share_pct must sum to 100 ± 0.1, "
                               f"got {share_sum}")
        # the counts `build_service_mix` and the reconciliation round to integers
        if self.office_bands and self.office_total_used_area_m2:
            office_band_counts(self.office_bands, self.office_total_used_area_m2)
        for spec in self.specs:
            equivalents = recomputed_national(spec)
            if not math.isfinite(equivalents):
                raise ScalingError(f"building type {spec.name!r}: its {spec.method} national "
                                   f"equivalents must be finite, got {equivalents!r}")
            for count in (national_count(spec), round_half_away(equivalents)):
                if not count / self.households_per_100k < math.inf:
                    raise ScalingError(f"households_per_100k {self.households_per_100k!r} "
                                       f"scales the national count {count} of building type "
                                       f"{spec.name!r} past the float range")

    def roof_areas(self) -> dict[str, float]:
        return {s.name: s.roof_area_m2 for s in self.specs}


# Where each key of a scaling file sits and the ScalingFixture field it fills,
# read by `ingest._read_rows` with that field's kind and constraint.
_SCHEMA = _field_rows(ScalingFixture,
                      "name",  # default: the file's name without its suffix
                      ("description", str, None, None),  # checked, not kept
                      "households_per_100k", "documented_inconsistencies",
                      ("office_bands.total_used_area_m2", "office_total_used_area_m2"),
                      ("office_bands.bands", "office_bands"), ("buildings", "specs"))


def load_scaling_fixture(path) -> ScalingFixture:
    """Read a scaling file: a JSON object with the keys of `_SCHEMA`."""
    path = Path(path)
    fields = _read_json(path, _SCHEMA, ScalingError)
    return ScalingFixture(**{"name": path.stem, "households_per_100k": HOUSEHOLDS_PER_100K,
                             **fields})
