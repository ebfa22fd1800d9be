"""Reference-building scaling.

Converts local building-use statistics (bed counts, floor areas, employee
numbers, ...) into reference-building equivalents via the ratio
f = x_local / x_reference, then into a per-100 000-household service mix.

Each building type is described declaratively by a BuildingScalingSpec so
new regions can be supported by supplying a new spec file. The shipped
Dutch 2014 fixture pins the published intermediate values alongside the
raw inputs; recomputation from the raw inputs is kept separate so the two
can be reconciled (see the validation module).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, NamedTuple

from .ingest import ValidationError, checked_record

HOUSEHOLDS_PER_100K = 75.9

METHODS = (
    "count-ratio",
    "total-area",
    "office-bands",
    "warehouse-energy-employees",
    "direct-count",
)

# required input names per method: (local keys, reference keys)
_METHOD_INPUTS = {
    "count-ratio": (("count", "quantity"), ("quantity",)),
    "total-area": (("total",), ("per_building",)),
    "office-bands": (("band_area_m2",), ("floor_area_m2",)),
    "warehouse-energy-employees": (
        ("sector_consumption_mwh", "employees"),
        ("building_consumption_mwh", "employees"),
    ),
    "direct-count": (("count",), ()),
}


class ScalingError(ValidationError):
    """Raised for invalid scaling specs or inputs."""


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def count_ratio_equivalents(local_count: float, x_i: float, x_r: float) -> float:
    """Equivalents for a counted building stock: local_count × (x_i / x_r)."""
    if x_r <= 0:
        raise ScalingError(f"reference quantity must be positive, got {x_r}")
    return local_count * (x_i / x_r)


def area_equivalents(total_local_area: float, reference_area: float) -> float:
    """Equivalents from a total quantity divided by the per-building quantity.

    Floor area is the usual quantity; any total/per-building pair in
    identical units works (e.g. hotel rooms).
    """
    if reference_area <= 0:
        raise ScalingError(f"reference area must be positive, got {reference_area}")
    return total_local_area / reference_area


def warehouse_equivalents(sector_consumption: float, per_building: float,
                          employees_local: float, employees_ref: float) -> float:
    """Equivalents from sector energy use apportioned by employee counts."""
    if per_building <= 0 or employees_ref <= 0:
        raise ScalingError("per-building consumption and reference employees must be positive")
    if sector_consumption <= 0 or employees_local <= 0:
        raise ScalingError("sector consumption and local employees must be positive")
    return (sector_consumption / per_building) * (employees_local / employees_ref)


def per_100k(national_equivalents: float,
             households_per_100k: float = HOUSEHOLDS_PER_100K) -> int:
    """National equivalents scaled to one 100 000-household urban area."""
    if national_equivalents < 0:
        raise ScalingError(f"equivalents must be non-negative, got {national_equivalents}")
    return round_half_away(national_equivalents / households_per_100k)


class OfficeBand(checked_record(ScalingError,
                               ("min_m2", float, None),
                               ("max_m2", float | None, None),  # None: the open-ended top band
                               ("share_pct", float, None),
                               # midpoint unless given (the top band must give it)
                               ("avg_m2", float | None, None, None),
                               ("published_count", int | None, None, None),
                               ("published_area_m2", float | None, None, None))):
    """One floor-area band of the office stock distribution."""

    __slots__ = ()

    def average_area(self) -> float:
        if self.avg_m2 is not None:
            return self.avg_m2
        if self.max_m2 is None:
            raise ScalingError(
                f"open-ended band starting at {self.min_m2} m² needs an explicit average area"
            )
        return (self.min_m2 + self.max_m2) / 2.0


class OfficeBandResult(NamedTuple):
    band: OfficeBand
    count_raw: float
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
    share_sum = sum(b.share_pct for b in bands)
    if abs(share_sum - 100.0) > 0.1:
        raise ScalingError(f"band shares must sum to 100 ± 0.1, got {share_sum}")
    if total_used_area <= 0:
        raise ScalingError(f"total used area must be positive, got {total_used_area}")
    weighted_avg = sum((b.share_pct / 100.0) * b.average_area() for b in bands)
    n_total = total_used_area / weighted_avg
    results = []
    for band in bands:
        raw = (band.share_pct / 100.0) * n_total
        results.append(OfficeBandResult(
            band=band,
            count_raw=raw,
            count=round_half_away(raw),
            area_m2=raw * band.average_area(),
        ))
    return results


class BuildingScalingSpec(checked_record(ScalingError,
                                        ("name", str, None),
                                        ("method", str, None),
                                        ("local_inputs", Mapping, None),
                                        ("reference_inputs", Mapping, None),
                                        ("roof_area_m2", float, None),
                                        ("quantity", str, None, ""),
                                        ("published_national", int | None, None, None),
                                        ("published_per_100k", int | None, None, None),
                                        ("alt_published_per_100k", int | None, None, None),
                                        ("breakdown", Mapping | None, None, None),
                                        ("notes", str, None, ""))):
    """Declarative scaling recipe for one service-sector consumer type.

    ``published_national`` and ``published_per_100k`` pin the published
    intermediate values for the shipped fixture; ``alt_published_per_100k``
    records a second published per-100k figure where the source prints two
    conflicting ones. ``breakdown`` optionally carries component counts
    behind a direct-count total, for provenance.
    """

    __slots__ = ()

    def _rules(self):
        if self.method not in METHODS:
            raise ScalingError(f"unknown method {self.method!r} for {self.name}")
        local_keys, ref_keys = _METHOD_INPUTS[self.method]
        for key in local_keys:
            if key not in self.local_inputs:
                raise ScalingError(f"{self.name}: missing local input {key!r}")
            if not self.local_inputs[key] > 0:
                raise ScalingError(f"{self.name}: local input {key!r} must be positive")
        for key in ref_keys:
            if key not in self.reference_inputs:
                raise ScalingError(f"{self.name}: missing reference input {key!r}")
            if not self.reference_inputs[key] > 0:
                raise ScalingError(f"{self.name}: reference input {key!r} must be positive")
        if self.roof_area_m2 <= 0:
            raise ScalingError(f"{self.name}: roof area must be positive")


def recomputed_national(spec: BuildingScalingSpec) -> float:
    """Unrounded national equivalents recomputed from the spec's raw inputs."""
    loc, ref = spec.local_inputs, spec.reference_inputs
    if spec.method == "count-ratio":
        return count_ratio_equivalents(loc["count"], loc["quantity"], ref["quantity"])
    if spec.method == "total-area":
        return area_equivalents(loc["total"], ref["per_building"])
    if spec.method == "office-bands":
        return area_equivalents(loc["band_area_m2"], ref["floor_area_m2"])
    if spec.method == "warehouse-energy-employees":
        return warehouse_equivalents(
            loc["sector_consumption_mwh"], ref["building_consumption_mwh"],
            loc["employees"], ref["employees"],
        )
    if spec.method == "direct-count":
        return float(loc["count"])
    raise ScalingError(f"unknown method {spec.method!r}")


def national_count(spec: BuildingScalingSpec, use_published: bool = True) -> int:
    if use_published and spec.published_national is not None:
        return spec.published_national
    return round_half_away(recomputed_national(spec))


class ServiceMix(checked_record(ScalingError, ("entries", tuple, None))):
    """Per-100 000-household reference-building counts, in spec order:
    ``entries`` holds (name, count) pairs."""

    __slots__ = ()

    def _rules(self):
        for name, count in self.entries:
            if count < 0:
                raise ScalingError(f"{name}: negative count {count}")

    def count(self, name: str) -> int:
        for entry_name, count in self.entries:
            if entry_name == name:
                return count
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.entries)

    def items(self):
        return iter(self.entries)


def build_service_mix(specs, use_published: bool = True,
                      households_per_100k: float = HOUSEHOLDS_PER_100K) -> ServiceMix:
    """Apply each spec's method and the per-100k step to get the mix."""
    entries = []
    for spec in specs:
        national = national_count(spec, use_published=use_published)
        entries.append((spec.name, per_100k(national, households_per_100k)))
    return ServiceMix(entries=tuple(entries))


class ScalingFixture(checked_record(ScalingError,
                                   ("name", str, None),
                                   ("households_per_100k", float, None),
                                   ("specs", tuple, None),  # of BuildingScalingSpec
                                   ("office_bands", tuple, None, ()),  # of OfficeBand
                                   ("office_total_used_area_m2", float | None, None, None),
                                   ("documented_inconsistencies", tuple, None, ()))):
    """A full scaling dataset: building specs plus the office band table."""

    __slots__ = ()

    def spec(self, name: str) -> BuildingScalingSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise KeyError(name)

    def roof_areas(self) -> dict[str, float]:
        return {s.name: s.roof_area_m2 for s in self.specs}


def _band_from_dict(raw: Mapping) -> OfficeBand:
    return OfficeBand(
        min_m2=float(raw["min_m2"]),
        max_m2=None if raw.get("max_m2") is None else float(raw["max_m2"]),
        share_pct=float(raw["share_pct"]),
        avg_m2=None if raw.get("avg_m2") is None else float(raw["avg_m2"]),
        published_count=raw.get("published_count"),
        published_area_m2=raw.get("published_area_m2"),
    )


def _spec_from_dict(raw: Mapping) -> BuildingScalingSpec:
    try:
        return BuildingScalingSpec(
            name=raw["name"],
            method=raw["method"],
            local_inputs={k: float(v) for k, v in raw.get("local", {}).items()},
            reference_inputs={k: float(v) for k, v in raw.get("reference", {}).items()},
            roof_area_m2=float(raw["roof_area_m2"]),
            quantity=raw.get("quantity", ""),
            published_national=raw.get("published_national"),
            published_per_100k=raw.get("published_per_100k"),
            alt_published_per_100k=raw.get("alt_published_per_100k"),
            breakdown=raw.get("breakdown"),
            notes=raw.get("notes", ""),
        )
    except KeyError as exc:
        raise ScalingError(f"scaling spec missing field {exc}") from exc


def load_scaling_fixture(path) -> ScalingFixture:
    """Read a scaling fixture file (JSON)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScalingError(f"cannot read scaling fixture {path}: {exc}") from exc
    office = raw.get("office_bands", {})
    if not raw.get("buildings"):
        raise ScalingError(f"scaling fixture {path} lists no buildings")
    return ScalingFixture(
        name=raw.get("name", path.stem),
        households_per_100k=float(raw.get("households_per_100k", HOUSEHOLDS_PER_100K)),
        specs=tuple(_spec_from_dict(s) for s in raw.get("buildings", [])),
        office_bands=tuple(_band_from_dict(b) for b in office.get("bands", [])),
        office_total_used_area_m2=(
            None if office.get("total_used_area_m2") is None
            else float(office["total_used_area_m2"])
        ),
        documented_inconsistencies=tuple(raw.get("documented_inconsistencies", ())),
    )


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "scaling_nl2014.json"


def load_default_fixture() -> ScalingFixture:
    return load_scaling_fixture(default_fixture_path())
