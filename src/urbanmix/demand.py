"""Load cases: residential-only (phi-scaled household) and mixed (household + service)."""

from __future__ import annotations

import numpy as np

from .ingest import HourlySeries, ValidationError, checked_record
from .scaling import ServiceMix


class DemandError(ValidationError):
    pass


RESIDENTIAL_ONLY = "residential-only"
MIXED = "mixed"


class LoadCase(checked_record(DemandError,
                             ("kind", str, None),
                             ("series", HourlySeries, None),
                             ("annual_energy", float, None),  # kWh for a kW series
                             ("phi", float | None, None, None))):  # set for residential-only
    __slots__ = ()

    def _rules(self):
        if self.kind not in (RESIDENTIAL_ONLY, MIXED):
            raise DemandError(f"unknown load case kind {self.kind!r}")
        if np.any(self.series.values < 0):
            raise DemandError("load series must be non-negative")


def synthesize_service_profile(mix: ServiceMix, reference_profiles) -> HourlySeries:
    """Weighted sum of per-type reference profiles, weights = mix counts.

    ``reference_profiles`` maps building-type name to an HourlySeries in kW
    for one reference building. All profiles must share the calendar year.
    """
    base = None
    total = None
    for name, count in mix.items():
        if name not in reference_profiles:
            raise DemandError(f"no reference profile for building type {name!r}")
        profile = reference_profiles[name]
        if base is None:
            base = profile
            total = np.zeros_like(profile.values)
        elif profile.year != base.year:
            raise DemandError(
                f"profile year mismatch: {name} has {profile.year}, expected {base.year}"
            )
        total = total + count * profile.values
    if base is None:
        raise DemandError("service mix is empty")
    return HourlySeries(values=total, unit="kW", year=base.year)


def compute_phi(mixed_annual: float, household_annual: float) -> float:
    if household_annual <= 0:
        raise DemandError(f"household annual energy must be positive, got {household_annual}")
    return mixed_annual / household_annual


def residential_case(h: HourlySeries, phi: float) -> LoadCase:
    if phi < 0:
        raise DemandError(f"phi must be non-negative, got {phi}")
    series = h.with_values(phi * h.values)
    return LoadCase(kind=RESIDENTIAL_ONLY, series=series,
                    annual_energy=series.total(), phi=phi)


def mixed_case(h: HourlySeries, s: HourlySeries) -> LoadCase:
    if h.year != s.year:
        raise DemandError(f"year mismatch: household {h.year} vs service {s.year}")
    if len(h) != len(s):
        raise DemandError(f"length mismatch: {len(h)} vs {len(s)}")
    series = h.with_values(h.values + s.values)
    return LoadCase(kind=MIXED, series=series, annual_energy=series.total())


def build_load_cases(h: HourlySeries, s: HourlySeries) -> tuple[LoadCase, LoadCase, float]:
    """Both load cases with phi chosen so annual energies match exactly."""
    mixed = mixed_case(h, s)
    phi = compute_phi(mixed.annual_energy, h.total())
    residential = residential_case(h, phi)
    return residential, mixed, phi
