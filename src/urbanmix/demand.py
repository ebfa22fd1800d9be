"""Load cases: residential-only (phi-scaled household) and mixed (household + service)."""

from __future__ import annotations

import numpy as np

from .ingest import HourlySeries, ValidationError


class DemandError(ValidationError):
    pass


RESIDENTIAL_ONLY = "residential-only"
MIXED = "mixed"


def synthesize_service_profile(mix: dict, reference_profiles) -> HourlySeries:
    """Weighted sum of per-type reference profiles, weights = the mix's
    {building type: count}.

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


def build_load_cases(h: HourlySeries,
                     s: HourlySeries) -> tuple[HourlySeries, HourlySeries, float]:
    """(residential-only, mixed, phi) from the household and service series.

    The mixed case is h + s; the residential-only case is phi · h, with phi
    chosen so that the two cases carry the same annual energy.
    """
    if h.year != s.year:
        raise DemandError(f"year mismatch: household {h.year} vs service {s.year}")
    for name, series in (("household", h), ("service", s)):
        if np.any(series.values < 0):
            raise DemandError(f"{name} load must be non-negative")
    household_annual = h.total()
    if household_annual <= 0:
        raise DemandError(f"household annual energy must be positive, got {household_annual}")
    mixed = h.with_values(h.values + s.values)
    phi = mixed.total() / household_annual
    return h.with_values(phi * h.values), mixed, phi
