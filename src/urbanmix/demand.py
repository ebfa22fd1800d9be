"""Load cases: residential-only (phi-scaled household) and mixed (household + service)."""

from __future__ import annotations

import numpy as np

from .ingest import ValidationError, _read_only


class DemandError(ValidationError):
    pass


RESIDENTIAL_ONLY = "residential-only"
MIXED = "mixed"


def synthesize_service_profile(mix: dict, reference_profiles) -> np.ndarray:
    """Weighted sum of per-type reference profiles, weights = the mix's
    {building type: count}, as a read-only kW column.

    ``reference_profiles`` maps building-type name to the kW column of one
    reference building, one value per hour of the calendar.
    """
    total = None
    for name, count in mix.items():
        if name not in reference_profiles:
            raise DemandError(f"no reference profile for building type {name!r}")
        profile = reference_profiles[name]
        total = (np.zeros_like(profile) if total is None else total) + count * profile
    if total is None:
        raise DemandError("service mix is empty")
    return _read_only(total)


def build_load_cases(h: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(residential-only, mixed, phi) from the household and service kW
    columns; the two load cases are read-only kW columns.

    The mixed case is h + s; the residential-only case is phi · h, with phi
    chosen so that the two cases carry the same annual energy.
    """
    for name, series in (("household", h), ("service", s)):
        if np.any(series < 0):
            raise DemandError(f"{name} load must be non-negative")
    household_annual = float(h.sum())
    if household_annual <= 0:
        raise DemandError(f"household annual energy must be positive, got {household_annual}")
    mixed = h + s
    phi = float(mixed.sum()) / household_annual
    residential = phi * h
    # finite loads can still overflow here, or in the service mix's sum of profiles
    for name, series in ((MIXED, mixed), (RESIDENTIAL_ONLY, residential)):
        if not np.isfinite(series).all():
            raise DemandError(f"{name} load must be finite")
    return _read_only(residential), _read_only(mixed), phi
