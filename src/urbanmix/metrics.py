"""Renewable-integration metrics: the one mismatch kernel.

Generation G is split against load L hour by hour: mismatch M = G − L into
M⁺ = max(M, 0) and M⁻ = min(M, 0), and utilisation U = min(G, L). Per year
each term is summed (M⁻ kept signed, ≤ 0, so that pos + neg = ΣG − ΣL
holds) next to ΣG, and self-consumption is ΣU/ΣG. Since U = G − M⁺ and
M⁺ + M⁻ = G − L in every hour, the year's M⁻ and U also follow from ΣM⁺, ΣG
and ΣL: M⁻ = ΣG − ΣL − M⁺ and U = ΣG − M⁺. G may carry a leading scenario
axis, one row per scenario, against a single load series. The load-case
difference identity ΔM is provided as well.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ingest import ValidationError


class MetricsError(ValidationError):
    pass


class AggregateMetrics(NamedTuple):
    """Annual sums: floats for one scenario, arrays over a scenario axis."""
    pos_mismatch: float
    neg_mismatch: float     # signed, <= 0
    utilisation: float
    generation: float       # ΣG

    @property
    def self_consumption(self) -> float | None:
        """ΣU/ΣG of one scenario; None when there is no generation."""
        if self.generation > 0:
            return self.utilisation / self.generation
        return None


class HourlySplit(NamedTuple):
    """Hourly terms of generation G against load L, in MW."""
    generation: np.ndarray     # G
    positive: np.ndarray       # M⁺ = max(G − L, 0)
    negative: np.ndarray       # M⁻ = min(G − L, 0), ≤ 0
    utilisation: np.ndarray    # U = min(G, L)

    @property
    def mismatch(self) -> np.ndarray:
        """M = G − L, rebuilt exactly: M⁺ or M⁻ is zero in every hour."""
        return self.positive + self.negative

    def self_consumption(self) -> np.ndarray:
        """U/G per hour; NaN where G = 0 (undefined)."""
        g = self.generation
        return np.divide(self.utilisation, g, out=np.full(g.shape, np.nan), where=g > 0)

    def annual(self) -> AggregateMetrics:
        sums = [a.sum(axis=-1) for a in (*self[1:], self.generation)]  # M⁺, M⁻, U, G
        return AggregateMetrics(*(map(float, sums) if self.generation.ndim == 1 else sums))


def _checked(G, L):
    g, load = np.asarray(G, dtype=float), np.asarray(L, dtype=float)
    if g.ndim not in (1, 2) or load.ndim != 1 or g.shape[-1] != len(load):
        raise MetricsError(f"length mismatch: generation {g.shape}, load {load.shape}")
    # min(initial=0) is negative exactly when some value is; empty arrays pass
    if load.min(initial=0.0) < 0 or g.min(initial=0.0) < 0:
        raise MetricsError("generation and load must be non-negative")
    return g, load


def hourly_split(G, L) -> HourlySplit:
    """Hourly M⁺, M⁻ and U of G against L; G may have a scenario axis."""
    g, load = _checked(G, L)
    m = g - load
    # M⁻ is written over M, once M⁺ is taken from it
    return HourlySplit(g, np.maximum(m, 0.0), np.minimum(m, 0.0, out=m), np.minimum(g, load))


def annual_from_surplus(G, L, generation, load) -> AggregateMetrics:
    """Annual terms from M⁺ summed over the hours given and the year's ΣG and ΣL.

    The hours left out must have no surplus (G ≤ L in each), so that they add
    nothing to M⁺; ``generation`` is ΣG per scenario row and ``load`` is ΣL.
    """
    g, hours_load = _checked(G, L)
    m = g - hours_load
    pos = np.maximum(m, 0.0, out=m).sum(axis=-1)
    sums = pos, generation - load - pos, generation - pos, generation
    return AggregateMetrics(*(map(float, sums) if g.ndim == 1 else sums))


def delta_mismatch(s, h, phi: float) -> np.ndarray:
    """Pointwise mismatch difference between load cases: s − (phi−1)·h.

    Independent of the generation series, which cancels out of M_r − M_m.
    """
    sv, hv = np.asarray(s, dtype=float), np.asarray(h, dtype=float)
    if len(sv) != len(hv):
        raise MetricsError(f"length mismatch: {sorted((len(sv), len(hv)))}")
    return sv - (phi - 1.0) * hv
