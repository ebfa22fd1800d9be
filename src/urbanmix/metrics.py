"""Renewable-integration metrics: the one mismatch kernel.

Generation G is split against load L hour by hour: mismatch M = G − L into
M⁺ = max(M, 0) and M⁻ = min(M, 0), and utilisation U = min(G, L). Per year
each term is summed (M⁻ kept signed, ≤ 0, so that pos + neg = ΣG − ΣL
holds) next to ΣG, and self-consumption is ΣU/ΣG. G may carry a leading
scenario axis, one row per scenario, against a single load series. The
load-case difference identity ΔM is provided as well.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ingest import HourlySeries, ValidationError


class MetricsError(ValidationError):
    pass


def _values(series) -> np.ndarray:
    if isinstance(series, HourlySeries):
        return series.values
    return np.asarray(series, dtype=float)


def _check_same_length(*arrays):
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise MetricsError(f"length mismatch: {sorted(lengths)}")


def _check_same_year(*series):
    years = {s.year for s in series if isinstance(s, HourlySeries)}
    if len(years) > 1:
        raise MetricsError(f"year mismatch: {sorted(years)}")


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

    def as_row(self):
        return (self.pos_mismatch, self.neg_mismatch, self.utilisation,
                self.self_consumption)


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
        return _reduce(self[1:], self.generation)


def _checked(G, L):
    g, load = _values(G), _values(L)
    _check_same_year(G, L)
    if g.ndim not in (1, 2) or load.ndim != 1 or g.shape[-1] != len(load):
        raise MetricsError(f"length mismatch: generation {g.shape}, load {load.shape}")
    # min(initial=0) is negative exactly when some value is; empty arrays pass
    if load.min(initial=0.0) < 0 or g.min(initial=0.0) < 0:
        raise MetricsError("generation and load must be non-negative")
    return g, load


def _terms(g: np.ndarray, load: np.ndarray):
    """Yield M⁺, M⁻ and U in turn.

    M⁻ is written over M, which is not needed after it. A consumer that
    reduces each term before taking the next holds at most three arrays the
    size of G: G, M and one term.
    """
    m = g - load
    yield np.maximum(m, 0.0)
    yield np.minimum(m, 0.0, out=m)
    yield np.minimum(g, load)


def _hour_sum(a: np.ndarray):
    return a.sum(axis=-1)


def _reduce(terms, g: np.ndarray) -> AggregateMetrics:
    # map() releases each term as soon as it is summed (see _terms).
    sums = [*map(_hour_sum, terms), _hour_sum(g)]
    if g.ndim == 1:
        sums = [float(s) for s in sums]
    return AggregateMetrics(*sums)


def hourly_split(G, L) -> HourlySplit:
    """Hourly M⁺, M⁻ and U of G against L; G may have a scenario axis."""
    g, load = _checked(G, L)
    return HourlySplit(g, *_terms(g, load))


def annual_metrics(G, L) -> AggregateMetrics:
    """Annual M⁺, M⁻, U and G sums of G against L, per scenario row.

    Same numbers as ``hourly_split(G, L).annual()``, without keeping the
    hourly terms.
    """
    g, load = _checked(G, L)
    return _reduce(_terms(g, load), g)


def delta_mismatch(s, h, phi: float):
    """Pointwise mismatch difference between load cases: s − (phi−1)·h.

    Independent of the generation series, which cancels out of M_r − M_m.
    """
    sv, hv = _values(s), _values(h)
    _check_same_length(sv, hv)
    _check_same_year(s, h)
    values = sv - (phi - 1.0) * hv
    if isinstance(h, HourlySeries):
        return h.with_values(values)
    return values
