"""Two-sample significance testing with familywise error control.

The default t-test is Welch's (unequal variances) since category sample
sizes and variances differ widely; a pooled-variance variant is available
behind a flag. Two-sided p-values come from the regularized incomplete
beta form of the Student-t survival function, I_x(dof/2, 1/2) with
x = dof/(dof + t^2), evaluated here with the standard library only: the
continued fraction of Numerical Recipes (2nd ed.) section 6.4 by the
modified Lentz method, behind a prefactor whose log-gamma ratio avoids the
cancellation of two large lgammas (DiDonato & Morris 1992, ACM TOMS 18:360).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ingest import ValidationError


class StatsError(ValidationError):
    pass


class TestResult(NamedTuple):
    t_stat: float
    dof: float
    p_value: float
    untestable: bool = False


UNTESTABLE = TestResult(t_stat=float("nan"), dof=float("nan"), p_value=1.0,
                        untestable=True)


_LN_GAMMA_HALF = 0.5 * math.log(math.pi)
_CF_EPS = 1e-15
_CF_TINY = 1e-300
_CF_MAX_TERMS = 1000


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2], asymptotic in 1/z."""
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _lgamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a). Above a = 8 the two Stirling series
    are subtracted term by term: the plain difference of lgammas loses about
    1e-11 to cancellation near a = 8,760, a year of hourly samples."""
    if a < 8.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + _stirling_tail(a + 0.5) - _stirling_tail(a))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), modified Lentz; converges fast for
    x < (a + 1)/(a + b + 2). Step counts are floats: int-float arithmetic
    is the slower kind in this loop, and the |v| < tol guards are chained
    comparisons, which skip a call to abs."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if -_CF_TINY < d < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(_CF_MAX_TERMS):
        m += 1.0
        a2m = a + 2.0 * m
        # odd step: m (b - m) x / ((a + 2m - 1)(a + 2m))
        aa = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 + aa * d
        if -_CF_TINY < d < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if -_CF_TINY < c < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # even step: -(a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1))
        aa = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 + aa * d
        if -_CF_TINY < d < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if -_CF_TINY < c < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_CF_EPS < delta - 1.0 < _CF_EPS:
            return h
    raise StatsError(f"incomplete beta continued fraction did not converge "
                     f"(a={a!r}, b={b!r}, x={x!r})")


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for T ~ Student-t with ``dof`` degrees of freedom."""
    if not 0 < dof < math.inf:
        raise StatsError(f"degrees of freedom must be positive and finite, got {dof}")
    if math.isnan(t):
        return math.nan
    ratio = t * t / dof
    if ratio < math.inf:
        log_x = -math.log1p(ratio)
        x, y = 1.0 / (1.0 + ratio), ratio / (1.0 + ratio)
    else:
        # t^2 or t^2/dof overflows; y rounds to 1, and x can still matter
        # where dof is small (the Cauchy tail at t = 1e300 is 6.4e-301)
        log_x = math.log(dof) - 2.0 * math.log(abs(t))
        x, y = math.exp(log_x), 1.0
    if y == 0.0:
        # t^2/dof underflows (t == 0 included); any y below ~1e-33 gives p = 1
        return 1.0
    a = 0.5 * dof
    # ln[x^a y^(1/2) / B(a, 1/2)]
    front = math.exp(_lgamma_half_ratio(a) - _LN_GAMMA_HALF + a * log_x
                     + 0.5 * math.log(y))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)


def _moments(x: np.ndarray) -> tuple[float, float]:
    """Mean and ddof=1 variance of a 1-D sample of two or more values.

    The same ufunc steps as ``np.mean`` and ``np.var(ddof=1)``, so the same
    bits, with the plain sum taken once for both.
    """
    n = len(x)
    mean = float(x.sum()) / n
    d = x - mean
    np.multiply(d, d, out=d)
    return mean, float(d.sum()) / (n - 1)


def welch_t_test(a, b, pooled: bool = False) -> TestResult:
    """Two-sample t-test of mean difference.

    Returns the distinguished untestable result (p = 1) when either sample
    has fewer than two values or both samples are constant, instead of
    raising: such cases occur naturally for sparse categories.
    A sample whose variance overflows the double range raises StatsError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise StatsError("samples must be one-dimensional")
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return UNTESTABLE
    with np.errstate(over="ignore"):
        mean_a, var_a = _moments(a)
        mean_b, var_b = _moments(b)
    if var_a == math.inf or var_b == math.inf:
        raise StatsError("sample variance overflows the double range")
    diff = mean_a - mean_b
    if pooled:
        dof = na + nb - 2
        sp2 = ((na - 1) * var_a + (nb - 1) * var_b) / dof
        denom2 = sp2 * (1.0 / na + 1.0 / nb)
    else:
        sa2, sb2 = var_a / na, var_b / nb
        denom2 = sa2 + sb2
        if denom2 > 0:
            try:
                dof = denom2 ** 2 / (
                    sa2 ** 2 / (na - 1) + sb2 ** 2 / (nb - 1)
                )
            except (OverflowError, ZeroDivisionError):
                # the squares left the double range; the ratio is scale-free
                ra, rb = sa2 / denom2, sb2 / denom2
                dof = 1.0 / (ra ** 2 / (na - 1) + rb ** 2 / (nb - 1))
        else:
            dof = float("nan")
    if denom2 <= 0:
        # zero variance in both samples: no spread to test against
        return UNTESTABLE
    t = diff / math.sqrt(denom2)
    return TestResult(t_stat=t, dof=float(dof),
                      p_value=student_t_two_sided_p(t, float(dof)))


def apply_holm(p_values, untestable, alpha: float = 0.05) -> np.ndarray:
    """Step-down (Holm 1979) rejection flags of one family, in input order.

    The family is two equal-length columns: the p-values, and flags marking
    the untestable entries, which count as p = 1 whatever p-value they hold.
    Sorted ascending, p_(k) is rejected while p_(k) <= alpha/(m-k+1); the
    first failure stops the procedure.
    """
    p = np.asarray(p_values, dtype=float)
    untestable = np.asarray(untestable, dtype=bool)
    if p.ndim != 1:
        raise StatsError("p-values must be one-dimensional")
    if untestable.shape != p.shape:
        raise StatsError(f"untestable flags of shape {untestable.shape} "
                         f"for {len(p)} p-values")
    p = np.where(untestable, 1.0, p)
    if np.any(p < 0) or np.any(p > 1) or np.any(np.isnan(p)):
        raise StatsError("p-values must lie within [0, 1]")
    m = len(p)
    order = np.argsort(p, kind="stable")
    passed = p[order] <= alpha / np.arange(m, 0, -1)
    reject = np.zeros(m, dtype=bool)
    reject[order[:m if passed.all() else int(passed.argmin())]] = True
    return reject
