"""Two-sample significance testing with familywise error control.

The default t-test is Welch's (unequal variances) since category sample
sizes and variances differ widely; a pooled-variance variant is available
behind a flag. Two-sided p-values come from the regularized incomplete
beta form of the Student-t survival function. scipy is imported at the
first p-value, so commands that never test pay nothing for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class TestResult:
    t_stat: float
    dof: float
    p_value: float
    reject: bool = False
    untestable: bool = False


UNTESTABLE = TestResult(t_stat=float("nan"), dof=float("nan"), p_value=1.0,
                        untestable=True)


@cache
def _betainc():
    from scipy.special import betainc
    return betainc


def student_t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for T ~ Student-t with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise StatsError(f"degrees of freedom must be positive, got {dof}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return float(_betainc()(dof / 2.0, 0.5, x))


def welch_t_test(a, b, pooled: bool = False) -> TestResult:
    """Two-sample t-test of mean difference.

    Returns the distinguished untestable result (p = 1) when either sample
    has fewer than two values or both samples are constant, instead of
    raising: such cases occur naturally for sparse categories.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise StatsError("samples must be one-dimensional")
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return UNTESTABLE
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    diff = float(np.mean(a) - np.mean(b))
    if pooled:
        dof = na + nb - 2
        sp2 = ((na - 1) * var_a + (nb - 1) * var_b) / dof
        denom2 = sp2 * (1.0 / na + 1.0 / nb)
    else:
        sa2, sb2 = var_a / na, var_b / nb
        denom2 = sa2 + sb2
        if denom2 > 0:
            dof = denom2 ** 2 / (
                sa2 ** 2 / (na - 1) + sb2 ** 2 / (nb - 1)
            )
        else:
            dof = float("nan")
    if denom2 <= 0:
        # zero variance in both samples: no spread to test against
        return UNTESTABLE
    t = diff / math.sqrt(denom2)
    return TestResult(t_stat=t, dof=float(dof),
                      p_value=student_t_two_sided_p(t, float(dof)))


def holm_bonferroni(p_values, alpha: float = 0.05) -> np.ndarray:
    """Step-down rejection flags controlling the familywise error rate.

    Sorted ascending, p_(k) is rejected while p_(k) <= alpha/(m-k+1); the
    first failure stops the procedure. Flags are returned in input order.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise StatsError("p-values must be one-dimensional")
    if np.any(p < 0) or np.any(p > 1) or np.any(np.isnan(p)):
        raise StatsError("p-values must lie within [0, 1]")
    m = len(p)
    reject = np.zeros(m, dtype=bool)
    order = np.argsort(p, kind="stable")
    for k, idx in enumerate(order):
        if p[idx] <= alpha / (m - k):
            reject[idx] = True
        else:
            break
    return reject


def apply_holm(results, alpha: float = 0.05) -> list[TestResult]:
    """Correct a family of TestResults; untestable entries count as p = 1."""
    p = [1.0 if r.untestable else r.p_value for r in results]
    flags = holm_bonferroni(p, alpha=alpha)
    return [replace(r, reject=bool(flag)) for r, flag in zip(results, flags)]
