import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urbanmix.stats import (UNTESTABLE, StatsError, apply_holm, student_t_two_sided_p,
                            welch_t_test)
from urbanmix.stats import TestResult as TResult

mpmath.mp.dps = 40


def mp_two_sided_p(t, dof):
    x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf("0.5"),
                                0, x, regularized=True))


def mp_two_sided_p_50(t, dof):
    """The reference p-value at 50 significant digits, as an mpf."""
    with mpmath.workdps(50):
        t, dof = mpmath.mpf(t), mpmath.mpf(dof)
        return mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, dof / (dof + t * t),
                              regularized=True)


# Largest Welch or pooled dof: two leap-year samples of 8,784 hours, minus 2.
MAX_DOF = 2 * 8784 - 2
SMALLEST_NORMAL = 2.2250738585072014e-308


def holm_oracle(p_values, alpha):
    """Literal step-down procedure on (p, index) pairs."""
    m = len(p_values)
    indexed = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    for rank, i in enumerate(indexed):
        if p_values[i] <= alpha / (m - rank):
            reject[i] = True
        else:
            break
    return reject


def holm(p_values, alpha=0.05):
    """apply_holm on a family with no untestable entry."""
    return apply_holm(p_values, np.zeros(np.shape(p_values), dtype=bool), alpha=alpha)


def test_p_value_against_high_precision_beta():
    rng = np.random.default_rng(21)
    for _ in range(100):
        t = float(rng.uniform(-6.0, 6.0))
        dof = float(rng.uniform(1.0, 400.0))
        assert student_t_two_sided_p(t, dof) == pytest.approx(
            mp_two_sided_p(t, dof), abs=1e-9)


def test_p_value_limits():
    assert student_t_two_sided_p(0.0, 10.0) == 1.0
    assert student_t_two_sided_p(math.inf, 10.0) == 0.0
    assert student_t_two_sided_p(1e6, 10.0) < 1e-12
    with pytest.raises(StatsError, match="degrees of freedom"):
        student_t_two_sided_p(1.0, 0.0)


@settings(max_examples=200, deadline=None)
@example(2.203998738969269, False, 17383.863653640612)  # largest error seen, 1.4e-12
@example(4.0e-5, True, 17516.85)  # scipy.special.betainc is off by 2.6e-8 here
@example(1e300, False, 1.0)  # t * t overflows, the Cauchy tail does not
@given(st.one_of(st.just(0.0),
                 st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL),
                 st.just(1e-200),
                 st.floats(min_value=0.0, max_value=43.0),
                 st.just(1e300)),
       st.booleans(),
       st.floats(min_value=1.0, max_value=MAX_DOF))
def test_p_value_relative_error_against_mpmath(abs_t, negative, dof):
    t = -abs_t if negative else abs_t
    got = student_t_two_sided_p(t, dof)
    want = mp_two_sided_p_50(t, dof)
    if want < SMALLEST_NORMAL:
        # the reference underflows a double: only its size can be compared
        assert 0.0 <= got <= SMALLEST_NORMAL
    else:
        assert abs(got - want) <= 1e-11 * want, (t, dof, got, want)


def test_p_value_where_t_squared_leaves_the_double_range():
    for t in (1e300, -1e300, 1.5e154):  # t * t overflows to inf
        # heavy tails are still normal doubles; lighter ones underflow to 0
        for dof in (1e-3, 1.0):
            want = mp_two_sided_p_50(t, dof)
            assert abs(student_t_two_sided_p(t, dof) - want) <= 1e-11 * want
        for dof in (7.5, float(MAX_DOF)):
            assert student_t_two_sided_p(t, dof) == 0.0
    for t in (1e-200, 5e-324, -5e-324, 1e-160):  # t * t or t * t / dof underflows
        for dof in (1.0, 7.5, float(MAX_DOF)):
            assert student_t_two_sided_p(t, dof) == 1.0
    want = mp_two_sided_p_50(1e154, 1e-3)  # only t * t / dof overflows
    assert abs(student_t_two_sided_p(1e154, 1e-3) - want) <= 1e-11 * want
    assert student_t_two_sided_p(math.inf, 1.0) == 0.0
    assert math.isnan(student_t_two_sided_p(math.nan, 3.0))
    for dof in (math.nan, math.inf, -1.0):
        with pytest.raises(StatsError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, dof)


def test_p_value_symmetric_in_t():
    assert student_t_two_sided_p(2.5, 7.0) == student_t_two_sided_p(-2.5, 7.0)


def test_welch_known_example():
    # classic unequal-variance pair; dof from Welch-Satterthwaite
    a = np.array([27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6,
                  23.1, 19.6, 19.0, 21.7, 21.4])
    b = np.array([27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
                  21.9, 22.1, 22.9, 30.5, 22.2])
    res = welch_t_test(a, b)
    sa2 = a.var(ddof=1) / len(a)
    sb2 = b.var(ddof=1) / len(b)
    t_expected = (a.mean() - b.mean()) / math.sqrt(sa2 + sb2)
    dof_expected = (sa2 + sb2) ** 2 / (sa2 ** 2 / 14 + sb2 ** 2 / 14)
    assert res.t_stat == pytest.approx(t_expected, rel=1e-12)
    assert res.dof == pytest.approx(dof_expected, rel=1e-12)
    assert res.p_value == pytest.approx(mp_two_sided_p(res.t_stat, res.dof),
                                        abs=1e-12)
    assert not res.untestable


def test_welch_equal_means_large_p():
    rng = np.random.default_rng(4)
    a = rng.normal(10.0, 1.0, 500)
    b = rng.normal(10.0, 3.0, 50)
    res = welch_t_test(a, b)
    assert res.p_value > 0.01
    assert res.dof < 548


def test_pooled_variant_uses_fixed_dof():
    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 1.0, 20)
    b = rng.normal(0.5, 2.0, 12)
    res = welch_t_test(a, b, pooled=True)
    assert res.dof == 30
    sp2 = (19 * a.var(ddof=1) + 11 * b.var(ddof=1)) / 30
    t_expected = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / 20 + 1 / 12))
    assert res.t_stat == pytest.approx(t_expected, rel=1e-12)


def test_untestable_small_samples():
    assert welch_t_test(np.array([1.0]), np.array([1.0, 2.0])).untestable
    assert welch_t_test(np.array([1.0, 2.0]), np.array([])).untestable
    assert welch_t_test(np.array([]), np.array([])).untestable


def test_untestable_zero_variance():
    res = welch_t_test(np.array([2.0, 2.0, 2.0]), np.array([5.0, 5.0]))
    assert res.untestable
    assert res.p_value == 1.0
    assert math.isnan(res.t_stat)


def test_constant_but_different_samples_pooled():
    res = welch_t_test(np.array([2.0, 2.0]), np.array([5.0, 5.0]), pooled=True)
    assert res.untestable


def test_rejects_multidimensional():
    with pytest.raises(StatsError, match="one-dimensional"):
        welch_t_test(np.ones((2, 2)), np.ones(4))


def reference_welch(a, b, pooled):
    """The t-test from np.mean and np.var(ddof=1), step for step."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        return UNTESTABLE
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    diff = float(np.mean(a) - np.mean(b))
    sa2, sb2 = var_a / na, var_b / nb
    if pooled:
        dof = na + nb - 2
        denom2 = ((na - 1) * var_a + (nb - 1) * var_b) / dof * (1.0 / na + 1.0 / nb)
    else:
        denom2 = sa2 + sb2
    if denom2 <= 0:
        return UNTESTABLE
    if not pooled:
        try:
            dof = denom2 ** 2 / (sa2 ** 2 / (na - 1) + sb2 ** 2 / (nb - 1))
        except (OverflowError, ZeroDivisionError):
            ra, rb = sa2 / denom2, sb2 / denom2
            dof = 1.0 / (ra ** 2 / (na - 1) + rb ** 2 / (nb - 1))
    t = diff / math.sqrt(denom2)
    return TResult(t, float(dof), student_t_two_sided_p(t, float(dof)))


def bits(result):
    return (result.t_stat.hex(), result.dof.hex(), result.p_value.hex(),
            result.untestable)


@st.composite
def samples(draw):
    """A 1-D sample like the sweep's: plain, clipped at zero as M+ is,
    constant, or a boolean-masked or strided slice of a longer series."""
    n = draw(st.integers(min_value=2, max_value=9000))
    kind = draw(st.sampled_from(("normal", "clipped", "constant", "masked", "strided")))
    loc = draw(st.floats(min_value=-1e3, max_value=1e3))
    scale = draw(st.floats(min_value=1e-6, max_value=1e3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if kind == "constant":
        return np.full(n, loc)
    if kind == "masked":
        series = rng.normal(loc, scale, 2 * n)
        return series[series > loc]
    if kind == "strided":
        return rng.normal(loc, scale, 2 * n)[::2]
    x = rng.normal(loc, scale, n)
    return np.maximum(x, 0.0) if kind == "clipped" else x


@settings(max_examples=60, deadline=None)
@example(np.arange(2.0), np.arange(9000.0), False)
@example(np.full(3, 2.0), np.full(5, 2.0), True)
@example(np.zeros(2), np.full(10, 1.63685356e-119), False)
@given(samples(), samples(), st.booleans())
def test_welch_bit_equal_to_mean_var_formula(a, b, pooled):
    assert bits(welch_t_test(a, b, pooled=pooled)) == bits(reference_welch(a, b, pooled))


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_welch_dof_where_its_squares_leave_the_double_range(scale):
    # the variance squares underflow to 0 or overflow; t and dof are scale-free
    rng = np.random.default_rng(3)
    a, b = rng.normal(0.0, 1.0, 40), rng.normal(0.5, 2.0, 60)
    plain, scaled = welch_t_test(a, b), welch_t_test(a * scale, b * scale)
    assert scaled.dof == pytest.approx(plain.dof, rel=1e-12)
    assert scaled.t_stat == pytest.approx(plain.t_stat, rel=1e-12)
    assert scaled.p_value == pytest.approx(plain.p_value, rel=1e-9)


def test_holm_worked_example():
    # alpha=0.05, m=3: thresholds 0.05/3, 0.05/2, 0.05/1 -> all reject
    flags = holm([0.01, 0.02, 0.04], alpha=0.05)
    assert flags.tolist() == [True, True, True]


def test_holm_stops_at_first_failure():
    # 0.03 > 0.05/2 stops the walk, so the later 0.04 stays accepted
    flags = holm([0.01, 0.03, 0.04], alpha=0.05)
    assert flags.tolist() == [True, False, False]


def test_holm_none_reject():
    flags = holm([0.9, 0.8, 0.7], alpha=0.05)
    assert not flags.any()


def test_holm_input_order_preserved():
    flags = holm([0.04, 0.01, 0.02], alpha=0.05)
    assert flags.tolist() == [True, True, True]
    flags = holm([0.04, 0.01, 0.9], alpha=0.05)
    assert flags.tolist() == [False, True, False]


def test_holm_validation():
    with pytest.raises(StatsError, match="within"):
        holm([0.5, 1.5])
    with pytest.raises(StatsError, match="within"):
        holm([0.5, float("nan")])
    with pytest.raises(StatsError, match="one-dimensional"):
        holm(np.ones((2, 2)))


def test_holm_against_oracle_random_families():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        p = rng.uniform(0.0, 1.0, m)
        # sprinkle ties and boundary values
        if m > 3:
            p[1] = p[0]
            p[2] = 1.0
        alpha = float(rng.uniform(0.005, 0.2))
        got = holm(p, alpha=alpha).tolist()
        assert got == holm_oracle(list(p), alpha)


def test_holm_monotone_in_alpha():
    rng = np.random.default_rng(23)
    p = rng.uniform(0, 1, 50)
    loose = holm(p, alpha=0.2)
    tight = holm(p, alpha=0.01)
    assert (tight <= loose).all()


def test_apply_holm_counts_untestable_as_one():
    nan = float("nan")
    flags = apply_holm([1e-6, nan, 1e-4], [False, True, False], alpha=0.05)
    assert flags.tolist() == [True, False, True]
    # thresholds divide by the full family size including untestable entries
    assert apply_holm([0.03, 1.0], [False, True], alpha=0.05).tolist() == [False, False]
    # an untestable entry's p-value is ignored, even a small one
    assert apply_holm([0.001, 0.01], [True, False], alpha=0.05).tolist() == [False, True]


def test_apply_holm_checks_its_columns():
    with pytest.raises(StatsError, match="untestable flags of shape"):
        apply_holm([0.1, 0.2], [False])
    with pytest.raises(StatsError, match="within"):
        apply_holm([0.1, -0.2], [False, False])
    assert apply_holm([], []).tolist() == []


def test_apply_holm_family_of_121():
    rng = np.random.default_rng(31)
    p = rng.uniform(0, 1, 121)
    assert holm(p, alpha=0.05).tolist() == holm_oracle(p.tolist(), 0.05)


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=30),
       st.floats(min_value=0.001, max_value=0.5))
def test_holm_matches_oracle_property(p, alpha):
    got = holm(p, alpha=alpha).tolist()
    assert got == holm_oracle(p, alpha)


@settings(max_examples=200)
@given(st.lists(st.one_of(
           st.tuples(st.floats(min_value=0.0, max_value=1.0), st.just(False)),
           # an untestable entry's p-value is ignored, NaN included
           st.tuples(st.floats(min_value=0.0, max_value=1.0) | st.just(float("nan")),
                     st.just(True))), max_size=30),
       st.floats(min_value=0.001, max_value=0.5))
@example([], 0.05)
@example([(0.001, True), (float("nan"), True), (0.5, True)], 0.05)
@example([(0.01, False), (0.0, True), (0.02, False)], 0.05)
def test_apply_holm_is_oracle_with_untestable_as_one(family, alpha):
    p = [value for value, _ in family]
    untestable = [flag for _, flag in family]
    got = apply_holm(p, untestable, alpha=alpha).tolist()
    assert got == holm_oracle([1.0 if u else v for v, u in family], alpha)
    assert not any(g and u for g, u in zip(got, untestable))


@settings(max_examples=60)
@given(st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.5, max_value=1000.0))
def test_p_value_in_unit_interval(t, dof):
    p = student_t_two_sided_p(t, dof)
    assert 0.0 <= p <= 1.0
