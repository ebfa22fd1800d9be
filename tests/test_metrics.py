import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urbanmix.metrics import (AggregateMetrics, MetricsError, annual_from_surplus,
                              delta_mismatch, hourly_split)


def test_mismatch_sign():
    g = np.array([5.0, 1.0, 3.0])
    load = np.array([2.0, 4.0, 3.0])
    hours = hourly_split(g, load)
    assert np.array_equal(hours.mismatch, np.array([3.0, -3.0, 0.0]))


def test_utilisation_pointwise_min():
    g = np.array([5.0, 1.0, 3.0])
    load = np.array([2.0, 4.0, 3.0])
    hours = hourly_split(g, load)
    assert np.array_equal(hours.utilisation, np.array([2.0, 1.0, 3.0]))


def test_rejects_negative_inputs():
    with pytest.raises(MetricsError, match="non-negative"):
        hourly_split(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(MetricsError, match="non-negative"):
        hourly_split(np.array([1.0]), np.array([-1.0]))


def test_rejects_length_mismatch():
    with pytest.raises(MetricsError, match="length"):
        hourly_split(np.ones(3), np.ones(4))


def test_aggregate_fields():
    g = np.array([5.0, 1.0, 3.0])
    load = np.array([2.0, 4.0, 3.0])
    agg = hourly_split(g, load).annual()
    assert isinstance(agg, AggregateMetrics)
    assert agg.pos_mismatch == pytest.approx(3.0)
    assert agg.neg_mismatch == pytest.approx(-3.0)
    assert agg.utilisation == pytest.approx(6.0)
    assert agg.self_consumption == pytest.approx(6.0 / 9.0)


def test_negative_mismatch_kept_signed():
    agg = hourly_split(np.zeros(4), np.full(4, 2.5)).annual()
    assert agg.neg_mismatch == -10.0
    assert agg.pos_mismatch == 0.0


def test_self_consumption_zero_generation_is_none():
    agg = hourly_split(np.zeros(5), np.ones(5)).annual()
    assert agg.self_consumption is None


def test_hourly_self_consumption_nan_where_no_generation():
    g = np.array([4.0, 0.0, 2.0])
    load = np.array([2.0, 1.0, 3.0])
    sc = hourly_split(g, load).self_consumption()
    assert sc[0] == pytest.approx(0.5)
    assert np.isnan(sc[1])
    assert sc[2] == pytest.approx(1.0)


def test_energy_balance_random_pairs():
    # pos + neg must equal total generation minus total load
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 50))
        g = rng.uniform(0.0, 100.0, n)
        load = rng.uniform(0.0, 100.0, n)
        agg = hourly_split(g, load).annual()
        balance = float(g.sum() - load.sum())
        scale = max(abs(balance), agg.pos_mismatch, abs(agg.neg_mismatch), 1.0)
        assert abs((agg.pos_mismatch + agg.neg_mismatch) - balance) / scale < 1e-9


def test_utilisation_matches_brute_force():
    rng = np.random.default_rng(7)
    g = rng.uniform(0.0, 50.0, 2000)
    load = rng.uniform(0.0, 50.0, 2000)
    expected = sum(min(a, b) for a, b in zip(g, load))
    assert hourly_split(g, load).annual().utilisation == pytest.approx(expected, rel=1e-12)


def test_self_consumption_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = rng.uniform(0.0, 10.0, 100)
        load = rng.uniform(0.0, 10.0, 100)
        sc = hourly_split(g, load).annual().self_consumption
        assert sc is not None
        assert 0.0 <= sc <= 1.0


def test_delta_mismatch_generation_independent():
    # M_r - M_m = s - (phi - 1) h: identical under any two generation
    # profiles, and computable without one
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = 64
        # dyadic lattice values make phi*h exactly representable
        h = rng.integers(1, 2 ** 20, n).astype(float) / 1024.0
        s = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
        phi = float(rng.integers(1024, 4096)) / 1024.0
        g1 = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
        g2 = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
        direct = delta_mismatch(s, h, phi)
        via_g1 = hourly_split(g1, phi * h).mismatch - hourly_split(g1, h + s).mismatch
        via_g2 = hourly_split(g2, phi * h).mismatch - hourly_split(g2, h + s).mismatch
        assert np.array_equal(via_g1, via_g2)
        assert np.array_equal(via_g1, direct)


def test_delta_mismatch_rejects_length_mismatch():
    with pytest.raises(MetricsError, match=r"^length mismatch: \[3, 4\]$"):
        delta_mismatch(np.ones(4), np.ones(3), 2.0)


def test_delta_mismatch_zero_when_service_matches_scaled_household():
    h = np.full(24, 2.0)
    phi = 1.75
    s = (phi - 1.0) * h
    assert np.array_equal(delta_mismatch(s, h, phi), np.zeros(24))


def test_delta_utilisation():
    g = np.array([5.0, 1.0, 3.0])
    l_r = np.array([2.0, 4.0, 3.0])
    l_m = np.array([3.0, 2.0, 3.0])
    expected = (2.0 + 1.0 + 3.0) - (3.0 + 1.0 + 3.0)
    delta = hourly_split(g, l_r).annual().utilisation - hourly_split(g, l_m).annual().utilisation
    assert delta == pytest.approx(expected)


@settings(max_examples=100)
@given(hnp.arrays(np.float64, 24, elements=st.floats(0, 1e6)),
       hnp.arrays(np.float64, 24, elements=st.floats(0, 1e6)))
def test_split_reconstructs_mismatch(g, load):
    agg = hourly_split(g, load).annual()
    m = hourly_split(g, load).mismatch
    assert agg.pos_mismatch == float(np.maximum(m, 0.0).sum())
    assert agg.neg_mismatch == float(np.minimum(m, 0.0).sum())


@settings(max_examples=100)
@given(hnp.arrays(np.float64, 24, elements=st.floats(0, 1e6)),
       hnp.arrays(np.float64, 24, elements=st.floats(0, 1e6)))
def test_utilisation_bounded_by_both(g, load):
    u = hourly_split(g, load).utilisation
    assert (u <= g).all()
    assert (u <= load).all()
    assert (u >= 0.0).all()


def test_batched_generation_needs_matching_hours():
    with pytest.raises(MetricsError, match="length"):
        hourly_split(np.ones((3, 4)), np.ones(5)).annual()
    with pytest.raises(MetricsError, match="non-negative"):
        hourly_split(np.array([[1.0, 2.0], [0.5, -0.1]]), np.ones(2)).annual()


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_kernel_rows_match_single_scenario(data):
    # The GA scores a population as one (k, n) batch, while the sweep and
    # the reported objective evaluate one scenario at a time: row i of the
    # batch must be the single-scenario result on row i, bit for bit.
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(1, 64), label="n")
    g = data.draw(hnp.arrays(np.float64, (k, n), elements=st.floats(0, 1e6)), label="G")
    load = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0, 1e6)), label="L")
    batch = hourly_split(g, load).annual()
    batch_split = hourly_split(g, load)
    for i in range(k):
        single = hourly_split(g[i], load).annual()
        for field in ("pos_mismatch", "neg_mismatch", "utilisation", "generation"):
            assert _bits(getattr(batch, field)[i]) == _bits(getattr(single, field))
        row_split = hourly_split(g[i], load)
        for got, want in zip(batch_split, row_split):
            assert np.array_equal(got[i], want)
        assert row_split.annual() == single

        total_g, total_l = float(g[i].sum()), float(load.sum())
        assert single.pos_mismatch >= 0.0
        assert single.neg_mismatch <= 0.0
        scale = max(total_g, total_l, 1.0)
        balance = single.pos_mismatch + single.neg_mismatch - (total_g - total_l)
        assert abs(balance) <= 1e-9 * scale
        assert 0.0 <= single.utilisation <= min(total_g, total_l)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_annual_is_the_sum_of_each_hourly_term(data):
    # bit for bit the plain numpy sums of M⁺, M⁻, U and G, for one scenario
    # and for a scenario axis, with hours of no generation and G == L drawn
    n = data.draw(st.integers(1, 64), label="n")
    shape = data.draw(st.sampled_from([(n,), (data.draw(st.integers(1, 4)), n)]),
                      label="shape")
    load = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0, 1e6)), label="L")
    free = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1e6)), label="G")
    kind = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 2)), label="kind")
    g = np.where(kind == 0, 0.0, np.where(kind == 1, load, free))
    agg = hourly_split(g, load).annual()
    terms = (np.maximum(g - load, 0.0), np.minimum(g - load, 0.0), np.minimum(g, load), g)
    for got, term in zip(agg, terms):
        expected = np.sum(term, axis=-1)
        if g.ndim == 1:
            assert type(got) is float
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_annual_from_surplus_over_all_hours_is_split_annual(data):
    # the identity M⁻ = ΣG − ΣL − M⁺, U = ΣG − M⁺; with G ≡ 0 or G ≤ L in
    # every hour, M⁺ is exactly 0
    n = data.draw(st.integers(1, 64), label="n")
    shape = data.draw(st.sampled_from([(n,), (data.draw(st.integers(1, 4)), n)]),
                      label="shape")
    load = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0, 1e6)), label="L")
    free = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1e6)), label="G")
    g = data.draw(st.sampled_from([free, np.zeros(shape), np.minimum(free, load)]),
                  label="case")
    want = hourly_split(g, load).annual()
    got = annual_from_surplus(g, load, g.sum(axis=-1), load.sum())
    bound = 1e-12 * (g.sum(axis=-1) + load.sum())
    for got_term, want_term in zip(got, want):
        if g.ndim == 1:
            assert type(got_term) is float
        assert (np.abs(np.subtract(got_term, want_term)) <= bound).all()
    if (g <= load).all():
        assert (np.asarray(got.pos_mismatch) == 0.0).all()


def test_annual_from_surplus_checks_the_hours():
    with pytest.raises(MetricsError, match="length"):
        annual_from_surplus(np.ones((2, 3)), np.ones(4), np.ones(2), 4.0)
    with pytest.raises(MetricsError, match="non-negative"):
        annual_from_surplus(np.array([1.0, -1.0]), np.ones(2), 0.0, 2.0)
