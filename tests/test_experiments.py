import filecmp
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from category_oracle import decode, oracle_aggregate, oracle_counts, oracle_members
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urbanmix import experiments, tabular
from urbanmix.classify import all_category_keys
from urbanmix.demand import MIXED, RESIDENTIAL_ONLY
from urbanmix.experiments import (CATEGORY_METRICS, DELTA_METRICS, LOAD_CASES,
                                  SWEEP_TEST_METRICS, TABLE_WIDTH, ScenarioGrid,
                                  build_problem, capacity_axis, evaluate_cell,
                                  prepare, run_experiment1, run_experiment2,
                                  run_optimize, write_experiment1_tables,
                                  write_experiment2_tables)
from urbanmix.generation import capacity_coefficients, generation_mw
from urbanmix.metrics import AggregateMetrics, hourly_split
from urbanmix.stats import TestResult as TResult
from urbanmix.stats import apply_holm, welch_t_test

SUMS, TESTS, DELTAS = experiments._SUMS, experiments._TESTS, experiments._DELTAS


@pytest.fixture(scope="module")
def prep(config2014):
    return prepare(config2014)


def with_pooled(prep, pooled):
    """``prep`` under a config whose ``pooled`` flag is ``pooled``."""
    return prep._replace(config=prep.config._replace(pooled=pooled))


def components(pv_mw, wind_mw, prep):
    area, turbines = capacity_coefficients(pv_mw, wind_mw, prep.config.pv)
    pv_gen = generation_mw(area, 0, prep.pv_unit, prep.wind_unit)
    wind_gen = generation_mw(0.0, turbines, prep.pv_unit, prep.wind_unit)
    return pv_gen, wind_gen


@pytest.fixture(scope="module")
def grid(config2014):
    return run_experiment1(config2014)


@pytest.fixture(scope="module")
def exp2(config2014):
    return run_experiment2(config2014)


def holm_flags(family, alpha):
    """apply_holm's reject flags over a family of TestResults."""
    return apply_holm([r.p_value for r in family], alpha=alpha).tolist()


def test_capacity_axis_default():
    caps = capacity_axis(525.0, 11)
    assert len(caps) == 11
    assert caps[0] == 0.0
    assert caps[-1] == 525.0
    steps = np.diff(caps)
    assert steps == pytest.approx(np.full(10, 52.5))


def test_prepare_units(prep):
    assert len(prep.load_r_mw) == 8760
    # both cases carry the same annual energy by construction
    assert prep.load_r_mw.sum() == pytest.approx(prep.load_m_mw.sum(), rel=1e-9)
    # residential case is phi * household, in MW
    household_mw = prep.household / 1000.0
    assert prep.load_r_mw == pytest.approx(prep.phi * household_mw, rel=1e-12)
    assert not prep.load_r_mw.flags.writeable


def case_sums(row):
    """A table row's residential and mixed annual sums."""
    sums = list(row[SUMS])
    return AggregateMetrics(*sums[:4]), AggregateMetrics(*sums[4:])


def row_tests(row):
    """A table row's test results by metric."""
    t_dof_p = list(row[TESTS])
    return {name: TResult(*t_dof_p[3 * k:3 * k + 3]) for k, name in enumerate(SWEEP_TEST_METRICS)}


def test_grid_has_121_cells(grid):
    assert grid.table.shape == (121, TABLE_WIDTH)
    assert grid.reject.shape == (121, len(SWEEP_TEST_METRICS))
    assert grid.caps == capacity_axis(525.0, 11)
    assert grid.n_hours == 8760
    seen = set(itertools.product(grid.caps, grid.caps))
    assert len(seen) == 121


def hexed(row):
    """Every value of a table row with its type, floats as float.hex."""
    return [(type(v), float.hex(v)) for v in row]


@pytest.mark.parametrize("pooled", [False, True], ids=["welch", "pooled"])
def test_grid_cell_is_evaluate_cell_with_holm_flags(config2014, pooled):
    # the grid's table holds, bit for bit, the rows evaluate_cell returned,
    # and its reject flags are apply_holm's over each metric's family
    config = config2014._replace(sweep_steps=4, pooled=pooled)
    grid = run_experiment1(config)
    prep = prepare(config)
    rows = [evaluate_cell(pv, wind, prep) for pv, wind in itertools.product(grid.caps, grid.caps)]
    flags = {name: holm_flags([row_tests(row)[name] for row in rows], alpha=config.alpha)
             for name in SWEEP_TEST_METRICS}
    for i, row in enumerate(rows):
        assert hexed(grid.table[i].tolist()) == hexed(row)
        assert grid.reject[i].tolist() == [flags[name][i] for name in SWEEP_TEST_METRICS]
    assert len(rows) == len(grid.table) == 16
    assert row_tests(grid.table[0])["self_consumption"].untestable
    # the config's flag picks the test: pooled dof is n_r + n_m - 2 for each hourly metric
    dofs = grid.table[:, TESTS][:, 1:3 * len(DELTA_METRICS):3]
    assert ((dofs[~np.isnan(dofs)] == 2 * 8760 - 2) == pooled).all()
    assert any(any(f) for f in flags.values()) and not all(all(f) for f in flags.values())


@pytest.mark.parametrize("pooled", [False, True], ids=["welch", "pooled"])
def test_swapping_the_load_cases_mirrors_the_sweep(config2014, monkeypatch, pooled):
    # swapping residential-only and mixed negates every t and delta exactly
    # (an untestable test's NaN t stays NaN), keeps dof, p and the Holm flags,
    # and swaps the two cases' sums
    config = config2014._replace(sweep_steps=5, pooled=pooled)
    grid = run_experiment1(config)
    prep = prepare(config)
    swapped = prep._replace(load_r_mw=prep.load_m_mw, load_m_mw=prep.load_r_mw)
    monkeypatch.setattr(experiments, "prepare", lambda _: swapped)
    mirror = run_experiment1(config)

    def same(a, b):
        return a.tobytes() == b.tobytes()  # bit for bit, NaN included

    def negated(a, b):
        return np.array_equal(a, -b, equal_nan=True)  # an untestable t stays NaN

    table, other = grid.table, mirror.table
    assert same(other[:, SUMS], np.roll(table[:, SUMS], 4, axis=1))
    t_dof_p, other_tests = table[:, TESTS], other[:, TESTS]
    assert negated(other_tests[:, 0::3], t_dof_p[:, 0::3])
    assert same(other_tests[:, 1::3], t_dof_p[:, 1::3])
    assert same(other_tests[:, 2::3], t_dof_p[:, 2::3])
    assert same(mirror.reject, grid.reject)
    assert negated(other[:, DELTAS], table[:, DELTAS])
    assert grid.reject.any() and not grid.reject.all()


@pytest.mark.parametrize("j", [1, -2, 10, -30, 30])
def test_scaling_loads_and_units_by_a_power_of_two_scales_the_sweep(config2014, monkeypatch, j):
    # both loads and both per-unit series times k = 2**j: every annual sum and
    # delta is k times its value bit for bit, and t, dof, p and Holm flags are
    # unchanged; at j = -30 the smallest generation is below 1e-9 MW
    k = 2.0 ** j
    config = config2014._replace(sweep_steps=5)
    grid = run_experiment1(config)
    prep = prepare(config)
    scaled = prep._replace(load_r_mw=k * prep.load_r_mw, load_m_mw=k * prep.load_m_mw,
                           pv_unit=k * prep.pv_unit, wind_unit=k * prep.wind_unit)
    monkeypatch.setattr(experiments, "prepare", lambda _: scaled)
    other = run_experiment1(config)

    def same(a, b):
        return a.tobytes() == b.tobytes()  # bit for bit, NaN included

    assert same(other.table[:, TESTS], grid.table[:, TESTS])
    assert same(other.reject, grid.reject)
    assert same(other.table[:, SUMS], k * grid.table[:, SUMS])
    assert same(other.table[:, DELTAS], k * grid.table[:, DELTAS])
    # the grid holds untestable tests, and rejections in every metric but not everywhere
    assert np.isnan(grid.table[:, TESTS][:, 0::3]).any()
    assert grid.reject.any(axis=0).all() and not grid.reject.all()


def test_zero_capacity_cell(grid, prep):
    residential, mixed = case_sums(grid.table[0])
    assert residential.pos_mismatch == 0.0
    assert residential.utilisation == 0.0
    assert residential.neg_mismatch == pytest.approx(-float(prep.load_r_mw.sum()))
    assert mixed.neg_mismatch == pytest.approx(-float(prep.load_m_mw.sum()))
    assert residential.self_consumption is None
    assert mixed.self_consumption is None
    assert row_tests(grid.table[0])["self_consumption"].untestable


def test_cell_matches_pipeline_composition(prep):
    # evaluate_cell must agree with composing the public pieces by hand
    pv_mw, wind_mw = 105.0, 157.5
    row = evaluate_cell(pv_mw, wind_mw, prep)
    pv_gen, wind_gen = components(pv_mw, wind_mw, prep)
    g = pv_gen + wind_gen
    for agg, load in zip(case_sums(row), (prep.load_r_mw, prep.load_m_mw)):
        pos = float(np.maximum(g - load, 0).sum())
        neg = float(np.minimum(g - load, 0).sum())
        util = float(np.minimum(g, load).sum())
        assert agg.pos_mismatch == pytest.approx(pos, rel=1e-12)
        assert agg.neg_mismatch == pytest.approx(neg, rel=1e-12)
        assert agg.utilisation == pytest.approx(util, rel=1e-12)
        assert agg.self_consumption == pytest.approx(util / float(g.sum()),
                                                     rel=1e-12)
    # the delta columns are mixed minus residential
    m_r = g - prep.load_r_mw
    m_m = g - prep.load_m_mw
    pos_diff = float(np.maximum(m_m, 0).sum() - np.maximum(m_r, 0).sum())
    pos_sum = row[DELTAS][0]     # DELTA_METRICS[0] is pos_mwh
    assert pos_sum == pytest.approx(pos_diff, rel=1e-9)


@pytest.mark.parametrize("pv_mw, wind_mw", [(105.0, 0.0), (105.0, 157.5)])
def test_self_consumption_test_is_over_lit_hours(prep, pv_mw, wind_mw):
    row = evaluate_cell(pv_mw, wind_mw, prep)
    pv_gen, wind_gen = components(pv_mw, wind_mw, prep)
    g = pv_gen + wind_gen
    lit = g > 0
    assert lit.any() and not lit.all()
    split_r = hourly_split(g, prep.load_r_mw)
    split_m = hourly_split(g, prep.load_m_mw)
    expected = welch_t_test(split_r.self_consumption()[lit],
                            split_m.self_consumption()[lit])
    assert not expected.untestable
    assert row_tests(row)["self_consumption"] == expected


def test_scenario_components_scale_linearly(prep):
    pv1, wind1 = components(100.0, 50.0, prep)
    pv2, wind2 = components(200.0, 50.0, prep)
    assert np.allclose(pv2, 2.0 * pv1, rtol=1e-12)
    assert np.array_equal(wind1, wind2)
    # 50 MW of 0.5 MW turbines = 100 machines
    _, wind_one = components(0.0, 0.5, prep)
    assert np.allclose(wind1, 100.0 * wind_one, rtol=1e-12)


def test_holm_family_is_all_121_scenarios(grid, config2014):
    for k, name in enumerate(SWEEP_TEST_METRICS):
        family = [row_tests(row)[name] for row in grid.table]
        assert holm_flags(family, alpha=config2014.alpha) == grid.reject[:, k].tolist()
        assert grid.reject[:, k].any()


def test_experiment1_tables_deterministic(grid, prep, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    paths_a = write_experiment1_tables(grid, a)
    write_experiment1_tables(grid, b)
    for path in paths_a:
        assert filecmp.cmp(path, b / path.name, shallow=False)
    metrics = (a / "sweep_metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + 242
    assert metrics[0] == ("scenario_pv_mw,scenario_wind_mw,load_case,"
                          "pos_mwh,neg_mwh,util_mwh,self_consumption")
    # no generation at (0, 0): M⁺ = U = 0, M⁻ = −ΣL, and self-consumption is
    # undefined, so its cell is empty
    for line, case, load in zip(metrics[1:3], LOAD_CASES, (prep.load_r_mw, prep.load_m_mw)):
        pv, wind, label, pos, neg, util, sc = line.split(",")
        assert (pv, wind, label, pos, util, sc) == ("0.0", "0.0", case, "0.0", "0.0", "")
        assert float(neg) == pytest.approx(-float(load.sum()))
    sig = (a / "sweep_significance.csv").read_text().splitlines()
    assert len(sig) == 1 + 484
    deltas = (a / "sweep_deltas.csv").read_text().splitlines()
    assert len(deltas) == 1 + 363


def list_oracle_tables(grid) -> dict:
    """Each sweep table's bytes from whole-table lists of its rows, the way
    they were built before the writer streamed them, joined with fmt."""
    def long_rows(columns, labels):
        block = grid.table[:, columns]
        values = block.reshape(len(block) * len(labels), -1).T.tolist()
        return zip(itertools.product(grid.caps, grid.caps, labels), *values)

    # table columns: 0-7 annual sums, 8-19 t, dof, p per test, 20-22 deltas
    tables = {
        "sweep_metrics.csv": (
            ("scenario_pv_mw", "scenario_wind_mw", "load_case",
             "pos_mwh", "neg_mwh", "util_mwh", "self_consumption"),
            [(*key, pos, neg, util, util / gen if gen > 0 else None)
             for key, pos, neg, util, gen in long_rows(slice(0, 8), LOAD_CASES)]),
        "sweep_significance.csv": (
            ("scenario_pv_mw", "scenario_wind_mw", "metric", "t", "dof", "p", "reject_holm"),
            [(*key, t, dof, p, flag) for (key, t, dof, p), flag
             in zip(long_rows(slice(8, 20), SWEEP_TEST_METRICS),
                    grid.reject.ravel().tolist())]),
        "sweep_deltas.csv": (
            ("scenario_pv_mw", "scenario_wind_mw", "metric",
             "annual_sum_diff_mwh", "hourly_mean_diff_mw"),
            # the hourly mean as ndarray.mean computes it: the sum over the 8760 hours
            [(*key, total, total / 8760) for key, total in long_rows(slice(20, 23),
                                                                     DELTA_METRICS)]),
    }
    return {name: "".join(",".join(tabular.fmt(cell) for cell in row) + "\n"
                          for row in [header, *rows]).encode("utf-8")
            for name, (header, rows) in tables.items()}


@pytest.mark.parametrize("pooled", [False, True], ids=["welch", "pooled"])
def test_streamed_tables_equal_list_oracle(config2014, pooled, tmp_path, monkeypatch):
    # 17 x 17 = 289 scenarios, so the writer's blocks do not divide them evenly
    grid = run_experiment1(config2014._replace(sweep_steps=17, pooled=pooled))
    assert experiments._BLOCK < len(grid.table) == 289
    lengths = {}
    write = tabular.write_csv

    def write_recording_length(path, header, rows):
        lengths[path.name] = len(rows)
        return write(path, header, rows)

    monkeypatch.setattr(tabular, "write_csv", write_recording_length)
    paths = write_experiment1_tables(grid, tmp_path)
    oracle = list_oracle_tables(grid)
    assert [path.name for path in paths] == list(oracle)
    for path in paths:
        assert path.read_bytes() == oracle[path.name]
        assert lengths[path.name] == oracle[path.name].count(b"\n") - 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(oracle)
    # the zero-capacity self-consumption test is untestable: empty t and dof
    significance = oracle["sweep_significance.csv"].decode().splitlines()
    assert "0.0,0.0,self_consumption,,,1.0,false" in significance
    assert any(line.endswith(",true") for line in significance)


def test_writing_the_61x61_tables_holds_under_1_mb(tmp_path):
    # the writer keeps one block of rows at a time, not every row of a table
    rng = np.random.default_rng(61)
    caps = capacity_axis(525.0, 61)
    table = rng.uniform(0.0, 1e3, (61 * 61, TABLE_WIDTH))
    table[0, 8:10] = np.nan
    grid = ScenarioGrid(caps=caps, phi=2.0, n_hours=8760, table=table,
                        reject=rng.random((61 * 61, len(SWEEP_TEST_METRICS))) < 0.3)
    tracemalloc.start()
    try:
        write_experiment1_tables(grid, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len((tmp_path / "sweep_significance.csv").read_text().splitlines()) == 1 + 4 * 3721


@settings(max_examples=60, deadline=None)
@given(pv_mw=st.floats(0.0, 600.0), wind_mw=st.floats(0.0, 600.0), pooled=st.booleans())
@example(pv_mw=0.0, wind_mw=0.0, pooled=False)
@example(pv_mw=0.0, wind_mw=0.0, pooled=True)
def test_evaluate_cell_row_invariants(prep, pv_mw, wind_mw, pooled):
    row = evaluate_cell(pv_mw, wind_mw, with_pooled(prep, pooled))
    assert len(row) == TABLE_WIDTH
    for agg, load in zip(case_sums(row), (prep.load_r_mw, prep.load_m_mw)):
        pos, neg, util, gen = agg
        total_load = float(load.sum())
        assert pos >= 0.0 >= neg
        assert abs(pos + neg - (gen - total_load)) <= 1e-9 * max(gen, total_load, 1.0)
        assert 0.0 <= util <= min(gen, total_load) * (1 + 1e-9)
    t_dof_p = row[TESTS]
    for k in range(len(SWEEP_TEST_METRICS)):
        t, dof, p = t_dof_p[3 * k:3 * k + 3]
        # an untestable test: NaN t and dof, p = 1
        assert math.isnan(t) == math.isnan(dof)
        assert (p == 1.0) if math.isnan(t) else (0.0 <= p <= 1.0)
    sums = row[SUMS]
    for k, total in enumerate(row[DELTAS]):
        residential, mixed = sums[k], sums[4 + k]   # ΣM⁺, ΣM⁻, ΣU per DELTA_METRICS
        assert abs(total - (mixed - residential)) <= 1e-9 * (abs(mixed) + abs(residential) + 1)


def test_experiment2_defaults_to_preset(exp2, config2014):
    assert exp2.pv_mw == config2014.mix_pv_mw == 399.0
    assert exp2.wind_mw == config2014.mix_wind_mw == 30.0
    assert exp2.summary["turbines"] == 60


def test_experiment2_counts(exp2):
    counts = exp2.counts
    assert len(counts) == 150
    assert counts.sum() == 8760
    wind_totals = {b: 0 for b in range(1, 6)}
    for key, n in zip(all_category_keys(), counts.tolist()):
        wind_totals[key.wind_bin] += n
    assert wind_totals == {b: 1752 for b in range(1, 6)}
    assert counts.tolist() == list(oracle_counts(decode(exp2.keys)).values())


def test_experiment2_dark_hours_land_in_solar_bin_1(exp2, prep):
    # hours without solar output sit below the first edge, hence bin 1;
    # the clock bands still leave some categories structurally empty
    pv_gen, _ = components(exp2.pv_mw, exp2.wind_mw, prep)
    for key, pv in zip(decode(exp2.keys), pv_gen):
        if pv == 0.0:
            assert key.solar_bin == 1
    assert any(n == 0 for n in exp2.counts.tolist())


def test_experiment2_aggregates_consistent(exp2, prep):
    # category totals of the mismatch metric must sum to the annual total
    pv_gen, wind_gen = components(exp2.pv_mw, exp2.wind_mw, prep)
    g = pv_gen + wind_gen
    for case, load in ((RESIDENTIAL_ONLY, prep.load_r_mw), (MIXED, prep.load_m_mw)):
        counts, sums = exp2.aggregates[(case, "mismatch")]
        assert sums.sum() == pytest.approx(float((g - load).sum()), rel=1e-9)
        assert counts.sum() == 8760


def test_experiment2_delta_is_generation_free(exp2, prep):
    # per-category sums of the load-case delta recover s - (phi-1) h
    delta = prep.service / 1000.0 - (prep.phi - 1.0) * prep.household / 1000.0
    direct = {}
    for key, value in zip(decode(exp2.keys), delta):
        direct[key] = direct.get(key, 0.0) + float(value)
    _, sums = exp2.delta_aggregates
    for key, total in zip(all_category_keys(), sums.tolist()):
        assert total == pytest.approx(direct.get(key, 0.0), abs=1e-9)
    # the annual delta is ~zero because phi equalizes annual energies
    assert abs(float(delta.sum())) < 1e-6


def test_experiment2_categories_bit_equal_to_dict_loops(exp2, prep, config2014):
    # on the fixture, the columnar aggregates, and the tests built from the
    # columnar members, equal those of the per-hour dict loops bit for bit
    pv_gen, wind_gen = components(exp2.pv_mw, exp2.wind_mw, prep)
    keys = decode(exp2.keys)
    splits = [hourly_split(pv_gen + wind_gen, load) for load in (prep.load_r_mw, prep.load_m_mw)]
    for metric in CATEGORY_METRICS:
        hourly = [split.self_consumption() if metric == "self_consumption"
                  else getattr(split, metric) for split in splits]
        for case, values in zip((RESIDENTIAL_ONLY, MIXED), hourly):
            counts, sums = exp2.aggregates[(case, metric)]
            assert exact_rows([counts.tolist(), sums.tolist()]) == \
                exact_rows(oracle_aggregate(keys, values))
        members = [oracle_members(keys, values) for values in hourly]
        family = [welch_t_test(members[0][key], members[1][key], pooled=config2014.pooled)
                  for key in all_category_keys()]
        assert exact_rows(exp2.tests[metric].tolist()) == exact_rows(family)
        assert any(r.untestable for r in family)
        assert exp2.reject[metric].tolist() == holm_flags(family, alpha=config2014.alpha)


def exact_rows(rows):
    """Tuples with their floats as float.hex."""
    return [tuple(float.hex(v) if isinstance(v, float) else v for v in row) for row in rows]


def test_experiment2_tests_cover_all_categories(exp2):
    for metric in CATEGORY_METRICS:
        assert exp2.tests[metric].shape == (150, 3)
        assert len(exp2.reject[metric]) == 150
        for n, (t, dof, p) in zip(exp2.counts.tolist(), exp2.tests[metric].tolist()):
            # an untestable test: NaN t and dof, p = 1; an empty category is one
            assert math.isnan(t) == math.isnan(dof)
            assert (p == 1.0) if math.isnan(t) else (n > 0)


def test_experiment2_tables(exp2, tmp_path):
    paths = write_experiment2_tables(exp2, tmp_path)
    names = {p.name for p in paths}
    assert "category_counts.csv" in names
    assert "mix_summary.json" in names
    for case in (RESIDENTIAL_ONLY, MIXED):
        for metric in CATEGORY_METRICS:
            assert f"categories_{case}_{metric}.csv" in names
            # the mean is the sum over the hours, and empty where there are none
            lines = (tmp_path / f"categories_{case}_{metric}.csv").read_text().splitlines()
            assert lines[0].split(",")[4:] == ["hours", "metric", "mean", "sum"]
            for line in lines[1:]:
                hours, _, mean, total = line.split(",")[4:]
                assert mean == ("" if hours == "0" else repr(float(total) / int(hours)))
    counts = (tmp_path / "category_counts.csv").read_text().splitlines()
    assert len(counts) == 1 + 30 + 1
    last = counts[-1].split(",")
    assert last[:3] == ["all", "all", "all"]
    assert last[-1] == "8760"
    summary = json.loads((tmp_path / "mix_summary.json").read_text())
    assert summary["pv_mw"] == exp2.pv_mw
    assert len(summary["solar_edges_pct"]) == 4


def test_untestable_category_writes_empty_t_and_dof(exp2, tmp_path):
    # a testable category writes its t, dof, p and reject flag; an untestable
    # one empty t and dof, p = 1 and no rejection
    write_experiment2_tables(exp2, tmp_path)
    for metric in CATEGORY_METRICS:
        lines = (tmp_path / f"categories_significance_{metric}.csv").read_text().splitlines()
        assert lines[0].split(",")[-4:] == ["t", "dof", "p", "reject_holm"]
        cells = {tuple(line.split(",")[:4]): line.split(",")[5:] for line in lines[1:]}
        results = exp2.tests[metric].tolist()
        assert len(cells) == len(results) == 150
        kinds = set()
        for key, (t, dof, p), reject in zip(all_category_keys(), results,
                                            exp2.reject[metric].tolist()):
            written = cells[(key.day_kind, key.time_band, str(key.solar_bin), str(key.wind_bin))]
            untestable = math.isnan(t)
            if untestable:
                assert written == ["", "", "1.0", "false"]
            else:
                assert written == [repr(t), repr(dof), repr(p), str(reject).lower()]
            kinds.add(untestable)
        assert kinds == {False, True}


def test_build_problem_uses_fixture_roofs(prep):
    problem = build_problem(prep)
    assert problem.a_roof_m2 == pytest.approx(5_130_333.0)
    assert problem.phi_area == 3.0
    assert np.array_equal(problem.load_mw, prep.load_m_mw)
    assert np.array_equal(problem.g_pv, prep.pv_unit)


def test_run_optimize_writes_reports(config2014, tmp_path):
    problem, solution, report = run_optimize(config2014, out_dir=tmp_path)
    assert (tmp_path / "optimize_report.json").exists()
    assert (tmp_path / "optimize_solution.csv").exists()
    on_disk = json.loads((tmp_path / "optimize_report.json").read_text())
    assert on_disk["objective"] == report["objective"]
    assert problem.is_feasible(solution.x_pv_m2, solution.x_turbine_m2,
                               tol=1e-9 * problem.total_area_max)
