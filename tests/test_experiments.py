import filecmp
import json

import numpy as np
import pytest

from category_oracle import decode, oracle_aggregate, oracle_members
from urbanmix.demand import MIXED, RESIDENTIAL_ONLY
from urbanmix.experiments import (CATEGORY_METRICS, SWEEP_TEST_METRICS, TABLE_WIDTH,
                                  build_problem, capacity_axis, evaluate_cell,
                                  prepare, run_experiment1, run_experiment2,
                                  run_optimize, write_experiment1_tables,
                                  write_experiment2_tables)
from urbanmix.generation import capacity_coefficients, generation_mw
from urbanmix.metrics import hourly_split
from urbanmix.stats import apply_holm, welch_t_test


@pytest.fixture(scope="module")
def prep(config2014):
    return prepare(config2014)


def components(pv_mw, wind_mw, prep):
    area, turbines = capacity_coefficients(pv_mw, wind_mw, prep.config.pv)
    pv_gen = generation_mw(area, 0, prep.pv_unit.values, prep.wind_unit.values)
    wind_gen = generation_mw(0.0, turbines, prep.pv_unit.values, prep.wind_unit.values)
    return pv_gen, wind_gen


@pytest.fixture(scope="module")
def grid(config2014):
    return run_experiment1(config2014)


@pytest.fixture(scope="module")
def exp2(config2014):
    return run_experiment2(config2014)


def test_capacity_axis_default():
    caps = capacity_axis()
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
    household_mw = prep.inputs.household.values / 1000.0
    assert prep.load_r_mw == pytest.approx(prep.phi * household_mw, rel=1e-12)
    assert not prep.load_r_mw.flags.writeable


def all_cells(grid):
    return [grid.cell(pv, wind) for pv in grid.pv_caps for wind in grid.wind_caps]


def test_grid_has_121_cells(grid):
    assert grid.table.shape == (121, TABLE_WIDTH)
    assert grid.reject.shape == (121, len(SWEEP_TEST_METRICS))
    assert grid.pv_caps == capacity_axis()
    assert grid.wind_caps == capacity_axis()
    seen = {(c.pv_mw, c.wind_mw) for c in all_cells(grid)}
    assert len(seen) == 121
    with pytest.raises(KeyError, match="no scenario cell"):
        grid.cell(1.0, 0.0)


def hexed(cell):
    """Every field of a ScenarioCell with its type, floats as float.hex."""
    def exact(values):
        return tuple((type(v), float.hex(v) if isinstance(v, float) else v)
                     for v in values)
    return (exact((cell.pv_mw, cell.wind_mw)),
            exact(tuple(cell.residential)), exact(tuple(cell.mixed)),
            {name: exact(tuple(test)) for name, test in cell.tests.items()},
            {name: exact((value,)) for name, value in cell.delta_sums.items()},
            {name: exact((value,)) for name, value in cell.delta_hourly_means.items()})


@pytest.mark.parametrize("pooled", [False, True], ids=["welch", "pooled"])
def test_grid_cell_is_evaluate_cell_with_holm_flags(config2014, pooled):
    # the columnar grid gives back, bit for bit, what evaluate_cell returned,
    # with the reject flags of apply_holm over each metric's family
    config = config2014._replace(sweep_steps=4, pooled=pooled)
    grid = run_experiment1(config)
    prep = prepare(config)
    cells = {(pv, wind): evaluate_cell(pv, wind, prep, pooled=pooled)
             for pv in grid.pv_caps for wind in grid.wind_caps}
    flags = {name: [r.reject for r in apply_holm([c.tests[name] for c in cells.values()],
                                                 alpha=config.alpha)]
             for name in SWEEP_TEST_METRICS}
    for i, ((pv, wind), cell) in enumerate(cells.items()):
        expected = cell._replace(tests={name: test._replace(reject=flags[name][i])
                                        for name, test in cell.tests.items()})
        assert hexed(grid.cell(pv, wind)) == hexed(expected)
    assert len(cells) == len(grid.table) == 16
    assert grid.cell(0.0, 0.0).tests["self_consumption"].untestable
    assert any(any(f) for f in flags.values()) and not all(all(f) for f in flags.values())


def test_zero_capacity_cell(grid, prep):
    cell = grid.cell(0.0, 0.0)
    assert cell.residential.pos_mismatch == 0.0
    assert cell.residential.utilisation == 0.0
    assert cell.residential.neg_mismatch == pytest.approx(-float(prep.load_r_mw.sum()))
    assert cell.mixed.neg_mismatch == pytest.approx(-float(prep.load_m_mw.sum()))
    assert cell.residential.self_consumption is None
    assert cell.mixed.self_consumption is None
    assert cell.tests["self_consumption"].untestable


def test_cell_matches_pipeline_composition(prep):
    # evaluate_cell must agree with composing the public pieces by hand
    pv_mw, wind_mw = 105.0, 157.5
    cell = evaluate_cell(pv_mw, wind_mw, prep)
    pv_gen, wind_gen = components(pv_mw, wind_mw, prep)
    g = pv_gen + wind_gen
    for agg, load in ((cell.residential, prep.load_r_mw),
                      (cell.mixed, prep.load_m_mw)):
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
    assert cell.delta_sums["pos_mwh"] == pytest.approx(pos_diff, rel=1e-9)
    assert cell.delta_hourly_means["pos_mwh"] == pytest.approx(pos_diff / 8760.0,
                                                               rel=1e-9)


@pytest.mark.parametrize("pv_mw, wind_mw", [(105.0, 0.0), (105.0, 157.5)])
def test_self_consumption_test_is_over_lit_hours(prep, pv_mw, wind_mw):
    cell = evaluate_cell(pv_mw, wind_mw, prep)
    pv_gen, wind_gen = components(pv_mw, wind_mw, prep)
    g = pv_gen + wind_gen
    lit = g > 0
    assert lit.any() and not lit.all()
    split_r = hourly_split(g, prep.load_r_mw)
    split_m = hourly_split(g, prep.load_m_mw)
    expected = welch_t_test(split_r.self_consumption()[lit],
                            split_m.self_consumption()[lit])
    assert not expected.untestable
    assert cell.tests["self_consumption"] == expected


def test_scenario_components_scale_linearly(prep):
    pv1, wind1 = components(100.0, 50.0, prep)
    pv2, wind2 = components(200.0, 50.0, prep)
    assert np.allclose(pv2, 2.0 * pv1, rtol=1e-12)
    assert np.array_equal(wind1, wind2)
    # 50 MW of 0.5 MW turbines = 100 machines
    _, wind_one = components(0.0, 0.5, prep)
    assert np.allclose(wind1, 100.0 * wind_one, rtol=1e-12)


def test_holm_family_is_all_121_scenarios(grid, config2014):
    for name in SWEEP_TEST_METRICS:
        family = [cell.tests[name] for cell in all_cells(grid)]
        redone = apply_holm(family, alpha=config2014.alpha)
        assert [r.reject for r in redone] == [r.reject for r in family]
        assert any(r.reject for r in family)


def test_experiment1_tables_deterministic(grid, tmp_path):
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
    first = metrics[1].split(",")
    assert first[2] == RESIDENTIAL_ONLY
    assert first[6] == ""  # SC undefined at zero capacity
    sig = (a / "sweep_significance.csv").read_text().splitlines()
    assert len(sig) == 1 + 484
    deltas = (a / "sweep_deltas.csv").read_text().splitlines()
    assert len(deltas) == 1 + 363


def test_experiment2_defaults_to_preset(exp2, config2014):
    assert exp2.pv_mw == config2014.mix_pv_mw == 399.0
    assert exp2.wind_mw == config2014.mix_wind_mw == 30.0
    assert exp2.summary["turbines"] == 60


def test_experiment2_counts(exp2):
    counts = exp2.counts
    assert len(counts) == 150
    assert sum(counts.values()) == 8760
    wind_totals = {b: 0 for b in range(1, 6)}
    for key, n in counts.items():
        wind_totals[key.wind_bin] += n
    assert wind_totals == {b: 1752 for b in range(1, 6)}


def test_experiment2_dark_hours_land_in_solar_bin_1(exp2, prep):
    # hours without solar output sit below the first edge, hence bin 1;
    # the clock bands still leave some categories structurally empty
    pv_gen, _ = components(exp2.pv_mw, exp2.wind_mw, prep)
    for key, pv in zip(decode(exp2.keys), pv_gen):
        if pv == 0.0:
            assert key.solar_bin == 1
    assert any(n == 0 for n in exp2.counts.values())


def test_experiment2_aggregates_consistent(exp2, prep):
    # category totals of the mismatch metric must sum to the annual total
    pv_gen, wind_gen = components(exp2.pv_mw, exp2.wind_mw, prep)
    g = pv_gen + wind_gen
    for case, load in ((RESIDENTIAL_ONLY, prep.load_r_mw), (MIXED, prep.load_m_mw)):
        aggs = exp2.aggregates[(case, "mismatch")]
        total = sum(a.total for a in aggs.values())
        assert total == pytest.approx(float((g - load).sum()), rel=1e-9)
        assert sum(a.count for a in aggs.values()) == 8760


def test_experiment2_delta_is_generation_free(exp2, prep):
    # per-category sums of the load-case delta recover s - (phi-1) h
    delta = (prep.inputs.service.values / 1000.0
             - (prep.phi - 1.0) * prep.inputs.household.values / 1000.0)
    direct = {}
    for key, value in zip(decode(exp2.keys), delta):
        direct[key] = direct.get(key, 0.0) + float(value)
    for key, agg in exp2.delta_aggregates.items():
        assert agg.total == pytest.approx(direct.get(key, 0.0), abs=1e-9)
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
            assert exact_rows(exp2.aggregates[(case, metric)].values()) == \
                exact_rows(oracle_aggregate(keys, values).values())
        members = [oracle_members(keys, values) for values in hourly]
        family = [welch_t_test(members[0][key], members[1][key], pooled=config2014.pooled)
                  for key in members[0]]
        assert list(exp2.tests[metric]) == list(members[0])
        assert exact_rows(exp2.tests[metric].values()) == \
            exact_rows(apply_holm(family, alpha=config2014.alpha))


def exact_rows(rows):
    """Tuples with their floats as float.hex."""
    return [tuple(float.hex(v) if isinstance(v, float) else v for v in row) for row in rows]


def test_experiment2_tests_cover_all_categories(exp2):
    for metric in CATEGORY_METRICS:
        assert len(exp2.tests[metric]) == 150
        untestable = [k for k, r in exp2.tests[metric].items() if r.untestable]
        empty = [k for k, n in exp2.counts.items() if n == 0]
        for key in empty:
            assert key in untestable


def test_experiment2_tables(exp2, tmp_path):
    paths = write_experiment2_tables(exp2, tmp_path)
    names = {p.name for p in paths}
    assert "category_counts.csv" in names
    assert "mix_summary.json" in names
    for case in (RESIDENTIAL_ONLY, MIXED):
        for metric in CATEGORY_METRICS:
            assert f"categories_{case}_{metric}.csv" in names
    counts = (tmp_path / "category_counts.csv").read_text().splitlines()
    assert len(counts) == 1 + 30 + 1
    last = counts[-1].split(",")
    assert last[:3] == ["all", "all", "all"]
    assert last[-1] == "8760"
    summary = json.loads((tmp_path / "mix_summary.json").read_text())
    assert summary["pv_mw"] == exp2.pv_mw
    assert len(summary["solar_edges_pct"]) == 4


def test_build_problem_uses_fixture_roofs(prep):
    problem = build_problem(prep)
    assert problem.a_roof_m2 == pytest.approx(5_130_333.0)
    assert problem.phi_area == 3.0
    assert np.array_equal(problem.load_mw, prep.load_m_mw)
    assert np.array_equal(problem.g_pv, prep.pv_unit.values)


def test_run_optimize_writes_reports(config2014, tmp_path):
    problem, solution, report = run_optimize(config2014, out_dir=tmp_path)
    assert (tmp_path / "optimize_report.json").exists()
    assert (tmp_path / "optimize_solution.csv").exists()
    on_disk = json.loads((tmp_path / "optimize_report.json").read_text())
    assert on_disk["objective"] == report["objective"]
    assert problem.is_feasible(solution.x_pv_m2, solution.x_turbine_m2,
                               tol=1e-9 * problem.total_area_max)
