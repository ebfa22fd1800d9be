"""End-to-end experiment drivers: capacity sweep and category study."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import classify, tabular
from .config import ModelInputs, SimulationConfig, assemble
from .demand import MIXED, RESIDENTIAL_ONLY, LoadCase, build_load_cases
from .generation import (TURBINE_UNIT_MW, area_budget_totals, capacity_coefficients,
                         generation_mw, pv_unit_series, wind_unit_series)
from .ingest import HourlySeries
from .metrics import AggregateMetrics, delta_mismatch, hourly_split
from .optimize import MixProblem, ga_optimize, solution_report
from .stats import apply_holm, welch_t_test

SWEEP_TEST_METRICS = ("pos_mwh", "neg_mwh", "util_mwh", "self_consumption")
CATEGORY_METRICS = ("mismatch", "utilisation", "self_consumption")
LOAD_CASES = (RESIDENTIAL_ONLY, MIXED)


@dataclass(frozen=True)
class Prepared:
    """Inputs resolved into the series every scenario shares."""
    inputs: ModelInputs
    phi: float
    residential: LoadCase
    mixed: LoadCase
    load_r_mw: np.ndarray
    load_m_mw: np.ndarray
    pv_unit: HourlySeries     # W per m² of panel
    wind_unit: HourlySeries   # kW per turbine

    @property
    def config(self) -> SimulationConfig:
        return self.inputs.config


def prepare(config: SimulationConfig) -> Prepared:
    inputs = assemble(config)
    residential, mixed, phi = build_load_cases(inputs.household, inputs.service)
    load_r_mw = residential.series.values / 1000.0
    load_m_mw = mixed.series.values / 1000.0
    load_r_mw.flags.writeable = False
    load_m_mw.flags.writeable = False
    pv_unit = pv_unit_series(inputs.weather, inputs.calendar.year, config.pv)
    wind_unit = wind_unit_series(inputs.weather, inputs.calendar.year, config.turbine)
    return Prepared(inputs=inputs, phi=phi, residential=residential, mixed=mixed,
                    load_r_mw=load_r_mw, load_m_mw=load_m_mw,
                    pv_unit=pv_unit, wind_unit=wind_unit)


def capacity_axis(max_mw: float = 525.0, steps: int = 11) -> tuple:
    """Evenly spaced capacities from zero to the maximum, inclusive."""
    return tuple(float(v) for v in np.linspace(0.0, max_mw, steps))


@dataclass(frozen=True)
class ScenarioCell:
    pv_mw: float
    wind_mw: float
    residential: AggregateMetrics
    mixed: AggregateMetrics
    tests: dict
    delta_sums: dict
    delta_hourly_means: dict


@dataclass(frozen=True)
class ScenarioGrid:
    pv_caps: tuple
    wind_caps: tuple
    cells: tuple
    phi: float

    def cell(self, pv_mw: float, wind_mw: float) -> ScenarioCell:
        for cell in self.cells:
            if cell.pv_mw == pv_mw and cell.wind_mw == wind_mw:
                return cell
        raise KeyError(f"no scenario cell ({pv_mw}, {wind_mw})")


def evaluate_cell(pv_mw: float, wind_mw: float, prep: Prepared,
                  pooled: bool = False) -> ScenarioCell:
    area, turbines = capacity_coefficients(pv_mw, wind_mw, prep.config.pv)
    g = generation_mw(area, turbines, prep.pv_unit.values, prep.wind_unit.values)
    split_r = hourly_split(g, prep.load_r_mw)
    split_m = hourly_split(g, prep.load_m_mw)

    tests = {}
    delta_sums = {}
    delta_means = {}
    n_hours = len(g)
    for name, a, b in (("pos_mwh", split_r.positive, split_m.positive),
                       ("neg_mwh", split_r.negative, split_m.negative),
                       ("util_mwh", split_r.utilisation, split_m.utilisation)):
        tests[name] = welch_t_test(a, b, pooled=pooled)
        total = float((b - a).sum())
        delta_sums[name] = total
        delta_means[name] = total / n_hours     # what ndarray.mean computes
    # hourly self-consumption U/G over the lit hours only (G > 0)
    lit = g > 0
    if lit.any():
        g_lit = g[lit]
        tests["self_consumption"] = welch_t_test(split_r.utilisation[lit] / g_lit,
                                                 split_m.utilisation[lit] / g_lit,
                                                 pooled=pooled)
    else:
        tests["self_consumption"] = welch_t_test(np.zeros(1), np.zeros(1), pooled=pooled)
    return ScenarioCell(pv_mw=pv_mw, wind_mw=wind_mw,
                        residential=split_r.annual(), mixed=split_m.annual(),
                        tests=tests, delta_sums=delta_sums,
                        delta_hourly_means=delta_means)


def run_experiment1(config: SimulationConfig, out_dir=None) -> ScenarioGrid:
    """Full capacity sweep: both load cases per cell, Holm-corrected tests.

    Cells are evaluated one at a time in a fixed order, PV outer and wind
    inner.
    """
    prep = prepare(config)
    caps = capacity_axis(config.sweep_max_mw, config.sweep_steps)
    cells = [evaluate_cell(pv, wind, prep, pooled=config.pooled)
             for pv in caps for wind in caps]

    # Holm families: one correction across all scenarios per metric.
    corrected = [apply_holm([cell.tests[name] for cell in cells], alpha=config.alpha)
                 for name in SWEEP_TEST_METRICS]
    cells = [ScenarioCell(pv_mw=cell.pv_mw, wind_mw=cell.wind_mw,
                          residential=cell.residential, mixed=cell.mixed,
                          tests=dict(zip(SWEEP_TEST_METRICS, tests)),
                          delta_sums=cell.delta_sums,
                          delta_hourly_means=cell.delta_hourly_means)
             for cell, tests in zip(cells, zip(*corrected))]

    grid = ScenarioGrid(pv_caps=caps, wind_caps=caps, cells=tuple(cells), phi=prep.phi)
    if out_dir is not None:
        write_experiment1_tables(grid, out_dir)
    return grid


def write_experiment1_tables(grid: ScenarioGrid, out_dir) -> list:
    out_dir = Path(out_dir)
    metric_rows = []
    sig_rows = []
    delta_rows = []
    for cell in grid.cells:
        metric_rows.append(tabular.metric_row(cell.pv_mw, cell.wind_mw,
                                              RESIDENTIAL_ONLY, cell.residential))
        metric_rows.append(tabular.metric_row(cell.pv_mw, cell.wind_mw,
                                              MIXED, cell.mixed))
        for name in SWEEP_TEST_METRICS:
            sig_rows.append((cell.pv_mw, cell.wind_mw, name)
                            + tabular.significance_cells(cell.tests[name]))
        for name in ("pos_mwh", "neg_mwh", "util_mwh"):
            delta_rows.append((cell.pv_mw, cell.wind_mw, name,
                               cell.delta_sums[name], cell.delta_hourly_means[name]))
    paths = [
        tabular.write_csv(out_dir / "sweep_metrics.csv", tabular.METRIC_HEADER, metric_rows),
        tabular.write_csv(out_dir / "sweep_significance.csv",
                          ("scenario_pv_mw", "scenario_wind_mw", "metric")
                          + tabular.SIGNIFICANCE_COLUMNS, sig_rows),
        tabular.write_csv(out_dir / "sweep_deltas.csv",
                          ("scenario_pv_mw", "scenario_wind_mw", "metric",
                           "annual_sum_diff_mwh", "hourly_mean_diff_mw"), delta_rows),
    ]
    return paths


@dataclass(frozen=True)
class Experiment2Result:
    pv_mw: float
    wind_mw: float
    phi: float
    edges: classify.BinEdges
    keys: list
    counts: dict
    aggregates: dict          # (load_case, metric) -> {CategoryKey: CategoryAggregate}
    delta_aggregates: dict    # CategoryKey -> CategoryAggregate
    tests: dict               # metric -> {CategoryKey: TestResult}
    summary: dict


def run_experiment2(config: SimulationConfig, out_dir=None,
                    pv_mw: float | None = None,
                    wind_mw: float | None = None) -> Experiment2Result:
    """Category study at one installed mix (defaults to the config preset).

    Quantile edges come from the scenario's own percent-of-capacity series;
    categories then aggregate mismatch, utilisation, and self-consumption per
    load case, with Holm-corrected between-case tests per category.
    """
    prep = prepare(config)
    if pv_mw is None:
        pv_mw = config.mix_pv_mw
    if wind_mw is None:
        wind_mw = config.mix_wind_mw
    calendar = prep.inputs.calendar

    area, turbines = capacity_coefficients(pv_mw, wind_mw, config.pv)
    # One scenario row each for PV alone, wind alone and the whole mix.
    pv_gen, wind_gen, g = generation_mw([area, 0.0, area], [0, turbines, turbines],
                                        prep.pv_unit.values, prep.wind_unit.values)
    solar_pct = classify.percent_of_capacity(pv_gen, pv_mw)
    wind_pct = classify.percent_of_capacity(wind_gen, wind_mw)
    daylight = prep.pv_unit.values > 0
    edges = classify.compute_bins(solar_pct, wind_pct, daylight)
    keys = classify.classify_year(solar_pct, wind_pct, edges, calendar,
                                  holidays_as_weekend=config.holidays_as_weekend)
    counts = classify.category_counts(keys)

    hourly = {}
    for case_name, load in ((RESIDENTIAL_ONLY, prep.load_r_mw), (MIXED, prep.load_m_mw)):
        split = hourly_split(g, load)
        hourly[(case_name, "mismatch")] = split.mismatch
        hourly[(case_name, "utilisation")] = split.utilisation
        hourly[(case_name, "self_consumption")] = split.self_consumption()

    aggregates = {pair: classify.aggregate_by_category(keys, values)
                  for pair, values in hourly.items()}

    delta = delta_mismatch(prep.inputs.service.values / 1000.0,
                           prep.inputs.household.values / 1000.0, prep.phi)
    delta_values = delta.values if isinstance(delta, HourlySeries) else delta
    delta_aggregates = classify.aggregate_by_category(keys, delta_values)

    all_keys = classify.all_category_keys()
    tests = {}
    for metric in CATEGORY_METRICS:
        members_r = classify.member_values(keys, hourly[(RESIDENTIAL_ONLY, metric)])
        members_m = classify.member_values(keys, hourly[(MIXED, metric)])
        family = [welch_t_test(members_r[key], members_m[key], pooled=config.pooled)
                  for key in all_keys]
        corrected = apply_holm(family, alpha=config.alpha)
        tests[metric] = dict(zip(all_keys, corrected))

    summary = {
        "pv_mw": pv_mw,
        "wind_mw": wind_mw,
        "turbines": turbines,
        "phi": prep.phi,
        "solar_edges_pct": [float(e) for e in edges.solar_edges],
        "wind_edges_pct": [float(e) for e in edges.wind_edges],
        "peak_residential_mw": float(prep.load_r_mw.max()),
        "peak_mixed_mw": float(prep.load_m_mw.max()),
        "pv_pct_of_peak_residential": 100.0 * pv_mw / float(prep.load_r_mw.max()),
        "pv_pct_of_peak_mixed": 100.0 * pv_mw / float(prep.load_m_mw.max()),
        "annual_generation_mwh": float(g.sum()),
    }

    result = Experiment2Result(pv_mw=pv_mw, wind_mw=wind_mw, phi=prep.phi,
                               edges=edges, keys=keys, counts=counts,
                               aggregates=aggregates,
                               delta_aggregates=delta_aggregates,
                               tests=tests, summary=summary)
    if out_dir is not None:
        write_experiment2_tables(result, out_dir)
    return result


def _category_rows(aggregates: dict, metric: str) -> list:
    rows = []
    for key in classify.all_category_keys():
        agg = aggregates[key]
        rows.append((key.day_kind, key.time_band, key.solar_bin, key.wind_bin,
                     agg.count, metric, agg.mean, agg.total))
    return rows


def write_experiment2_tables(result: Experiment2Result, out_dir) -> list:
    out_dir = Path(out_dir)
    paths = []
    for case_name in LOAD_CASES:
        for metric in CATEGORY_METRICS:
            rows = _category_rows(result.aggregates[(case_name, metric)], metric)
            paths.append(tabular.write_csv(
                out_dir / f"categories_{case_name}_{metric}.csv",
                tabular.CATEGORY_HEADER, rows))
    paths.append(tabular.write_csv(out_dir / "categories_delta_mismatch.csv",
                                   tabular.CATEGORY_HEADER,
                                   _category_rows(result.delta_aggregates,
                                                  "delta_mismatch")))

    # Table-2 style occupancy matrix: one row per (day kind, band, solar bin).
    matrix_rows = []
    bins = range(1, classify.N_BINS + 1)
    for day_kind in classify.DAY_KINDS:
        for band in classify.TIME_BANDS:
            for solar_bin in bins:
                row_counts = [result.counts[classify.CategoryKey(day_kind, band,
                                                                 solar_bin, w)]
                              for w in bins]
                matrix_rows.append((day_kind, band, solar_bin, *row_counts,
                                    sum(row_counts)))
    col_totals = [sum(row[3 + i] for row in matrix_rows) for i in range(classify.N_BINS)]
    matrix_rows.append(("all", "all", "all", *col_totals, sum(col_totals)))
    paths.append(tabular.write_csv(
        out_dir / "category_counts.csv",
        ("day_kind", "time_band", "solar_bin",
         *(f"wind_bin_{w}" for w in bins), "row_total"),
        matrix_rows))

    for metric in CATEGORY_METRICS:
        sig_rows = []
        for key in classify.all_category_keys():
            sig_rows.append((key.day_kind, key.time_band, key.solar_bin,
                             key.wind_bin, metric)
                            + tabular.significance_cells(result.tests[metric][key]))
        paths.append(tabular.write_csv(
            out_dir / f"categories_significance_{metric}.csv",
            ("day_kind", "time_band", "solar_bin", "wind_bin", "metric")
            + tabular.SIGNIFICANCE_COLUMNS, sig_rows))

    summary_path = out_dir / "mix_summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    paths.append(summary_path)
    return paths


def build_problem(prep: Prepared) -> MixProblem:
    """Area-constrained mix problem for the prepared inputs (mixed load)."""
    config = prep.config
    budget = config.area
    if not budget.service_roofs:
        budget = replace(budget,
                         service_roofs=config.scaling_fixture.roof_areas())
    a_roof, _, _ = area_budget_totals(prep.inputs.service_mix, config.households,
                                      budget, config.roof_only_pv)
    return MixProblem(g_pv=prep.pv_unit.values,
                      g_turbine=prep.wind_unit.values,
                      load_mw=prep.load_m_mw,
                      a_roof_m2=a_roof,
                      phi_area=budget.phi_area,
                      weights=config.weights,
                      turbine_footprint_m2=budget.footprint_m2_per_turbine(),
                      pv_rated_wm2=config.pv.rated_power_density_wm2,
                      sign_convention=config.sign_convention,
                      roof_only_pv=config.roof_only_pv)


def run_optimize(config: SimulationConfig, out_dir=None):
    """GA search for the best mix; returns (problem, solution, report dict)."""
    prep = prepare(config)
    problem = build_problem(prep)
    solution = ga_optimize(problem, config.ga, seed=config.seed)
    report = solution_report(problem, solution, config.ga, config.seed)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "optimize_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        tabular.write_csv(out_dir / "optimize_solution.csv",
                          ("x_pv_m2", "x_turbine_m2", "pv_mw", "turbines",
                           "wind_mw", "objective", "objective_rounded",
                           "pos_mwh", "neg_mwh", "util_mwh"),
                          [(solution.x_pv_m2, solution.x_turbine_m2,
                            solution.pv_mw, solution.turbines,
                            solution.turbines * TURBINE_UNIT_MW,
                            solution.objective, solution.objective_rounded,
                            solution.terms.pos_mismatch,
                            solution.terms.neg_mismatch,
                            solution.terms.utilisation)])
    return problem, solution, report
