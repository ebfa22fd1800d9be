"""End-to-end experiment drivers: capacity sweep, category study and mix search.

`classify` and `optimize` are imported by the drivers that use them, so the
sweep loads neither.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import tabular
from .config import SimulationConfig, assemble
from .demand import MIXED, RESIDENTIAL_ONLY, build_load_cases
from .generation import (TURBINE_UNIT_MW, area_budget_totals, capacity_coefficients,
                         generation_mw, pv_unit_series, wind_unit_series)
from .ingest import _read_only
from .metrics import AggregateMetrics, delta_mismatch, hourly_split
from .stats import StatsError, apply_holm, welch_t_test

if TYPE_CHECKING:
    from . import classify
    from .optimize import MixProblem

SWEEP_TEST_METRICS = ("pos_mwh", "neg_mwh", "util_mwh", "self_consumption")
DELTA_METRICS = SWEEP_TEST_METRICS[:3]
CATEGORY_METRICS = ("mismatch", "utilisation", "self_consumption")
LOAD_CASES = (RESIDENTIAL_ONLY, MIXED)

METRIC_HEADER = ("scenario_pv_mw", "scenario_wind_mw", "load_case",
                 "pos_mwh", "neg_mwh", "util_mwh", "self_consumption")
CATEGORY_HEADER = ("day_kind", "time_band", "solar_bin", "wind_bin",
                   "hours", "metric", "mean", "sum")
SIGNIFICANCE_COLUMNS = ("t", "dof", "p", "reject_holm")


class Prepared(NamedTuple):
    """A configuration's inputs resolved into the columns every scenario shares."""
    config: SimulationConfig
    service_mix: dict       # building type -> per-100k count
    household: np.ndarray   # kW, one value per calendar hour
    service: np.ndarray     # kW, the service mix's reference profiles summed
    phi: float
    load_r_mw: np.ndarray   # MW, phi · household
    load_m_mw: np.ndarray   # MW, household + service
    pv_unit: np.ndarray     # W per m² of panel
    wind_unit: np.ndarray   # kW per turbine


def prepare(config: SimulationConfig) -> Prepared:
    weather, service_mix, household, service = assemble(config)
    residential, mixed, phi = build_load_cases(household, service)
    return Prepared(config, service_mix, household, service, phi,
                    _read_only(residential / 1000.0), _read_only(mixed / 1000.0),
                    pv_unit_series(weather, config.pv),
                    wind_unit_series(weather, config.turbine))


def capacity_axis(max_mw: float, steps: int) -> tuple:
    """Evenly spaced capacities from zero to the maximum, inclusive."""
    return tuple(float(v) for v in np.linspace(0.0, max_mw, steps))


# Columns of ScenarioGrid.table, one row per scenario.
_SUMS = slice(0, 8)          # ΣM⁺, ΣM⁻, ΣU, ΣG: residential, then mixed
_TESTS = slice(8, 20)        # t, dof, p per SWEEP_TEST_METRICS; NaN t where untestable
_DELTAS = slice(20, 23)      # annual sum of mixed minus residential per DELTA_METRICS
TABLE_WIDTH = 23


class ScenarioGrid(NamedTuple):
    """Sweep results in columns: one ``table`` row per scenario (see _SUMS,
    _TESTS, _DELTAS) and one ``reject`` row of Holm flags per scenario, in
    the sweep's order over the ``caps`` axis, PV outer and wind inner.
    """
    caps: tuple
    phi: float
    n_hours: int
    table: np.ndarray     # (scenarios, TABLE_WIDTH) float64
    reject: np.ndarray    # (scenarios, len(SWEEP_TEST_METRICS)) bool


def evaluate_cell(pv_mw: float, wind_mw: float, prep: Prepared) -> list:
    """The scenario's ScenarioGrid.table row: TABLE_WIDTH floats in _SUMS,
    _TESTS, _DELTAS order, tested as the config's ``pooled`` says."""
    pooled = prep.config.pooled
    area, turbines = capacity_coefficients(pv_mw, wind_mw, prep.config.pv)
    g = generation_mw(area, turbines, prep.pv_unit, prep.wind_unit)
    split_r = hourly_split(g, prep.load_r_mw)
    split_m = hourly_split(g, prep.load_m_mw)

    row = [*split_r.annual(), *split_m.annual()]
    deltas = []
    for a, b in ((split_r.positive, split_m.positive),
                 (split_r.negative, split_m.negative),
                 (split_r.utilisation, split_m.utilisation)):
        row += welch_t_test(a, b, pooled=pooled)
        deltas.append(float((b - a).sum()))
    # hourly self-consumption U/G over the lit hours only (G > 0); with no
    # lit hour both samples are empty and the test is untestable
    lit = g > 0
    g_lit = g[lit]
    row += welch_t_test(split_r.utilisation[lit] / g_lit,
                        split_m.utilisation[lit] / g_lit, pooled=pooled)
    return row + deltas


def run_experiment1(config: SimulationConfig, out_dir=None) -> ScenarioGrid:
    """Full capacity sweep: both load cases per cell, Holm-corrected tests.

    Cells are evaluated one at a time in a fixed order, PV outer and wind
    inner, each straight into its table row.
    """
    prep = prepare(config)
    caps = capacity_axis(config.sweep_max_mw, config.sweep_steps)
    table = np.empty((len(caps) ** 2, TABLE_WIDTH))
    for row, (pv, wind) in enumerate(itertools.product(caps, caps)):
        try:
            table[row] = evaluate_cell(pv, wind, prep)
        except StatsError as exc:
            raise StatsError(f"{exc} at {pv!r} MW PV and {wind!r} MW wind") from None

    # Holm families: one correction across all scenarios per metric, on the
    # table's p columns.
    reject = np.empty((len(table), len(SWEEP_TEST_METRICS)), dtype=bool)
    p_values = table[:, _TESTS][:, 2::3]
    for k in range(len(SWEEP_TEST_METRICS)):
        reject[:, k] = apply_holm(p_values[:, k], alpha=config.alpha)

    grid = ScenarioGrid(caps=caps, phi=prep.phi, n_hours=len(prep.load_r_mw),
                        table=table, reject=reject)
    if out_dir is not None:
        write_experiment1_tables(grid, out_dir)
    return grid


# Scenarios per block when the sweep tables are written.
_BLOCK = 256


class _LongRows:
    """One sweep table: ``row((pv, wind, label), *values)`` per scenario and
    label, in table order, where the table's ``columns`` hold one equal group
    of values per label and ``flags`` (scenarios, labels), if given, adds one
    more. Each pass makes the rows one block of scenarios at a time, so only
    a block's rows exist at once; the length takes no pass.
    """

    def __init__(self, grid: ScenarioGrid, columns: slice, labels: tuple, row,
                 flags: np.ndarray | None = None):
        self.grid, self.columns, self.labels, self.row = grid, columns, labels, row
        self.flags = flags

    def __len__(self) -> int:
        return len(self.grid.table) * len(self.labels)

    def __iter__(self):
        table, labels = self.grid.table, self.labels
        keys = itertools.product(self.grid.caps, self.grid.caps, labels)
        for start in range(0, len(table), _BLOCK):
            block = table[start:start + _BLOCK, self.columns]
            values = block.reshape(len(block) * len(labels), -1).T.tolist()
            if self.flags is not None:
                values.append(self.flags[start:start + _BLOCK].ravel().tolist())
            yield from map(self.row, itertools.islice(keys, len(values[0])), *values)


def _joined(key, *values) -> tuple:
    return (*key, *values)


def _metric_row(key, *sums) -> tuple:
    agg = AggregateMetrics(*sums)
    return (*key, agg.pos_mismatch, agg.neg_mismatch, agg.utilisation,
            agg.self_consumption)


def write_experiment1_tables(grid: ScenarioGrid, out_dir) -> list:
    """The three sweep tables, each streamed from the grid's columns. An
    untestable test's NaN t and dof write empty cells, as None does; a delta's
    hourly mean is its annual sum over the year's hours, as ndarray.mean divides."""
    out_dir = Path(out_dir)
    return [
        tabular.write_csv(out_dir / "sweep_metrics.csv", METRIC_HEADER,
                          _LongRows(grid, _SUMS, LOAD_CASES, _metric_row)),
        tabular.write_csv(out_dir / "sweep_significance.csv",
                          ("scenario_pv_mw", "scenario_wind_mw", "metric")
                          + SIGNIFICANCE_COLUMNS,
                          _LongRows(grid, _TESTS, SWEEP_TEST_METRICS, _joined,
                                    flags=grid.reject)),
        tabular.write_csv(out_dir / "sweep_deltas.csv",
                          ("scenario_pv_mw", "scenario_wind_mw", "metric",
                           "annual_sum_diff_mwh", "hourly_mean_diff_mw"),
                          _LongRows(grid, _DELTAS, DELTA_METRICS,
                                    lambda key, total: (*key, total, total / grid.n_hours))),
    ]


class Experiment2Result(NamedTuple):
    """The category study. Each per-category column holds one entry per
    category code, in the order of classify.all_category_keys; each metric's
    ``tests`` block has one row per code as the sweep holds it: t, dof and p,
    NaN t and dof where the test is untestable."""
    pv_mw: float
    wind_mw: float
    phi: float
    edges: classify.BinEdges
    keys: np.ndarray          # category code per hour
    counts: np.ndarray        # hours per category
    aggregates: dict          # (load_case, metric) -> (counts, sums) columns
    delta_aggregates: tuple   # (counts, sums) columns
    tests: dict               # metric -> (categories, 3) t, dof, p
    reject: dict              # metric -> Holm flags per category
    summary: dict


def run_experiment2(config: SimulationConfig, out_dir=None,
                    pv_mw: float | None = None,
                    wind_mw: float | None = None) -> Experiment2Result:
    """Category study at one installed mix (defaults to the config preset).

    Quantile edges come from the scenario's own percent-of-capacity series;
    categories then aggregate mismatch, utilisation, and self-consumption per
    load case, with Holm-corrected between-case tests per category.
    """
    from . import classify

    prep = prepare(config)
    if pv_mw is None:
        pv_mw = config.mix_pv_mw
    if wind_mw is None:
        wind_mw = config.mix_wind_mw
    calendar = config.calendar

    area, turbines = capacity_coefficients(pv_mw, wind_mw, config.pv)
    # One scenario row each for PV alone, wind alone and the whole mix.
    pv_gen, wind_gen, g = generation_mw([area, 0.0, area], [0, turbines, turbines],
                                        prep.pv_unit, prep.wind_unit)
    solar_pct = classify.percent_of_capacity(pv_gen, pv_mw)
    wind_pct = classify.percent_of_capacity(wind_gen, wind_mw)
    daylight = prep.pv_unit > 0
    edges = classify.compute_bins(solar_pct, wind_pct, daylight)
    keys = classify.classify_year(solar_pct, wind_pct, edges, calendar,
                                  holidays_as_weekend=config.holidays_as_weekend)
    counts = np.array(list(classify.category_counts(keys).values()))  # in code order

    hourly = {}
    for case_name, load in ((RESIDENTIAL_ONLY, prep.load_r_mw), (MIXED, prep.load_m_mw)):
        split = hourly_split(g, load)
        hourly[(case_name, "mismatch")] = split.mismatch
        hourly[(case_name, "utilisation")] = split.utilisation
        hourly[(case_name, "self_consumption")] = split.self_consumption()

    aggregates = {pair: classify.aggregate_by_category(keys, values)
                  for pair, values in hourly.items()}

    delta = delta_mismatch(prep.service / 1000.0, prep.household / 1000.0, prep.phi)
    delta_aggregates = classify.aggregate_by_category(keys, delta)

    tests, reject = {}, {}
    for metric in CATEGORY_METRICS:
        members_r = classify.member_values(keys, hourly[(RESIDENTIAL_ONLY, metric)])
        members_m = classify.member_values(keys, hourly[(MIXED, metric)])
        try:
            family = np.array([welch_t_test(a, b, pooled=config.pooled)
                               for a, b in zip(members_r, members_m)], dtype=float)
        except StatsError as exc:
            raise StatsError(f"{exc} at {pv_mw!r} MW PV and {wind_mw!r} MW wind") from None
        tests[metric] = family
        reject[metric] = apply_holm(family[:, 2], alpha=config.alpha)

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
                               tests=tests, reject=reject, summary=summary)
    if out_dir is not None:
        write_experiment2_tables(result, out_dir)
    return result


def write_experiment2_tables(result: Experiment2Result, out_dir) -> list:
    from . import classify

    out_dir = Path(out_dir)
    keys = classify.all_category_keys()
    paths = []
    # One CATEGORY_HEADER row per category from its (counts, sums) columns;
    # an empty category's mean is None.
    tables = [(f"categories_{case_name}_{metric}.csv", metric,
               result.aggregates[(case_name, metric)])
              for case_name in LOAD_CASES for metric in CATEGORY_METRICS]
    tables.append(("categories_delta_mismatch.csv", "delta_mismatch",
                   result.delta_aggregates))
    for name, metric, (counts, sums) in tables:
        paths.append(tabular.write_csv(
            out_dir / name, CATEGORY_HEADER,
            [(key.day_kind, key.time_band, key.solar_bin, key.wind_bin,
              n, metric, total / n if n else None, total)
             for key, n, total in zip(keys, counts.tolist(), sums.tolist())]))

    # Table-2 style occupancy matrix: one row per (day kind, band, solar bin),
    # the wind bin being the inner axis of the category codes.
    matrix = result.counts.reshape(-1, classify.N_BINS)
    matrix_rows = [(key.day_kind, key.time_band, key.solar_bin, *row, sum(row))
                   for key, row in zip(keys[::classify.N_BINS], matrix.tolist())]
    col_totals = matrix.sum(axis=0).tolist()
    matrix_rows.append(("all", "all", "all", *col_totals, sum(col_totals)))
    paths.append(tabular.write_csv(
        out_dir / "category_counts.csv",
        ("day_kind", "time_band", "solar_bin",
         *(f"wind_bin_{w}" for w in range(1, classify.N_BINS + 1)), "row_total"),
        matrix_rows))

    # An untestable result's NaN t and dof write empty cells.
    for metric in CATEGORY_METRICS:
        sig_rows = [(key.day_kind, key.time_band, key.solar_bin, key.wind_bin, metric,
                     t, dof, p, flag)
                    for key, (t, dof, p), flag in zip(keys, result.tests[metric].tolist(),
                                                      result.reject[metric].tolist())]
        paths.append(tabular.write_csv(
            out_dir / f"categories_significance_{metric}.csv",
            ("day_kind", "time_band", "solar_bin", "wind_bin", "metric")
            + SIGNIFICANCE_COLUMNS, sig_rows))

    paths.append(tabular.write_json(out_dir / "mix_summary.json", result.summary))
    return paths


def build_problem(prep: Prepared) -> MixProblem:
    """Area-constrained mix problem for the prepared inputs (mixed load)."""
    from .optimize import MixProblem

    config = prep.config
    budget = config.area
    if not budget.service_roofs:
        budget = budget._replace(service_roofs=config.scaling_fixture.roof_areas())
    a_roof = area_budget_totals(prep.service_mix, config.households, budget)
    return MixProblem(g_pv=prep.pv_unit,
                      g_turbine=prep.wind_unit,
                      load_mw=prep.load_m_mw,
                      a_roof_m2=a_roof,
                      phi_area=budget.phi_area,
                      weights=config.weights,
                      turbine_footprint_m2=budget.footprint_m2_per_turbine(TURBINE_UNIT_MW),
                      pv_rated_wm2=config.pv.rated_power_density_wm2,
                      sign_convention=config.sign_convention,
                      roof_only_pv=config.roof_only_pv)


def run_optimize(config: SimulationConfig, out_dir=None):
    """GA search for the best mix; returns (problem, solution, report dict)."""
    from .optimize import ga_optimize, solution_report

    prep = prepare(config)
    problem = build_problem(prep)
    solution = ga_optimize(problem, config.ga, seed=config.seed)
    report = solution_report(problem, solution, config.ga, config.seed)
    if out_dir is not None:
        out_dir = Path(out_dir)
        tabular.write_json(out_dir / "optimize_report.json", report)
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
