"""End-to-end acceptance battery.

Each test covers one contract item and prints a single PASS/FAIL line, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist. The checks
run on the shipped fixtures only; the national-demand level checks require
real measured inputs and report as skipped here.
"""

import filecmp
import json
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np

from generation_oracle import wind_hour
from optimize_oracle import tournament_comparison
from urbanmix.classify import all_category_keys, classify_year, compute_bins
from urbanmix.cli import main
from urbanmix.config import GAConfig, default_config
from urbanmix.demand import build_load_cases
from urbanmix.experiments import _SUMS, capacity_axis, prepare, run_experiment1
from urbanmix.generation import TurbineParams, capacity_coefficients, generation_mw
from urbanmix.ingest import Calendar
from urbanmix.metrics import AggregateMetrics, hourly_split
from urbanmix.optimize import MixProblem, ga_optimize, grid_oracle, solution_report
from urbanmix.scaling import build_service_mix
from urbanmix.stats import apply_holm, welch_t_test
from urbanmix.validation import national_total_check, reconcile_published

mpmath.mp.dps = 40


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_01_reference_mix_and_reconciliation():
    with verdict("criterion 01 reference-mix counts + reconciliation"):
        start = time.monotonic()
        config = default_config()
        fixture = config.scaling_fixture
        mix = build_service_mix(fixture)
        assert list(mix.values()) == [3, 1, 16, 9, 47, 6, 32, 9, 177, 12, 170, 189, 163]
        report = reconcile_published(fixture)
        assert set(report.inconsistencies) == set(fixture.documented_inconsistencies)
        assert len(report.inconsistencies) == 4
        assert time.monotonic() - start < 1.0


def test_criterion_02_phi_value():
    with verdict("criterion 02 phi from annual energies"):
        household, service = (np.full(8760, kwh / 8760) for kwh in (3.49982, 7.10481 - 3.49982))
        _, _, phi = build_load_cases(household, service)
        assert abs(phi - 2.03005) < 5e-6


def test_criterion_03_wind_power_points():
    with verdict("criterion 03 wind power curve points"):
        params = TurbineParams()

        def kw(v0, rho=1.225):
            # the turbine's output in the first hour of a padded 2014 year
            pressure = rho * 287.05 * (15.0 + 273.15)
            return wind_hour(wind=v0, temp=15.0, pressure=pressure, params=params)

        assert kw(1.0) == 0.0
        # 24 m/s at 10 m exceeds the 25 m/s cut-out after shear correction
        assert kw(24.0) == 0.0
        # hand evaluation of the kinetic-power form at the hub speed
        v_hub = 6.0 * (50.0 / 10.0) ** 0.15
        hand_kw = 0.5 * 1.225 * 2290.0 * v_hub ** 3 * 0.35 / 1000.0
        got = kw(6.0)
        assert abs(got - hand_kw) < 1e-9
        assert abs(got - 218.8) < 0.5
        assert kw(10.0) == 500.0


def test_criterion_04_metric_identities():
    with verdict("criterion 04 mismatch identities on random pairs"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(1, 40))
            g = rng.uniform(0.0, 200.0, n)
            load = rng.uniform(0.0, 200.0, n)
            agg = hourly_split(g, load).annual()
            balance = float(g.sum() - load.sum())
            scale = max(abs(balance), agg.pos_mismatch, abs(agg.neg_mismatch), 1.0)
            assert abs((agg.pos_mismatch + agg.neg_mismatch) - balance) / scale < 1e-9
            # brute-force the per-hour minimum; sum with the same pairwise
            # accumulation so the comparison stays bitwise exact
            brute = np.array([min(a, b) for a, b in zip(g, load)])
            assert agg.utilisation == float(brute.sum())
            if g.sum() > 0:
                assert 0.0 <= agg.self_consumption <= 1.0
            else:
                assert agg.self_consumption is None
        assert time.monotonic() - start < 5.0


def test_criterion_05_load_case_delta_is_generation_free():
    with verdict("criterion 05 load-case mismatch delta independent of generation"):
        start = time.monotonic()
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = 128
            # lattice draws keep every subtraction exactly representable
            h = rng.integers(1, 2 ** 20, n).astype(float) / 1024.0
            s = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
            phi = float(rng.integers(1024, 4096)) / 1024.0
            g1 = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
            g2 = rng.integers(0, 2 ** 20, n).astype(float) / 1024.0
            load_r = phi * h
            load_m = h + s
            d1 = hourly_split(g1, load_r).mismatch - hourly_split(g1, load_m).mismatch
            d2 = hourly_split(g2, load_r).mismatch - hourly_split(g2, load_m).mismatch
            assert np.array_equal(d1, d2)
        assert time.monotonic() - start < 1.0


def test_criterion_06_classifier_equal_fill():
    with verdict("criterion 06 tie-free classifier bins"):
        start = time.monotonic()
        cal = Calendar(2014)
        rng = np.random.default_rng(66)
        # continuous draws are tie-free with probability one; verify anyway
        wind = rng.uniform(0.0, 100.0, cal.n_hours)
        assert len(np.unique(wind)) == cal.n_hours
        solar = rng.uniform(0.0, 100.0, cal.n_hours)
        edges = compute_bins(solar, wind, np.ones(cal.n_hours, dtype=bool))
        keys = [all_category_keys()[code] for code in classify_year(solar, wind, edges,
                                                                     cal).tolist()]
        wind_fill = {b: 0 for b in range(1, 6)}
        for key in keys:
            wind_fill[key.wind_bin] += 1
        assert wind_fill == {1: 1752, 2: 1752, 3: 1752, 4: 1752, 5: 1752}
        assert len(keys) == 8760
        assert len(all_category_keys()) == 150
        assert set(keys) <= set(all_category_keys())
        assert time.monotonic() - start < 1.0


def test_criterion_07_holm_oracle():
    with verdict("criterion 07 familywise step-down correction"):
        start = time.monotonic()

        def oracle(p_values, alpha):
            m = len(p_values)
            order = sorted(range(m), key=lambda i: p_values[i])
            out = [False] * m
            for rank, i in enumerate(order):
                if p_values[i] <= alpha / (m - rank):
                    out[i] = True
                else:
                    break
            return out

        rng = np.random.default_rng(77)
        for _ in range(1000):
            m = int(rng.integers(1, 60))
            p = rng.uniform(0.0, 1.0, m)
            alpha = float(rng.uniform(0.005, 0.25))
            assert apply_holm(p, alpha=alpha).tolist() == oracle(list(p), alpha)
        assert apply_holm([0.01, 0.02, 0.04], alpha=0.05).tolist() == [
            True, True, True]
        assert time.monotonic() - start < 1.0


def test_criterion_08_welch_p_oracle():
    with verdict("criterion 08 t-test p-values vs high-precision oracle"):
        start = time.monotonic()
        rng = np.random.default_rng(88)
        for _ in range(100):
            na = int(rng.integers(3, 200))
            nb = int(rng.integers(3, 200))
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), na)
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), nb)
            res = welch_t_test(a, b)
            x = mpmath.mpf(res.dof) / (res.dof + mpmath.mpf(res.t_stat) ** 2)
            oracle = float(mpmath.betainc(mpmath.mpf(res.dof) / 2,
                                          mpmath.mpf("0.5"), 0, x,
                                          regularized=True))
            assert abs(res.p_value - oracle) < 1e-9
        assert time.monotonic() - start < 1.0


def test_criterion_09_optimizer_vs_grid(pv_unit, wind_unit, household_series,
                                        service_series):
    with verdict("criterion 09 optimizer within 2% of exhaustive grid"):
        start = time.monotonic()
        load_mw = (household_series + service_series) / 100.0 / 1000.0
        problem = MixProblem(
            g_pv=pv_unit,
            g_turbine=wind_unit,
            load_mw=load_mw,
            a_roof_m2=5_130_333.0 / 100.0,
        )
        oracle = grid_oracle(problem, resolution=200)
        solution = ga_optimize(problem, seed=0)
        assert tournament_comparison(solution, oracle, rel_tol=0.02)
        assert problem.is_feasible(solution.x_pv_m2, solution.x_turbine_m2, tol=0.0)
        repeat = ga_optimize(problem, seed=0)
        assert repeat == solution
        report_a = json.dumps(solution_report(problem, solution, GAConfig(), 0), sort_keys=True)
        report_b = json.dumps(solution_report(problem, repeat, GAConfig(), 0), sort_keys=True)
        assert report_a == report_b
        assert time.monotonic() - start < 60.0


def test_criterion_10_sweep_shape(config2014):
    with verdict("criterion 10 capacity sweep shape"):
        start = time.monotonic()
        grid = run_experiment1(config2014)
        assert len(grid.table) == 121
        caps = capacity_axis(525.0, 11)
        assert grid.caps == caps
        assert caps[0] == 0.0
        assert caps[-1] == 525.0
        assert all(abs(b - a - 52.5) < 1e-9 for a, b in zip(caps, caps[1:]))
        origin = grid.table[0][_SUMS].tolist()    # the (0, 0) scenario
        for agg in (AggregateMetrics(*origin[:4]), AggregateMetrics(*origin[4:])):
            assert agg.pos_mismatch == 0.0
            assert agg.utilisation == 0.0
            assert agg.self_consumption is None
        assert time.monotonic() - start < 300.0


def test_criterion_11_directional_claims(config2014):
    with verdict("criterion 11 directional load-mixing effects"):
        prep = prepare(config2014)
        cal = config2014.calendar
        weekend = cal.weekend_kind(config2014.holidays_as_weekend)
        hour = cal.local_hour
        weekday_day = (~weekend) & (hour >= 8) & (hour < 16)
        weekday_evening = (~weekend) & (hour >= 16)

        # fixture preconditions: equal annual energy, evening-peaking
        # household, service concentrated in opening hours
        np.testing.assert_allclose(prep.load_r_mw.sum(), prep.load_m_mw.sum(),
                                   rtol=1e-9)
        h_prof = np.array([prep.household[(~weekend) & (hour == t)].mean()
                           for t in range(24)])
        assert 16 <= int(h_prof.argmax()) < 24
        s = prep.service
        assert s[weekday_day].mean() > 2.0 * s[(~weekend) & (hour < 8)].mean()

        for pv_mw, wind_mw in ((100.0, 0.0), (300.0, 0.0), (399.0, 30.0),
                               (52.5, 52.5), (0.0, 105.0), (525.0, 525.0)):
            area, turbines = capacity_coefficients(pv_mw, wind_mw, prep.config.pv)
            g = generation_mw(area, turbines, prep.pv_unit, prep.wind_unit)
            util_r = np.minimum(g, prep.load_r_mw)
            util_m = np.minimum(g, prep.load_m_mw)
            assert util_m[weekday_day].sum() >= util_r[weekday_day].sum()
            neg_r = np.minimum(g - prep.load_r_mw, 0.0)
            neg_m = np.minimum(g - prep.load_m_mw, 0.0)
            assert abs(neg_r[weekday_evening].sum()) < abs(neg_m[weekday_evening].sum())

        # absolute national level needs measured inputs; fixture run skips it
        national = national_total_check(prep.service,
                                        config2014.scaling_fixture.households_per_100k,
                                        config2014.benchmarks, config2014.real_inputs)
        assert national.skipped
        assert national.reason == "fixture-only, check skipped"


def test_criterion_12_run_determinism(tmp_path):
    with verdict("criterion 12 byte-identical reruns"):
        for subcommand, extra in (("sweep", []), ("classify", []),
                                  ("generation", [])):
            out_a = tmp_path / subcommand / "a"
            out_b = tmp_path / subcommand / "b"
            assert main(["--out", str(out_a), "--seed", "3", subcommand, *extra]) == 0
            assert main(["--out", str(out_b), "--seed", "3", subcommand, *extra]) == 0
            csvs = sorted(p.name for p in out_a.glob("*.csv"))
            assert csvs
            for name in csvs:
                assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
            jsons = sorted(p.name for p in out_a.glob("*.json"))
            for name in jsons:
                assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
