import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimize_oracle import tournament_comparison
from urbanmix.config import ConfigError, default_config
from urbanmix.generation import generation_mw
from urbanmix.metrics import hourly_split
from urbanmix.optimize import (GAConfig, MixProblem, OptimizeError, _combined,
                               _fitness, _project, ga_optimize,
                               grid_oracle, objective, objective_terms,
                               solution_report)


@pytest.fixture(scope="module")
def desk_problem(pv_unit, wind_unit, household_series, service_series):
    # 1000-household slice of the 100k-household city
    load_mw = (household_series + service_series) / 100.0 / 1000.0
    return MixProblem(
        g_pv=pv_unit,
        g_turbine=wind_unit,
        load_mw=load_mw,
        a_roof_m2=5_130_333.0 / 100.0,
    )


def tiny_problem(n=48, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    g_pv = rng.uniform(0.0, 100.0, n)
    g_turbine = rng.uniform(0.0, 500.0, n)
    load = rng.uniform(0.5, 3.0, n)
    defaults = dict(g_pv=g_pv, g_turbine=g_turbine, load_mw=load,
                    a_roof_m2=50_000.0)
    defaults.update(kwargs)
    return MixProblem(**defaults)


def test_weight_sign_validation():
    with pytest.raises(OptimizeError, match="weights"):
        tiny_problem(weights=(-1.0, 1.0, -5.0))
    with pytest.raises(OptimizeError, match="weights"):
        tiny_problem(weights=(1.0, 0.0, -5.0))
    with pytest.raises(OptimizeError, match="weights"):
        tiny_problem(weights=(1.0, 1.0, 5.0))
    with pytest.raises(OptimizeError, match=r"^weights\[0\] must be a finite number, got nan$"):
        tiny_problem(weights=(float("nan"), 1.0, -5.0))
    with pytest.raises(OptimizeError, match=r"^weights\[2\] must be a finite number, got -inf$"):
        tiny_problem(weights=(1.0, 1.0, float("-inf")))
    with pytest.raises(OptimizeError, match=r"^weights must be a list of 3 values, "
                                            r"got \(1\.0, 1\.0, -5\.0, 0\.0\)$"):
        tiny_problem(weights=(1.0, 1.0, -5.0, 0.0))
    with pytest.raises(ConfigError,
                       match=r"^weights must be a list of 3 values, got \(1\.0, 1\.0\)$"):
        default_config()._replace(weights=(1.0, 1.0))


def test_problem_validation():
    with pytest.raises(OptimizeError, match=r"^a_roof_m2 must be > 0, got 0\.0$"):
        tiny_problem(a_roof_m2=0.0)
    with pytest.raises(OptimizeError, match=r"^phi_area must be >= 1, got 0\.5$"):
        tiny_problem(phi_area=0.5)
    with pytest.raises(OptimizeError, match=r"^sign_convention must be one of "
                                            r"\('magnitude-neg', 'signed-neg'\), "
                                            r"got 'absolute'$"):
        tiny_problem(sign_convention="absolute")
    with pytest.raises(OptimizeError, match=r"^turbine_footprint_m2 must be a finite number, "
                                            r"got inf$"):
        tiny_problem(turbine_footprint_m2=float("inf"))
    with pytest.raises(OptimizeError, match="length"):
        MixProblem(g_pv=np.ones(10), g_turbine=np.ones(11),
                   load_mw=np.ones(10), a_roof_m2=1.0)
    load = np.ones(24)
    load[5] = np.nan
    with pytest.raises(OptimizeError, match=r"^load_mw at hour 5 must be a finite number >= 0, "
                                            r"got nan$"):
        tiny_problem(n=24, load_mw=load)
    with pytest.raises(OptimizeError, match=r"^g_pv must be a 1-D hourly series, "
                                            r"got shape \(2, 24\)$"):
        tiny_problem(n=24, g_pv=np.ones((2, 24)))
    with pytest.raises(OptimizeError, match=r"^g_turbine at hour 3 must be a finite number >= 0, "
                                            r"got -1\.0$"):
        tiny_problem(n=24, g_turbine=np.r_[np.ones(3), -1.0, np.ones(20)])
    with pytest.raises(OptimizeError, match=r"^g_pv at hour 23 must be a finite number >= 0, "
                                            r"got inf$"):
        tiny_problem(n=24, g_pv=np.r_[np.ones(23), np.inf])


def test_area_caps():
    p = tiny_problem(a_roof_m2=1000.0, phi_area=3.0)
    assert p.pv_area_max == 3000.0
    assert p.turbine_area_max == 2000.0
    assert p.total_area_max == 3000.0
    roof_only = tiny_problem(a_roof_m2=1000.0, roof_only_pv=True)
    assert roof_only.pv_area_max == 1000.0


def test_is_feasible_box_and_total():
    p = tiny_problem(a_roof_m2=1000.0)
    assert p.is_feasible(0.0, 0.0)
    assert p.is_feasible(3000.0, 0.0)
    assert p.is_feasible(1000.0, 2000.0)
    assert not p.is_feasible(3000.0, 1.0)       # total cap binds
    assert not p.is_feasible(-1.0, 0.0)
    assert not p.is_feasible(0.0, 2000.1)


def test_objective_terms_match_direct_computation():
    p = tiny_problem()
    x = (20_000.0, 30_000.0)
    terms = objective_terms(x, p)
    g = x[0] * p.g_pv / 1e6 + (x[1] / p.turbine_footprint_m2) * p.g_turbine / 1000.0
    m = g - p.load_mw
    assert terms.pos_mismatch == pytest.approx(float(np.maximum(m, 0).sum()), rel=1e-12)
    assert terms.neg_mismatch == pytest.approx(float(np.minimum(m, 0).sum()), rel=1e-12)
    assert terms.utilisation == pytest.approx(float(np.minimum(g, p.load_mw).sum()), rel=1e-12)
    assert terms.neg_mismatch <= 0.0


def test_objective_sign_conventions():
    p_mag = tiny_problem()
    p_signed = tiny_problem(sign_convention="signed-neg")
    x = (20_000.0, 30_000.0)
    terms = objective_terms(x, p_mag)
    f_mag = objective(x, p_mag)
    f_signed = objective(x, p_signed)
    assert f_mag - f_signed == pytest.approx(2.0 * abs(terms.neg_mismatch), rel=1e-9)


def test_objective_rejects_infeasible_point():
    p = tiny_problem(a_roof_m2=1000.0)
    with pytest.raises(OptimizeError, match="violates"):
        objective((5000.0, 0.0), p)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_objective_matches_pointwise(data):
    # _fitness sums M⁺ over the surplus hours only and takes ΣG from the
    # per-unit sums; it must agree with hourly_split over every hour, at
    # the box corners and on the shared-area edge too, where the mask is tight
    p = tiny_problem(n=data.draw(st.integers(1, 200), label="n"),
                     seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
                     a_roof_m2=data.draw(st.floats(1e3, 1e5), label="a_roof_m2"),
                     phi_area=data.draw(st.floats(1.0, 4.0), label="phi_area"),
                     weights=(data.draw(st.floats(1e-3, 1e3), label="p_pos"),
                              data.draw(st.floats(1e-3, 1e3), label="p_neg"),
                              -data.draw(st.floats(1e-3, 1e3), label="-p_ren")),
                     sign_convention=data.draw(st.sampled_from(["magnitude-neg", "signed-neg"]),
                                               label="sign_convention"),
                     roof_only_pv=data.draw(st.booleans(), label="roof_only_pv"))
    pv_max, wt_max, total = p.pv_area_max, p.turbine_area_max, p.total_area_max
    share = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
                               label="share"))
    edge_pv = np.minimum(share * total, pv_max)
    edge_wt = np.minimum(total - edge_pv, wt_max)
    inner = np.array(data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                        max_size=40), label="inner")).reshape(-1, 2)
    x_pv = np.r_[0.0, pv_max, 0.0, pv_max, edge_pv, inner[:, 0] * pv_max]
    x_wt = np.r_[0.0, 0.0, wt_max, wt_max, edge_wt, inner[:, 1] * wt_max]
    batch = _fitness(x_pv, x_wt, p)
    total_load = p.load_mw.sum()
    scale = sum(map(abs, p.weights))
    for i in range(len(x_pv)):
        g = generation_mw(x_pv[i], x_wt[i] / p.turbine_footprint_m2, p.g_pv, p.g_turbine)
        direct = _combined(hourly_split(g, p.load_mw).annual(), p)
        assert abs(batch[i] - direct) <= 1e-12 * scale * (g.sum() + total_load)


def test_project_feasible_points_unchanged():
    p = tiny_problem(a_roof_m2=1000.0)
    pts = np.array([[100.0, 200.0], [0.0, 0.0], [1000.0, 2000.0]])
    out = _project(pts.copy(), p)
    assert np.array_equal(out, pts)


def test_project_clips_and_scales():
    p = tiny_problem(a_roof_m2=1000.0)
    out = _project(np.array([[-50.0, 5000.0]]), p)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 2000.0
    out = _project(np.array([[2800.0, 1400.0]]), p)
    total = out.sum()
    assert total == pytest.approx(p.total_area_max)
    # direction is preserved under the scale-down
    assert out[0, 0] / out[0, 1] == pytest.approx(2.0)


def test_project_always_feasible():
    p = tiny_problem(a_roof_m2=777.0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5000.0, 9000.0, size=(500, 2))
    out = _project(pts, p)
    tol = 1e-9 * p.total_area_max
    for x_pv, x_wt in out:
        assert p.is_feasible(float(x_pv), float(x_wt), tol=tol)


def test_ga_config_validation():
    with pytest.raises(OptimizeError, match=r"^population must be >= 4, got 2$"):
        GAConfig(population=2)
    with pytest.raises(OptimizeError, match=r"^tournament_k must be <= population, "
                                            r"got 100 > 50$"):
        GAConfig(tournament_k=100)
    with pytest.raises(OptimizeError, match=r"^elite must be < population, got 50 >= 50$"):
        GAConfig(elite=50)


def test_grid_oracle_matches_brute_force():
    p = tiny_problem(n=96)
    res = 25
    oracle = grid_oracle(p, resolution=res)
    xs = np.linspace(0.0, p.pv_area_max, res)
    ys = np.linspace(0.0, p.turbine_area_max, res)
    best = None
    for x in xs:
        for y in ys:
            if x + y > p.total_area_max * (1 + 1e-12):
                continue
            f = objective((x, y), p)
            if best is None or f < best[0]:
                best = (f, x, y)
    assert oracle.objective == pytest.approx(best[0], rel=1e-12)
    assert oracle.x_pv_m2 == pytest.approx(best[1])
    assert oracle.x_turbine_m2 == pytest.approx(best[2])
    with pytest.raises(OptimizeError, match="resolution"):
        grid_oracle(p, resolution=1)


def test_ga_deterministic_for_fixed_seed():
    p = tiny_problem(n=96)
    a = ga_optimize(p, seed=42)
    b = ga_optimize(p, seed=42)
    assert a == b
    c = ga_optimize(p, seed=43)
    assert (c.x_pv_m2, c.x_turbine_m2) != (a.x_pv_m2, a.x_turbine_m2)


def test_ga_solution_feasible_and_rounded_turbines():
    p = tiny_problem(n=96)
    sol = ga_optimize(p, seed=1)
    assert p.is_feasible(sol.x_pv_m2, sol.x_turbine_m2, tol=1e-9 * p.total_area_max)
    assert sol.turbines >= 0
    assert p.is_feasible(sol.x_pv_m2, sol.turbines * p.turbine_footprint_m2)
    assert sol.pv_mw == pytest.approx(sol.x_pv_m2 * p.pv_rated_wm2 / 1e6)
    assert sol.generations is not None
    assert sol.evaluations >= 50


def test_ga_respects_max_generations():
    p = tiny_problem(n=48)
    sol = ga_optimize(p, config=GAConfig(max_generations=1), seed=0)
    assert sol.generations == 1
    assert sol.evaluations == 100


@pytest.mark.filterwarnings("error")
def test_ga_mutation_step_past_the_double_range_is_projected():
    # a mutation scale of 1.5e308 m² is finite, but most steps overflow; each
    # such child is projected onto the box like any other, with no warning
    p = tiny_problem(n=48)
    assert max(p.pv_area_max, p.turbine_area_max) == 150_000.0
    sol = ga_optimize(p, config=GAConfig(mutation_sigma_frac=1e303, max_generations=3), seed=0)
    assert p.is_feasible(sol.x_pv_m2, sol.x_turbine_m2, tol=1e-9 * p.total_area_max)


def test_ga_within_two_percent_of_grid_oracle(desk_problem):
    start = time.monotonic()
    oracle = grid_oracle(desk_problem, resolution=200)
    sol = ga_optimize(desk_problem, seed=0)
    elapsed = time.monotonic() - start
    assert tournament_comparison(sol, oracle, rel_tol=0.02)
    assert elapsed < 60.0


def test_tournament_comparison_semantics():
    base = tiny_problem(n=48)
    oracle = grid_oracle(base, resolution=10)
    assert tournament_comparison(oracle, oracle)
    worse = oracle._replace(objective=oracle.objective + abs(oracle.objective))
    assert not tournament_comparison(worse, oracle, rel_tol=0.02)


def test_solution_report_contents():
    p = tiny_problem(n=96)
    config = GAConfig()
    sol = ga_optimize(p, config=config, seed=7)
    report = solution_report(p, sol, config=config, seed=7)
    assert report["seed"] == 7
    assert report["wind_mw"] == sol.turbines * 0.5
    slacks = report["constraint_slacks_m2"]
    assert slacks["pv_area"] >= 0.0
    assert slacks["turbine_area"] >= 0.0
    assert slacks["total_area"] >= -1e-6 * p.total_area_max
    assert report["ga_config"]["population"] == 50
    assert report["terms"]["neg_mismatch_mwh"] <= 0.0
