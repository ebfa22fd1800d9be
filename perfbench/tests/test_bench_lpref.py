from lpref import exact_optimum
from urbanmix import experiments
from urbanmix.config import default_config
from urbanmix.optimize import ga_optimize, grid_oracle


def test_lp_reference_is_no_worse_than_grid_or_ga():
    config = default_config()
    problem = experiments.build_problem(experiments.prepare(config))
    x_pv, x_wt, best = exact_optimum(problem)
    assert problem.is_feasible(x_pv, x_wt)
    scale = abs(best)
    assert best <= grid_oracle(problem, 50).objective + 1e-12 * scale
    assert best <= ga_optimize(problem, config.ga, seed=config.seed).objective + 1e-9 * scale
