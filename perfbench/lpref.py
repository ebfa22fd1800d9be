"""Exact optimum of the area-constrained mix problem, as a linear program.

Under the "magnitude-neg" convention, with M+ = sum_h max(G_h - L_h, 0),

    objective = (p_pos + p_neg - p_ren) * M+ + (p_ren - p_neg) * sum(G) + p_neg * sum(L)

because |M-| = M+ - sum(G) + sum(L) and utilisation = sum(G) - M+. The
weights make the coefficient on M+ positive, so one slack per hour with
u_h >= G_h(x) - L_h and u_h >= 0 gives an exact LP in (x_pv, x_turbine, u).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

KM2 = 1e6  # decision variables in km², which keeps the LP well scaled


def exact_optimum(problem) -> tuple[float, float, float]:
    """(x_pv m², x_turbine m², objective) at the exact optimum.

    The point is scored with urbanmix's own `optimize.objective`, so it is
    directly comparable with the GA's reported objective.
    """
    from urbanmix.optimize import objective

    p_pos, p_neg, p_ren = problem.weights
    m_coef = p_pos + p_neg - p_ren
    if problem.sign_convention != "magnitude-neg" or m_coef <= 0:
        raise ValueError("the LP form needs the magnitude-neg convention "
                         "and a positive coefficient on M+")
    # MW per km² of PV panel and per km² of turbine footprint, hour by hour.
    a_pv = problem.g_pv / 1e6 * KM2
    a_wt = problem.g_turbine / 1000.0 / problem.turbine_footprint_m2 * KM2
    n = len(problem.load_mw)

    cost = np.concatenate([[(p_ren - p_neg) * a_pv.sum(), (p_ren - p_neg) * a_wt.sum()],
                           np.full(n, m_coef)])
    hours = np.arange(n)
    rows = np.concatenate([hours, hours, hours, [n, n]])
    cols = np.concatenate([np.zeros(n, int), np.ones(n, int), hours + 2, [0, 1]])
    vals = np.concatenate([a_pv, a_wt, -np.ones(n), [1.0, 1.0]])
    a_ub = coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 2)).tocsr()
    b_ub = np.concatenate([problem.load_mw, [problem.total_area_max / KM2]])
    bounds = [(0.0, problem.pv_area_max / KM2), (0.0, problem.turbine_area_max / KM2)]
    bounds += [(0.0, None)] * n
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP reference failed: {res.message}")

    x_pv = min(max(res.x[0] * KM2, 0.0), problem.pv_area_max)
    x_wt = min(max(res.x[1] * KM2, 0.0), problem.turbine_area_max)
    over = x_pv + x_wt - problem.total_area_max
    if over > 0:  # solver tolerance only; shrink back onto the shared-area edge
        scale = problem.total_area_max / (x_pv + x_wt)
        x_pv, x_wt = x_pv * scale, x_wt * scale
    return x_pv, x_wt, objective((x_pv, x_wt), problem)
