"""Area-constrained renewable mix optimization.

Decision variables are the PV area x_pv (m²) and the wind footprint area
x_turbine (m²). The objective combines annual positive mismatch, negative
mismatch, and utilisation with weights (p_pos, p_neg, p_ren); feasibility
is a box plus the shared-area constraint x_pv + x_turbine <= phi * A_roof.

A real-coded genetic algorithm does the searching; an exhaustive grid
oracle validates it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import GAConfig, OptimizeError, SimulationConfig, check_weights
from .generation import TURBINE_UNIT_MW, AreaBudget, PvParams, generation_mw
from .ingest import _row, checked_record
from .metrics import AggregateMetrics, annual_from_surplus, hourly_split
from .scaling import round_half_away


class MixProblem(checked_record(OptimizeError,
                               ("g_pv", np.ndarray, None),       # W per m² of panel
                               ("g_turbine", np.ndarray, None),  # kW per turbine
                               ("load_mw", np.ndarray, None),    # MW
                               ("a_roof_m2", float, "> 0"),
                               _row(AreaBudget, "phi_area"),
                               _row(SimulationConfig, "weights"),
                               _row(AreaBudget, "turbine_footprint_km2_per_mw",
                                    "turbine_footprint_m2",
                                    AreaBudget().footprint_m2_per_turbine(TURBINE_UNIT_MW)),
                               _row(PvParams, "rated_power_density_wm2", "pv_rated_wm2"),
                               _row(SimulationConfig, "sign_convention"),
                               _row(SimulationConfig, "roof_only_pv"))):
    __slots__ = ()

    def __new__(cls, g_pv, g_turbine, load_mw, *args, **kwargs):
        return super().__new__(cls, *(np.asarray(series, dtype=float)
                                      for series in (g_pv, g_turbine, load_mw)), *args, **kwargs)

    def _rules(self):
        for name, series in zip(self._fields, self[:3]):
            if series.ndim != 1:
                raise OptimizeError(f"{name} must be a 1-D hourly series, got shape {series.shape}")
            bad = np.flatnonzero(~(np.isfinite(series) & (series >= 0)))
            if len(bad):
                raise OptimizeError(f"{name} at hour {bad[0]} must be a finite number >= 0, "
                                    f"got {series[bad[0]]}")
        if not len(self.g_pv) == len(self.g_turbine) == len(self.load_mw):
            raise OptimizeError("profile length mismatch")
        check_weights(self.weights, OptimizeError)
        if not self.turbine_area_max / self.turbine_footprint_m2 < math.inf:
            raise OptimizeError(f"turbine_footprint_m2 must leave the turbine count of the "
                                f"{self.turbine_area_max!r} m² wind area finite, got "
                                f"{self.turbine_footprint_m2!r} m²")

    @property
    def pv_area_max(self) -> float:
        if self.roof_only_pv:
            return self.a_roof_m2
        return self.phi_area * self.a_roof_m2

    @property
    def turbine_area_max(self) -> float:
        return (self.phi_area - 1.0) * self.a_roof_m2

    @property
    def total_area_max(self) -> float:
        return self.phi_area * self.a_roof_m2

    def is_feasible(self, x_pv: float, x_turbine: float, tol: float = 0.0) -> bool:
        return (-tol <= x_pv <= self.pv_area_max + tol
                and -tol <= x_turbine <= self.turbine_area_max + tol
                and x_pv + x_turbine <= self.total_area_max + tol)


def _combined(terms: AggregateMetrics, problem: MixProblem):
    p_pos, p_neg, p_ren = problem.weights
    neg = terms.neg_mismatch
    if problem.sign_convention == "magnitude-neg":
        neg = abs(neg)
    return p_pos * terms.pos_mismatch + p_neg * neg + p_ren * terms.utilisation


def objective_terms(x, problem: MixProblem) -> AggregateMetrics:
    x_pv, x_turbine = float(x[0]), float(x[1])
    if not problem.is_feasible(x_pv, x_turbine, tol=1e-9 * problem.total_area_max):
        raise OptimizeError(f"point ({x_pv}, {x_turbine}) violates the area constraints")
    # turbine counts stay fractional (x_turbine / footprint) while searching
    g = generation_mw(x_pv, x_turbine / problem.turbine_footprint_m2,
                      problem.g_pv, problem.g_turbine)
    return hourly_split(g, problem.load_mw).annual()


def objective(x, problem: MixProblem) -> float:
    return _combined(objective_terms(x, problem), problem)


def _fitness(x_pv, x_turbine, problem: MixProblem) -> np.ndarray:
    """Objective at many points inside the box, 16 points per kernel call.

    M⁺ is summed only over the surplus hours, where the largest G in the box
    exceeds L: float operations are monotone, so no point in the box has a
    surplus in any other hour. ΣG is the generation formula applied to the
    year's per-unit sums. Small chunks keep the kernel's temporaries
    cache-sized; rows are independent, so the chunk size never changes a value.
    """
    footprint = problem.turbine_footprint_m2
    g_pv, g_turbine, load = problem.g_pv, problem.g_turbine, problem.load_mw
    turbines = x_turbine / footprint
    totals = generation_mw(x_pv, turbines, [g_pv.sum()], [g_turbine.sum()])[:, 0]
    total_load = load.sum()
    surplus = generation_mw(problem.pv_area_max, problem.turbine_area_max / footprint,
                            g_pv, g_turbine) > load
    g_pv, g_turbine, load = g_pv[surplus], g_turbine[surplus], load[surplus]
    chunk = 16
    out = np.empty(len(x_pv))
    for start in range(0, len(x_pv), chunk):
        sl = slice(start, start + chunk)
        g = generation_mw(x_pv[sl], turbines[sl], g_pv, g_turbine)
        out[sl] = _combined(annual_from_surplus(g, load, totals[sl], total_load), problem)
    return out


class MixSolution(NamedTuple):
    x_pv_m2: float
    x_turbine_m2: float
    pv_mw: float
    turbines: int
    objective: float
    objective_rounded: float
    terms: AggregateMetrics
    generations: int | None = None
    evaluations: int = 0


def _rounded_turbines(x_pv: float, x_turbine: float, problem: MixProblem) -> int:
    n = round_half_away(x_turbine / problem.turbine_footprint_m2)
    while n > 0 and not problem.is_feasible(x_pv, n * problem.turbine_footprint_m2):
        n -= 1
    return max(n, 0)


def _solution_at(x_pv: float, x_turbine: float, problem: MixProblem,
                 generations=None, evaluations=0) -> MixSolution:
    terms = objective_terms((x_pv, x_turbine), problem)
    f = _combined(terms, problem)
    turbines = _rounded_turbines(x_pv, x_turbine, problem)
    f_rounded = objective((x_pv, turbines * problem.turbine_footprint_m2), problem)
    return MixSolution(
        x_pv_m2=x_pv,
        x_turbine_m2=x_turbine,
        pv_mw=x_pv * problem.pv_rated_wm2 / 1e6,
        turbines=turbines,
        objective=f,
        objective_rounded=f_rounded,
        terms=terms,
        generations=generations,
        evaluations=evaluations,
    )


def _project(points: np.ndarray, problem: MixProblem) -> np.ndarray:
    """Map arbitrary points onto the feasible region (box clip + scale-down)."""
    pts = np.clip(points, 0.0, [problem.pv_area_max, problem.turbine_area_max])
    totals = pts.sum(axis=1)
    cap = problem.total_area_max
    over = totals > cap
    if np.any(over):
        scale = cap / totals[over]
        pts[over] *= scale[:, None]
    return pts


def ga_optimize(problem: MixProblem, config: GAConfig = GAConfig(),
                seed: int = 0) -> MixSolution:
    """Real-coded GA: tournament selection, blend crossover, Gaussian mutation.

    Infeasible offspring are projected back onto the constraint set.
    Terminates when the best objective improves by less than
    ``stall_rel_tol`` (relative) over ``stall_generations`` generations.
    Fully deterministic for a fixed seed and config.
    """
    if problem.total_area_max <= 0:
        raise OptimizeError("feasible region is empty")
    widest = max(problem.pv_area_max, problem.turbine_area_max)
    # a child's blend interval spans up to 1 + 2 blend_alpha parent spans
    for name, factor in (("blend_alpha", 1.0 + 2.0 * config.blend_alpha),
                         ("mutation_sigma_frac", config.mutation_sigma_frac)):
        if not factor * widest < math.inf:
            raise OptimizeError(f"{name} must keep the search's steps over the {widest!r} m² "
                                f"range finite, got {getattr(config, name)!r}")
    rng = np.random.default_rng(seed)
    n = config.population
    ranges = np.array([problem.pv_area_max, problem.turbine_area_max])
    sigma = config.mutation_sigma_frac * ranges

    pop = _project(rng.uniform(0.0, 1.0, size=(n, 2)) * ranges, problem)
    fitness = _fitness(pop[:, 0], pop[:, 1], problem)
    evaluations = n
    best_history = [float(fitness.min())]
    generation = 0

    for generation in range(1, config.max_generations + 1):
        order = np.argsort(fitness, kind="stable")
        pop, fitness = pop[order], fitness[order]

        children = np.empty_like(pop)
        children[:config.elite] = pop[:config.elite]
        # a mutation step past the double range is projected like any other
        with np.errstate(over="ignore"):
            for i in range(config.elite, n):
                pa = pop[rng.integers(0, n, size=config.tournament_k).min()]
                pb = pop[rng.integers(0, n, size=config.tournament_k).min()]
                lo = np.minimum(pa, pb)
                hi = np.maximum(pa, pb)
                span = hi - lo
                child = rng.uniform(lo - config.blend_alpha * span,
                                    hi + config.blend_alpha * span)
                mutate = rng.uniform(size=2) < config.mutation_rate
                children[i] = child + mutate * rng.normal(0.0, 1.0, size=2) * sigma
        pop = _project(children, problem)
        fitness = _fitness(pop[:, 0], pop[:, 1], problem)
        evaluations += n

        best_history.append(float(fitness.min()))
        if len(best_history) > config.stall_generations:
            then = best_history[-1 - config.stall_generations]
            now = best_history[-1]
            scale = max(abs(then), 1e-12)
            if (then - now) / scale < config.stall_rel_tol:
                break

    best_idx = int(np.argmin(fitness))
    x_pv, x_turbine = float(pop[best_idx, 0]), float(pop[best_idx, 1])
    return _solution_at(x_pv, x_turbine, problem,
                        generations=generation, evaluations=evaluations)


def grid_oracle(problem: MixProblem, resolution: int = 200) -> MixSolution:
    """Best feasible point on a regular grid, by exhaustive evaluation."""
    if resolution < 2:
        raise OptimizeError(f"resolution must be at least 2, got {resolution}")
    xs = np.linspace(0.0, problem.pv_area_max, resolution)
    ys = np.linspace(0.0, problem.turbine_area_max, resolution)
    grid_pv, grid_wt = np.meshgrid(xs, ys, indexing="ij")
    flat_pv = grid_pv.ravel()
    flat_wt = grid_wt.ravel()
    feasible = flat_pv + flat_wt <= problem.total_area_max * (1 + 1e-12)
    flat_pv, flat_wt = flat_pv[feasible], flat_wt[feasible]
    values = _fitness(flat_pv, flat_wt, problem)
    best = int(np.argmin(values))
    return _solution_at(float(flat_pv[best]), float(flat_wt[best]), problem,
                        evaluations=len(flat_pv))


def solution_report(problem: MixProblem, solution: MixSolution,
                    config: GAConfig, seed: int) -> dict:
    """JSON-ready report: chosen point, slacks, objective decomposition, and
    the GA settings and seed that found it."""
    return {
        "x_pv_m2": solution.x_pv_m2,
        "x_turbine_m2": solution.x_turbine_m2,
        "pv_mw": solution.pv_mw,
        "turbines": solution.turbines,
        "wind_mw": solution.turbines * TURBINE_UNIT_MW,
        "objective": solution.objective,
        "objective_rounded_turbines": solution.objective_rounded,
        "terms": {
            "pos_mismatch_mwh": solution.terms.pos_mismatch,
            "neg_mismatch_mwh": solution.terms.neg_mismatch,
            "utilisation_mwh": solution.terms.utilisation,
        },
        "constraint_slacks_m2": {
            "pv_area": problem.pv_area_max - solution.x_pv_m2,
            "turbine_area": problem.turbine_area_max - solution.x_turbine_m2,
            "total_area": problem.total_area_max - solution.x_pv_m2 - solution.x_turbine_m2,
        },
        "weights": list(problem.weights),
        "sign_convention": problem.sign_convention,
        "generations": solution.generations,
        "evaluations": solution.evaluations,
        "seed": seed,
        "ga_config": config._asdict(),
    }
