"""Command-line entry point.

Exit codes: 0 success, 2 validation failure, 1 I/O or configuration error.
Each command imports the modules it runs inside its handler, so a command
loads only what it uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (ConfigError, SimulationConfig, assemble_demand, assemble_weather,
                     default_config, load_config)
from .ingest import ValidationError, write_series


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this project reserves 2 for
    validation failures, so usage problems are rethrown as config errors."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    # Global flags are accepted both before and after the subcommand. The
    # shared parent suppresses defaults so a subparser never clobbers a value
    # given before the subcommand; real defaults live on the root namespace.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=argparse.SUPPRESS,
                        help="JSON run configuration (defaults are built in)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the configured random seed")
    common.add_argument("--out", type=Path, default=argparse.SUPPRESS,
                        help="output directory (default: ./out)")
    common.add_argument("--parallel", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; scenario evaluation "
                             "is serial")

    parser = _Parser(prog="urbanmix", parents=[common],
                     description="Urban electricity demand, renewable generation, "
                                 "and mix integration experiments.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("scale", parents=[common],
                   help="per-100k building mix and reconciliation report")
    sub.add_parser("profiles", parents=[common],
                   help="synthesize household/service demand and load cases")
    sub.add_parser("generation", parents=[common],
                   help="per-unit PV and wind generation series")
    sub.add_parser("sweep", parents=[common],
                   help="capacity scenario grid with significance tests")
    p_classify = sub.add_parser("classify", parents=[common],
                                help="time/weather category study at one mix")
    p_classify.add_argument("--pv-mw", type=float, default=argparse.SUPPRESS,
                            help="installed PV capacity (default: config preset)")
    p_classify.add_argument("--wind-mw", type=float, default=argparse.SUPPRESS,
                            help="installed wind capacity (default: config preset)")
    sub.add_parser("optimize", parents=[common],
                   help="area-constrained generation mix search")
    sub.add_parser("validate", parents=[common],
                   help="fixture reconciliation and model sanity battery")
    return parser


def _resolve_config(args) -> SimulationConfig:
    config = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return config


def cmd_scale(args, config: SimulationConfig) -> int:
    from . import tabular, validation
    from .scaling import build_service_mix

    fixture = config.scaling_fixture
    report = validation.reconcile_published(fixture)
    text = validation.render_reconciliation(report)
    print(text)

    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "scale_report.txt").write_text(text + "\n", encoding="utf-8")

    mix = build_service_mix(fixture)
    tabular.write_csv(out / "scale_mix_per_100k.csv",
                      ("building_type", "per_100k"), list(mix.items()))
    tabular.write_csv(out / "scale_reconciliation.csv", validation.ReconciliationRow._fields,
                      report.rows)
    if report.band_rows:
        tabular.write_csv(out / "scale_office_bands.csv", validation.BandRow._fields,
                          report.band_rows)
    return 0


def cmd_profiles(args, config: SimulationConfig) -> int:
    from . import tabular
    from .demand import MIXED, RESIDENTIAL_ONLY, build_load_cases

    _, household, service = assemble_demand(config)
    residential, mixed, phi = build_load_cases(household, service)
    out: Path = args.out
    write_series(household, out / "profiles_household.csv", value_column="kw")
    write_series(service, out / "profiles_service.csv", value_column="kw")
    write_series(residential, out / f"load_{RESIDENTIAL_ONLY}.csv", value_column="kw")
    write_series(mixed, out / f"load_{MIXED}.csv", value_column="kw")
    summary = {
        "phi": phi,
        "household_annual_kwh": float(household.sum()),
        "service_annual_kwh": float(service.sum()),
        "peak_residential_only_kw": float(residential.max()),
        "peak_mixed_kw": float(mixed.max()),
    }
    tabular.write_json(out / "profiles_summary.json", summary)
    print(f"phi = {phi!r}; wrote demand series to {out}")
    return 0


def cmd_generation(args, config: SimulationConfig) -> int:
    from . import tabular
    from .generation import pv_unit_series, wind_unit_series

    weather = assemble_weather(config)
    pv_unit = pv_unit_series(weather, config.pv)
    wind_unit = wind_unit_series(weather, config.turbine)
    out: Path = args.out
    write_series(pv_unit, out / "generation_pv_unit.csv", value_column="w_per_m2")
    write_series(wind_unit, out / "generation_wind_unit.csv", value_column="kw")
    summary = {
        "pv_annual_kwh_per_m2": float(pv_unit.sum()) / 1000.0,
        "wind_annual_mwh_per_turbine": float(wind_unit.sum()) / 1000.0,
        "pv_peak_w_per_m2": float(pv_unit.max()),
        "wind_peak_kw": float(wind_unit.max()),
    }
    tabular.write_json(out / "generation_summary.json", summary)
    print(f"wrote per-unit generation series to {out}")
    return 0


def cmd_sweep(args, config: SimulationConfig) -> int:
    from . import experiments

    grid = experiments.run_experiment1(config, out_dir=args.out)
    rejected = dict(zip(experiments.SWEEP_TEST_METRICS, grid.reject.sum(axis=0).tolist()))
    print(f"swept {len(grid.table)} scenarios "
          f"({len(grid.caps)}x{len(grid.caps)}); phi = {grid.phi!r}")
    print("Holm rejections per metric: "
          + ", ".join(f"{k}={v}" for k, v in rejected.items()))
    return 0


def cmd_classify(args, config: SimulationConfig) -> int:
    from . import experiments

    result = experiments.run_experiment2(config, out_dir=args.out,
                                         pv_mw=args.pv_mw, wind_mw=args.wind_mw)
    print(f"classified {config.calendar.n_hours} hours at mix ({result.pv_mw} MW PV, "
          f"{result.wind_mw} MW wind) into {len(result.counts)} categories")
    print(f"occupied categories: {int((result.counts > 0).sum())}; "
          f"tables written to {args.out}")
    return 0


def cmd_optimize(args, config: SimulationConfig) -> int:
    from . import experiments
    from .generation import TURBINE_UNIT_MW

    problem, solution, report = experiments.run_optimize(config, out_dir=args.out)
    print(f"best mix: {solution.pv_mw:.1f} MW PV "
          f"({solution.x_pv_m2:.0f} m2 panels), {solution.turbines} turbines "
          f"({solution.turbines * TURBINE_UNIT_MW:.1f} MW wind)")
    print(f"objective {solution.objective!r} "
          f"(rounded-turbine {solution.objective_rounded!r}) "
          f"after {solution.generations} generations")
    return 0


def cmd_validate(args, config: SimulationConfig) -> int:
    from . import experiments, validation
    from .demand import MIXED, RESIDENTIAL_ONLY, build_load_cases
    from .metrics import AggregateMetrics

    fixture = config.scaling_fixture
    lines = []
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"{status} {name}" + (f": {detail}" if detail else ""))

    report = validation.reconcile_published(fixture)
    flagged = set(report.inconsistencies)
    documented = set(fixture.documented_inconsistencies)
    check("reconciliation flags match documented set",
          flagged == documented,
          f"flagged={sorted(flagged)} documented={sorted(documented)}")

    prep = experiments.prepare(config)
    # the kW load cases: prep keeps only their MW copies
    kw_r, kw_m, phi = build_load_cases(prep.household, prep.service)
    residential, mixed = float(kw_r.sum()), float(kw_m.sum())
    check("load cases share annual energy",
          abs(residential - mixed) <= 1e-6 * mixed,
          f"residential={residential!r} mixed={mixed!r}")
    check("phi is positive and finite", 0 < phi < float("inf"), f"phi={phi!r}")

    sums = experiments.evaluate_cell(105.0, 105.0, prep)[experiments._SUMS]
    cases = ((RESIDENTIAL_ONLY, AggregateMetrics(*sums[:4]), prep.load_r_mw),
             (MIXED, AggregateMetrics(*sums[4:]), prep.load_m_mw))
    for case_name, agg, load in cases:
        balance = agg.pos_mismatch + agg.neg_mismatch
        expected = agg.generation - float(load.sum())
        denom = max(abs(expected), 1.0)
        check(f"energy balance holds ({case_name})",
              abs(balance - expected) <= 1e-9 * denom,
              f"pos+neg={balance!r} vs G-L={expected!r}")

    national = validation.national_total_check(
        prep.service, households_per_100k=fixture.households_per_100k,
        benchmarks=config.benchmarks, real_inputs=config.real_inputs)
    if national.skipped:
        lines.append(f"SKIP national demand benchmarks: {national.reason}")
    else:
        for bench in config.benchmarks:
            ratio = national.ratios[bench.name]
            expected = {"PBL": 0.80, "CBS": 0.88}.get(bench.name)
            if expected is None:
                lines.append(f"INFO {bench.name}: modeled/published = {ratio:.3f}")
            else:
                check(f"national demand ratio vs {bench.name}",
                      abs(ratio - expected) <= 0.02,
                      f"ratio={ratio:.3f} expected~{expected:.2f}")
        check("national service demand near 26.9 TWh",
              national.modeled_twh is not None
              and abs(national.modeled_twh - 26.9) <= 0.02 * 26.9,
              f"modeled={national.modeled_twh}")

    text = "\n".join(lines)
    print(text)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "validate_report.txt").write_text(text + "\n", encoding="utf-8")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    print("all checks passed")
    return 0


_HANDLERS = {
    "scale": cmd_scale,
    "profiles": cmd_profiles,
    "generation": cmd_generation,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
}


_FLAG_DEFAULTS = {"config": None, "seed": None, "out": Path("out"),
                  "pv_mw": None, "wind_mw": None}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in _FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        config = _resolve_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
