"""urbanmix benchmark: closed-loop CLI workloads and an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's urbanmix commands as subprocesses, one after
another, for S seconds, checks every output, and reports the end-to-end
metrics. --trace 1 runs the same commands in-process, untraced and traced,
and reports the per-layer metrics. A human-readable table of every metric
comes first; the last line of standard output is one JSON object with the
metrics BENCHMARK.json declares. Inputs come only from the seed. Everything
the benchmark writes goes under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Children cache bytecode, as an installed package does, and a warm-up child
# compiles it before anything is timed. One BLAS thread: on a 2-vCPU box idle
# BLAS workers spinning up at numpy import made every command's import time
# swing by a quarter.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
       "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PY = sys.executable
RUN_LIMIT_S = 170.0          # every child is killed once the run is this old
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_PROBE = """\
import sys
from urbanmix import experiments
from urbanmix.config import default_config, load_config
path, seed = sys.argv[1], int(sys.argv[2])
experiments.prepare((load_config(path) if path else default_config()).with_seed(seed))
"""

sys.path.insert(0, str(SRC))
from checks import check_category_counts, check_sweep, check_validate, digests, ga_gap  # noqa: E402
from layers import UNITS, main_thread_self, span_metrics  # noqa: E402
from workloads import README_ORDER, WORKLOADS  # noqa: E402

T0 = time.perf_counter()


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """(seconds, exit code, peak RSS in MB) of one child process.

    Output goes to `log` (stdout) and `log`.err (stderr). The child is killed
    if the whole run outlives RUN_LIMIT_S.
    """
    with log.open("wb") as out, log.with_suffix(".err").open("wb") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(max(RUN_LIMIT_S - (began - T0), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: its workload, seed, generated inputs and references."""

    def __init__(self, workload, seed: int, trace: int):
        from urbanmix.config import default_config, load_config

        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        run_child([PY, "-c", "import urbanmix.cli"], self.dir / "warmup.log")
        self.config_path = workload.write_inputs(self.dir, seed)
        self.config = (load_config(self.config_path) if self.config_path
                       else default_config()).with_seed(seed)
        self.problem = self.exact = None
        if "optimize" in workload.commands:
            from lpref import exact_optimum
            from urbanmix import experiments

            self.problem = experiments.build_problem(experiments.prepare(self.config))
            self.exact = exact_optimum(self.problem)[2]
        self.reference_digests: dict = {}
        self.problems: list[str] = []
        self.ga_gap = None

    def argv(self, command: str, out: Path, parallel: int | None = None) -> list[str]:
        return self.workload.argv(command, self.config_path, self.seed, out, parallel)

    def check(self, command: str, exit_code: int, out: Path, stdout: str) -> bool:
        """Apply every output check to one finished command; True when it passed."""
        problems = [] if exit_code == 0 else [f"exit status {exit_code}"]
        try:
            found = digests(out)
            expected = self.reference_digests.setdefault(command, found)
            if found != expected:
                problems.append("output bytes differ from the first repetition")
            if command == "sweep":
                problems += check_sweep(out, self.config.sweep_steps)
            elif command == "classify":
                problems += check_category_counts(out)
            elif command == "validate":
                problems += check_validate(stdout)
            elif command == "optimize":
                self.ga_gap, gap_problems = ga_gap(out, self.problem, self.exact)
                problems += gap_problems
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        self.problems += [f"{command}: {p}" for p in problems]
        return not problems


def median(values):
    return statistics.median(values) if values else None


def setup_seconds(run: Run) -> list[float]:
    """Wall times of fresh processes that import urbanmix and prepare inputs."""
    argv = [PY, "-c", SETUP_PROBE, str(run.config_path or ""), str(run.seed)]
    times = []
    for i in range(SETUP_REPEATS):
        seconds, code, _ = run_child(argv, run.dir / f"setup{i}.log")
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               + (run.dir / f"setup{i}.err").read_text()[-2000:])
        times.append(seconds)
    return times


def startup_seconds(run: Run) -> list[float]:
    """Wall times of fresh processes that only start Python and import urbanmix."""
    return [run_child([PY, "-c", "import urbanmix"], run.dir / f"start{i}.log")[0]
            for i in range(STARTUP_REPEATS)]


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, int, int]:
    """Closed loop over the workload's commands; (metrics, samples, attempted, failed)."""
    commands = run.workload.commands
    setup = setup_seconds(run)
    latencies = {c: [] for c in commands}
    walls, peak_rss = [], 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        it_dir = run.dir / f"iter{iteration}"
        it_dir.mkdir()
        finished = []
        began = time.perf_counter()
        for command in commands:
            out = it_dir / command
            elapsed, code, rss = run_child([PY, "-m", "urbanmix.cli", *run.argv(command, out)],
                                           it_dir / f"{command}.log")
            latencies[command].append(elapsed)
            peak_rss = max(peak_rss, rss)
            finished.append((command, code, out))
        walls.append(time.perf_counter() - began)
        for command, code, out in finished:
            stdout = (it_dir / f"{command}.log").read_text(errors="replace")
            attempted += 1
            failed += not run.check(command, code, out, stdout)
        shutil.rmtree(it_dir)
        iteration += 1
        if time.perf_counter() >= deadline:
            break

    metrics = {"wall_s": median(walls), "setup_s": median(setup), "peak_rss_mb": peak_rss}
    for command in README_ORDER:
        metrics[f"{command}_s"] = median(latencies.get(command, []))
    sweep_s = metrics["sweep_s"]
    steps = run.config.sweep_steps
    metrics["scenarios_per_s"] = steps * steps / sweep_s if sweep_s else None
    metrics["ga_gap_rel"] = run.ga_gap
    metrics["ops_failed_ratio"] = failed / attempted
    metrics["iterations"] = iteration
    samples = {"wall_s": walls, "setup_s": setup, **{f"{c}_s": v for c, v in latencies.items()}}
    return metrics, samples, attempted, failed


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "scenarios_per_s": "1/s", "ga_gap_rel": "ratio", "ops_failed_ratio": "ratio",
             "iterations": "count", **{f"{c}_s": "s" for c in README_ORDER}}


def import_probes(run: Run) -> dict:
    """Interpreter start plus `import urbanmix`, and -X importtime splits."""
    total, scipy = [], []
    for i in range(IMPORT_REPEATS):
        log = run.dir / f"importtime{i}.log"
        run_child([PY, "-X", "importtime", "-c", "import urbanmix"], log)
        rows = parse_importtime(log.with_suffix(".err").read_text())
        total.append(sum(cum for cum, depth, name in rows if name == "urbanmix" and depth == 0))
        scipy.append(outermost_cumulative(rows, "scipy"))
    return {"import.startup_s": median(startup_seconds(run)),
            "import.urbanmix_s": median(total) / 1e6, "import.scipy_s": median(scipy) / 1e6}


def parse_importtime(text: str) -> list[tuple[int, int, str]]:
    """(cumulative us, nesting depth, module) rows of `-X importtime` output."""
    # "import time: self [us] | cumulative | imported package", children first
    return [(int(m[2]), len(m[3]) // 2, m[4])
            for m in re.finditer(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", text)]


def outermost_cumulative(rows, package: str) -> int:
    """Cumulative import time of `package`'s modules not nested in another of them."""
    total, stack = 0, []     # stack of (depth, inside package) from the root down
    for cum, depth, name in reversed(rows):   # parents precede children when reversed
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name.split(".")[0] == package
        if mine and not inside:
            total += cum
        stack.append((depth, inside or mine))
    return total


def inproc(run: Run, label: str, traced: bool, parallel: int | None = None) -> dict:
    """One in-process run of every command of the workload, in a fresh child."""
    out_dir = run.dir / label
    out_dir.mkdir()
    commands = [run.argv(c, out_dir / c, parallel) for c in run.workload.commands]
    spec = {"commands": commands, "traced": traced,
            "summary": str(out_dir / "summary.json"), "spans": str(out_dir / "spans.json")}
    (out_dir / "spec.json").write_text(json.dumps(spec))
    _, code, _ = run_child([PY, str(HERE / "inproc.py"), str(out_dir / "spec.json")],
                           out_dir / "child.log")
    if code != 0:
        raise RuntimeError(f"in-process run exited {code}: "
                           + (out_dir / "child.err").read_text()[-2000:])
    return json.loads((out_dir / "summary.json").read_text())


def traced(run: Run, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    """Per-layer metrics from in-process runs; (metrics, samples, attempted, failed,
    design notes).

    Untraced and traced children alternate until `seconds` have passed; a
    workload that sweeps in parallel also runs its grid serially each round.
    """
    metrics = import_probes(run)
    plain, traced_runs, serial = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not traced_runs or time.perf_counter() < deadline:
        k = len(traced_runs)
        rounds = [(plain, inproc(run, f"plain{k}", False)),
                  (traced_runs, inproc(run, f"traced{k}", True))]
        if run.workload.parallel > 1:
            rounds.append((serial, inproc(run, f"serial{k}", False, parallel=1)))
        for runs, summary in rounds:
            runs.append(summary)
            for cmd in summary["commands"]:
                out = Path(cmd["argv"][cmd["argv"].index("--out") + 1])
                attempted += 1
                failed += not run.check(cmd["argv"][0], cmd["exit"], out, cmd["stdout"])
        for label in ("plain", "traced", "serial"):
            shutil.rmtree(run.dir / f"{label}{k}", ignore_errors=True)

    per_run = [span_metrics(s) for s in traced_runs]
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if None in values:
            metrics[name] = None
        else:  # counts repeat exactly; times take the median
            metrics[name] = values[0] if len(set(values)) == 1 else median(values)
    metrics["trace.inproc_wall_s"] = median([s["wall_s"] for s in plain])
    # Differences and ratios within a round, whose runs are adjacent in time.
    metrics["trace.overhead_s"] = median([t["wall_s"] - p["wall_s"]
                                          for p, t in zip(plain, traced_runs)])
    metrics["experiments.parallel_speedup"] = (
        median([s["wall_s"] / p["wall_s"] for p, s in zip(plain, serial)]) if serial else None)
    typical = sorted(traced_runs, key=lambda s: s["wall_s"])[(len(traced_runs) - 1) // 2]
    samples = {f"{label}_wall_s": [s["wall_s"] for s in runs]
               for label, runs in (("plain", plain), ("traced", traced_runs), ("serial", serial))}
    return metrics, samples, attempted, failed, design_notes(run, metrics, typical)


LAYER_UNITS = {**UNITS, "import.startup_s": "s", "import.urbanmix_s": "s",
               "import.scipy_s": "s", "trace.inproc_wall_s": "s", "trace.overhead_s": "s",
               "experiments.parallel_speedup": "ratio"}


def design_notes(run: Run, m: dict, summary: dict) -> list[str]:
    """Whether the traced run confirms why the workload was chosen.

    `summary` is the traced run with the median wall; shares are taken within it.
    """
    def share(name: str, part: float, whole: float) -> str:
        verdict = "holds" if part > 0.5 * whole else "DOES NOT HOLD"
        return f"design {name}: {part:.3f} s of {whole:.3f} s ({part / whole:.0%}) {verdict}"

    name = run.workload.name
    wall = summary["wall_s"]
    if name == "study-default":
        start = len(run.workload.commands) * m["import.startup_s"]
        return [share("interpreter start + import > 1/2 of command wall (est.)",
                      start, start + m["trace.inproc_wall_s"])]
    if name == "sweep-dense":
        part = main_thread_self(summary, ("stats.", "experiments.", "tabular."))
        return [share("stats+experiments+tabular main-thread self > 1/2 of traced wall",
                      part, wall),
                f"design parallel speedup (serial / --parallel {run.workload.parallel}): "
                f"{m['experiments.parallel_speedup']:.3f}"]
    if name == "files-single-diode":
        own = span_metrics(summary)
        part = (own["generation.pv_unit_s"] or 0.0) + (own["ingest.read_s"] or 0.0)
        return [share("pv_unit + ingest read > 1/2 of traced wall", part, wall)]
    return []


def environment(run: Run) -> dict:
    import numpy
    import scipy

    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or commit
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "urbanmix").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": source.hexdigest(), "seed": run.seed,
            "workload": run.workload.name, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "urbanmix" / "__init__.py").is_file():
        print(f"error: no urbanmix sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(WORKLOADS[args.workload], args.seed, args.trace)
    try:
        if args.trace:
            metrics, samples, attempted, failed, notes = traced(run, args.seconds)
            units, wanted = LAYER_UNITS, declared["per_layer"]
        else:
            metrics, samples, attempted, failed = end_to_end(run, args.seconds)
            units, wanted, notes = E2E_UNITS, declared["end_to_end"], []
        record = {"environment": environment(run), "attempted": attempted, "failed": failed,
                  "problems": run.problems, "metrics": metrics, "samples": samples,
                  "notes": notes, "digests": run.reference_digests}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.workload.name}-seed{run.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    env = record["environment"]
    print(f"workload {run.workload.name}  seed {run.seed}  trace {args.trace}  "
          f"commands attempted {attempted}  failed {failed}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}  commit {env['commit']}")
    for name in sorted(metrics):
        print(f"  {name:34s} {fmt(metrics[name]):>14s} {units.get(name, '')}")
    for note in notes:
        print(note)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted if metrics.get(m["name"]) is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
