"""The benchmark's workloads and the inputs each one generates from its seed.

Every workload is a closed loop with one client: each urbanmix command
starts only after the previous one has exited. Why each workload exists is
recorded in BENCHMARK.json; README.md maps layers to workloads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

README_ORDER = ("scale", "profiles", "generation", "sweep", "classify", "optimize", "validate")


def _builtin_config(work: Path, seed: int) -> Path | None:
    return None


def _dense_sweep_config(work: Path, seed: int) -> Path:
    path = work / "sweep_dense.json"
    path.write_text(json.dumps({"sweep": {"steps": 61}}) + "\n")
    return path


def _single_diode_input_set(work: Path, seed: int) -> Path:
    from urbanmix.config import default_config
    from urbanmix.synthdata import write_input_set

    path = write_input_set(work / "inputs", default_config().calendar, seed=seed)
    config = json.loads(path.read_text())
    config["pv"] = {"model": "single-diode"}
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    write_inputs: Callable[[Path, int], Path | None]
    parallel: int = 1

    def argv(self, command: str, config: Path | None, seed: int, out: Path,
             parallel: int | None = None) -> list[str]:
        """urbanmix arguments for one command; `parallel` overrides the workload's."""
        args = [command]
        if config is not None:
            args += ["--config", str(config)]
        args += ["--seed", str(seed)]
        parallel = self.parallel if parallel is None else parallel
        if parallel > 1:
            args += ["--parallel", str(parallel)]
        return args + ["--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("study-default", README_ORDER, _builtin_config),
    # 61 x 61 capacities: 3,721 scenarios, 14,884 Welch tests, 4 Holm families.
    Workload("sweep-dense", ("sweep",), _dense_sweep_config,
             parallel=min(2, os.cpu_count() or 1)),
    Workload("files-single-diode", ("profiles", "generation"), _single_diode_input_set),
)}
