"""Run urbanmix commands in one process, with or without tracing.

Usage: python inproc.py SPEC.json

SPEC holds "commands" (a list of argument lists for `urbanmix.cli.main`),
"traced" (bool) and "summary" (path of the JSON summary to write); a traced
run also writes its spans to "spans". The timed region starts after
`urbanmix` is imported, so import cost is left to the import probes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from pathlib import Path

from tracer import Tracer, instrument


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from urbanmix import cli

    tracer = Tracer() if spec["traced"] else None
    wrapped = instrument(tracer) if tracer else []
    commands = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        began = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        commands.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                         "seconds": time.perf_counter() - began})
    wall = time.perf_counter() - start

    summary = {"wall_s": wall, "commands": commands}
    if tracer is not None:
        summary.update(wrapped=wrapped,
                       spans=tracer.summary(threading.main_thread().ident),
                       counters=dict(tracer.counters),
                       hook_errors=sorted(tracer.hook_errors))
        Path(spec["spans"]).write_text(json.dumps(tracer.span_records()))
    Path(spec["summary"]).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
