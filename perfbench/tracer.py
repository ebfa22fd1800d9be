"""Thread-aware spans recorded around urbanmix's public functions, from outside.

`instrument` wraps every public module-level function of every urbanmix
module, every rebinding of those functions made by `from .x import f` in
other modules, the handler table `cli._HANDLERS`, and the cached derived
arrays of urbanmix classes (the calendar's local-time arrays). Nothing under
`src/` changes: the wrappers are installed by assigning module attributes.

A span records its name, start, end, parent and thread. Its self time is its
duration minus the durations of its child spans, which by construction run
on the same thread: worker threads of a pool start their own root spans, so
their busy time is never subtracted from the thread that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import Counter

# Per-hour and per-value helpers stay unwrapped: they run tens of thousands of
# times per command, and wrapping them would make tracing cost more than the
# layers it measures.
PER_VALUE_HELPERS = frozenset({
    "generation.pv_power", "generation.wind_power", "generation.air_density",
    "generation.hub_height_speed", "generation.cell_temperature",
    "ingest.hours_in_year", "scaling.round_half_away",
    "stats.student_t_two_sided_p",
    "tabular.fmt", "tabular.metric_row", "tabular.significance_cells",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread


class Tracer:
    """Collects spans in memory; `summary` and `span_records` read them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.hook_errors: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording one span per call; `hook(counters, args, kwargs, result)`
        updates counters after a call returns."""
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, clock(), stack[-1] if stack else None,
                        threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if hook is not None:
                with self._lock:
                    try:
                        hook(self.counters, args, kwargs, result)
                    except Exception:  # a changed signature must not fail the run
                        self.hook_errors.add(name)
            return result

        return traced

    def self_times(self) -> dict:
        """Self time of every recorded span, keyed by span identity."""
        child = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child[key] = child.get(key, 0.0) + (span.end - span.start)
        return {id(s): (s.end - s.start) - child.get(id(s), 0.0) for s in self.spans}

    def summary(self, main_thread: int) -> dict:
        """Per span name: calls, total (inclusive) time, self time summed over
        threads, and self time on `main_thread` alone."""
        selfs = self.self_times()
        out: dict = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "main_self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += selfs[id(span)]
            if span.thread == main_thread:
                row["main_self_s"] += selfs[id(span)]
        return out

    def span_records(self) -> list:
        """Spans as [name, start, end, parent index or -1, thread] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 -1 if s.parent is None else index[id(s.parent)], s.thread]
                for s in self.spans]


def _count(key, value_of):
    def hook(counters, args, kwargs, result):
        counters[key] += value_of(args, kwargs, result)
    return hook


def _csv_written(counters, args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    counters["tabular.rows"] += len(rows)
    counters["tabular.bytes"] += result.stat().st_size


def _categories(counters, args, kwargs, result):
    counters["classify.occupied"] += sum(1 for n in result.values() if n > 0)
    counters["classify.categories"] += len(result)


def _ga(counters, args, kwargs, result):
    counters["optimize.ga_generations"] += result.generations
    counters["optimize.ga_evaluations"] += result.evaluations


_rows_read = _count("ingest.rows_read", lambda a, k, r: len(r))

HOOKS = {
    "ingest.load_weather": _rows_read,
    "ingest.load_profile": _rows_read,
    "ingest.read_series": _rows_read,
    "ingest.write_series": _count("ingest.rows_written", lambda a, k, r: len(a[0])),
    "tabular.write_csv": _csv_written,
    "stats.welch_t_test": _count("stats.untestable", lambda a, k, r: int(r.untestable)),
    "classify.category_counts": _categories,
    "optimize.ga_optimize": _ga,
}


def instrument(tracer: Tracer) -> list[str]:
    """Wrap urbanmix in place; returns the sorted names of the wrapped functions."""
    import urbanmix

    modules = {info.name: importlib.import_module(f"urbanmix.{info.name}")
               for info in pkgutil.iter_modules(urbanmix.__path__)}
    wrappers = {}
    names = []
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            if name not in PER_VALUE_HELPERS:
                wrappers[value] = tracer.wrap(name, value, HOOKS.get(name))
                names.append(name)
        for cls_name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, prop in list(vars(cls).items()):
                if isinstance(prop, functools.cached_property):
                    name = f"{layer}.{cls_name}.{attr}"
                    traced = functools.cached_property(tracer.wrap(name, prop.func))
                    traced.__set_name__(cls, attr)
                    setattr(cls, attr, traced)
                    names.append(name)

    # Rebind every alias, including `from .x import f` copies and re-exports.
    for module in (urbanmix, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    handlers = getattr(modules.get("cli"), "_HANDLERS", {})
    for command, handler in handlers.items():
        if handler in wrappers:
            handlers[command] = wrappers[handler]
    return sorted(names)
