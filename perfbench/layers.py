"""Per-layer metrics computed from a traced in-process run's span summary.

A pattern is a span name, or a layer prefix ending in "." that matches every
span of that layer. "total" sums inclusive durations, "self" sums self time
over all threads, "calls" counts spans and "counter" reads a hook counter.
A metric whose functions no longer exist is reported as absent (None).
"""

from __future__ import annotations

SPAN_METRICS = (
    # name, unit, kind, patterns
    ("ingest.calendar_s", "s", "self", ("ingest.Calendar.",)),
    ("ingest.read_s", "s", "self", ("ingest.load_calendar_config", "ingest.load_weather",
                                     "ingest.load_profile", "ingest.read_series")),
    ("ingest.write_s", "s", "total", ("ingest.write_series",)),
    ("synthdata.self_s", "s", "self", ("synthdata.",)),
    ("synthdata.weather_calls", "count", "calls", ("synthdata.synthetic_weather_frame",)),
    ("config.assemble_s", "s", "total", ("config.assemble",)),
    ("config.assemble_calls", "count", "calls", ("config.assemble",)),
    ("scaling.self_s", "s", "self", ("scaling.",)),
    ("validation.self_s", "s", "self", ("validation.",)),
    ("demand.self_s", "s", "self", ("demand.",)),
    ("generation.pv_unit_s", "s", "total", ("generation.pv_unit_series",)),
    ("generation.wind_unit_s", "s", "total", ("generation.wind_unit_series",)),
    ("generation.unit_series_calls", "count", "calls",
     ("generation.pv_unit_series", "generation.wind_unit_series")),
    ("experiments.prepare_s", "s", "total", ("experiments.prepare",)),
    ("experiments.prepare_calls", "count", "calls", ("experiments.prepare",)),
    ("experiments.evaluate_cell_s", "s", "total", ("experiments.evaluate_cell",)),
    ("experiments.cells", "count", "calls", ("experiments.evaluate_cell",)),
    ("experiments.sweep_self_s", "s", "self", ("experiments.run_experiment1",)),
    ("stats.welch_calls", "count", "calls", ("stats.welch_t_test",)),
    ("stats.welch_s", "s", "total", ("stats.welch_t_test",)),
    ("stats.holm_s", "s", "self", ("stats.apply_holm", "stats.holm_bonferroni")),
    ("stats.holm_families", "count", "calls", ("stats.apply_holm",)),
    ("metrics.self_s", "s", "self", ("metrics.",)),
    ("classify.classify_year_s", "s", "total", ("classify.classify_year",)),
    ("classify.aggregate_s", "s", "total", ("classify.aggregate_by_category",)),
    ("classify.aggregate_calls", "count", "calls", ("classify.aggregate_by_category",)),
    ("classify.member_values_s", "s", "total", ("classify.member_values",)),
    ("classify.member_values_calls", "count", "calls", ("classify.member_values",)),
    ("optimize.ga_s", "s", "total", ("optimize.ga_optimize",)),
    ("optimize.ga_generations", "count", "counter", ("optimize.ga_optimize",)),
    ("optimize.ga_evaluations", "count", "counter", ("optimize.ga_optimize",)),
    ("tabular.write_csv_s", "s", "total", ("tabular.write_csv",)),
    ("tabular.rows", "count", "counter", ("tabular.write_csv",)),
    ("tabular.bytes", "bytes", "counter", ("tabular.write_csv",)),
    ("ingest.rows_read", "count", "counter", ("ingest.load_weather", "ingest.load_profile",
                                              "ingest.read_series")),
    ("ingest.rows_written", "count", "counter", ("ingest.write_series",)),
    ("cli.self_s", "s", "self", ("cli.",)),
)

# Ratios: name -> (numerator counter, denominator counter or span name).
RATIOS = {
    "stats.untestable_ratio": ("stats.untestable", "stats.welch_t_test"),
    "classify.occupied_ratio": ("classify.occupied", "classify.categories"),
}

UNITS = {name: unit for name, unit, _, _ in SPAN_METRICS}
UNITS.update({name: "ratio" for name in RATIOS})


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def span_metrics(summary: dict) -> dict:
    """Metric name -> value, or None where the traced functions are absent."""
    wrapped = summary["wrapped"]
    spans = summary["spans"]
    counters = summary["counters"]
    broken = set(summary["hook_errors"])
    out = {}
    for name, _, kind, patterns in SPAN_METRICS:
        if not any(_matches(w, patterns) for w in wrapped):
            out[name] = None
        elif kind == "counter":
            out[name] = None if broken & set(patterns) else counters.get(name, 0)
        else:
            field = {"total": "total_s", "self": "self_s", "calls": "calls"}[kind]
            out[name] = sum(row[field] for span, row in spans.items()
                            if _matches(span, patterns))
    for name, (num, den) in RATIOS.items():
        den_value = spans.get(den, {}).get("calls") if den in wrapped else counters.get(den)
        out[name] = counters[num] / den_value if den_value and num in counters else None
    return out


def main_thread_self(summary: dict, patterns) -> float:
    """Self time on the main thread of the spans matching `patterns`."""
    return sum(row["main_self_s"] for span, row in summary["spans"].items()
               if _matches(span, patterns))
