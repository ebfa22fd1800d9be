"""Call counts of a traced run; they prove every rebinding is wrapped."""

import pytest

import run
from layers import span_metrics
from workloads import WORKLOADS

EXPECTED = {
    "sweep-dense": {"experiments.cells": 3721, "stats.welch_calls": 14884,
                    "stats.holm_families": 4},
    "study-default": {"experiments.cells": 122, "stats.welch_calls": 938,
                      "stats.holm_families": 7, "classify.aggregate_calls": 7,
                      "classify.member_values_calls": 6},
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_call_counts(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    bench = run.Run(WORKLOADS[name], seed=0, trace=1)
    summary = run.inproc(bench, "traced", traced=True)
    assert [c["exit"] for c in summary["commands"]] == [0] * len(bench.workload.commands)
    metrics = span_metrics(summary)
    assert {k: metrics[k] for k in EXPECTED[name]} == EXPECTED[name]
