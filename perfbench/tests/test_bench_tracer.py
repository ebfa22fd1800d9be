import threading

from layers import span_metrics
from run import outermost_cumulative, parse_importtime
from tracer import Tracer


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children_on_the_same_thread():
    # outer [0, 10]; inner [1, 3] and [4, 4.5]; leaf inside the first inner [1.5, 2]
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 10.0))
    leaf = tracer.wrap("c.leaf", lambda: None)
    calls = iter([leaf, lambda: None])
    inner = tracer.wrap("b.inner", lambda: next(calls)())

    def body():
        inner()
        inner()
    tracer.wrap("a.outer", body)()

    summary = tracer.summary(threading.get_ident())
    assert summary["a.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.5, "main_self_s": 7.5}
    assert summary["b.inner"] == {"calls": 2, "total_s": 2.5, "self_s": 2.0, "main_self_s": 2.0}
    assert summary["c.leaf"]["self_s"] == 0.5
    records = tracer.span_records()
    parents = {name: records[p][0] if p >= 0 else None for name, _, _, p, _ in records}
    assert parents == {"c.leaf": "b.inner", "b.inner": "a.outer", "a.outer": None}


def test_worker_thread_spans_are_roots_and_not_subtracted():
    tracer = Tracer()
    work = tracer.wrap("b.work", lambda: sum(range(10_000)))

    def body():
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    tracer.wrap("a.wait", body)()

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["b.work"].parent is None
    assert by_name["b.work"].thread != by_name["a.wait"].thread
    summary = tracer.summary(threading.get_ident())
    outer = summary["a.wait"]
    assert outer["self_s"] == outer["total_s"] == outer["main_self_s"]
    assert summary["b.work"]["main_self_s"] == 0.0


def test_hook_errors_mark_the_counter_instead_of_failing():
    tracer = Tracer()

    def bad_hook(counters, args, kwargs, result):
        raise IndexError("signature changed")
    assert tracer.wrap("x.f", lambda: 3, bad_hook)() == 3
    assert tracer.hook_errors == {"x.f"}


def test_outermost_import_time_skips_nested_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         25 |     numpy.fft",
        "import time:       100 |        300 |   scipy.special",
        "import time:         5 |          5 |   json",
        "import time:        50 |        400 | urbanmix",
    ])
    rows = parse_importtime(text)
    assert rows[-1] == (400, 0, "urbanmix")
    assert outermost_cumulative(rows, "scipy") == 300
    assert outermost_cumulative(rows, "numpy") == 25


def test_metrics_of_missing_functions_are_absent():
    summary = {"wrapped": ["stats.welch_t_test"], "hook_errors": [],
               "spans": {"stats.welch_t_test": {"calls": 4, "total_s": 2.0, "self_s": 2.0,
                                                "main_self_s": 2.0}},
               "counters": {"stats.untestable": 1}}
    metrics = span_metrics(summary)
    assert metrics["stats.welch_calls"] == 4
    assert metrics["stats.welch_s"] == 2.0
    assert metrics["stats.untestable_ratio"] == 0.25
    assert metrics["classify.member_values_s"] is None
    assert metrics["tabular.rows"] is None
    assert metrics["classify.occupied_ratio"] is None
