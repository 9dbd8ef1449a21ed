"""The benchmark harness's own arithmetic: self time, failures, summaries."""

import sys
import types

import pytest

import layers
import run


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    rec = layers.Recorder(clock)
    rec.enter("job")             # t = 0
    clock.now = 1.0
    rec.enter("cli")             # t = 1
    clock.now = 2.0
    rec.enter("simplex")         # t = 2 .. 5
    clock.now = 5.0
    rec.exit()
    rec.enter("simplex")         # t = 5 .. 6
    clock.now = 6.0
    rec.exit()
    clock.now = 6.5
    rec.exit()                   # cli: 1 .. 6.5
    clock.now = 7.0
    rec.exit()                   # job: 0 .. 7
    assert rec.calls("simplex") == 2
    assert rec.self_s("simplex") == pytest.approx(4.0)
    assert rec.self_s("cli") == pytest.approx(1.5)
    assert rec.self_s("job") == pytest.approx(1.5)
    assert rec.inclusive_s("cli") == pytest.approx(5.5)
    # self times of every span add up to the root span's duration
    assert sum(n.self_s for n in rec.root.walk()) == pytest.approx(7.0)
    tree = rec.root.to_json_dict()
    assert tree["children"][0]["children"][0]["children"][0]["calls"] == 2


def test_layer_prefix_and_nested_same_name():
    clock = FakeClock()
    rec = layers.Recorder(clock)
    rec.enter("torsor.count")
    clock.now = 1.0
    rec.enter("torsor.kernel")
    clock.now = 3.0
    rec.exit()
    clock.now = 4.0
    rec.exit()
    assert rec.self_s("torsor") == pytest.approx(4.0)
    assert rec.self_s("torsor.kernel") == pytest.approx(2.0)
    assert rec.inclusive_s("torsor.count") == pytest.approx(4.0)


def test_accounted_time_leaves_out_bench_spans():
    clock = FakeClock()
    rec = layers.Recorder(clock)
    rec.enter("bench.job")       # t = 0 .. 10
    clock.now = 1.0
    rec.enter("cli")             # t = 1 .. 7
    clock.now = 2.0
    rec.enter("simplex")         # t = 2 .. 5
    clock.now = 5.0
    rec.exit()
    clock.now = 7.0
    rec.exit()
    clock.now = 10.0
    rec.exit()
    assert rec.self_s("bench") == pytest.approx(4.0)
    assert layers.accounted_s(rec) == pytest.approx(6.0)


def test_failed_frac():
    passes = [
        {"jobs": [{"job": "a", "problems": []}, {"job": "b", "problems": ["wrong"]}]},
        {"jobs": [{"job": "a", "problems": []}, {"job": "b", "problems": []}]},
    ]
    attempted, failed = run.count_jobs(passes)
    assert (attempted, failed) == (4, 1)
    assert run.failed_frac(failed, attempted) == 0.25
    with pytest.raises(run.BenchError):
        run.failed_frac(0, 0)


def test_summary_median_quartiles_and_count():
    s = run.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert s == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert run.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_missing_wrapped_name_is_absent(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    rec = layers.Recorder()
    missing = layers.install(rec, [
        ("fake_layer", "present", layers.as_span("fake")),
        ("fake_layer", "gone", layers.as_span("fake")),
        ("fake_layer", "Cls.method", layers.as_span("fake")),
        ("no_such_module_here", "f", layers.as_span("fake")),
    ])
    assert missing == {"fake_layer.gone", "fake_layer.Cls.method",
                       "no_such_module_here.f"}
    assert module.present(1) == 2
    assert rec.calls("fake") == 1

    metrics = layers.layer_metrics(rec, {"dp4jigsaw.torsor._inverse_table"})
    assert metrics["torsor.inverse_calls"] == {"value": None, "unit": "count",
                                               "absent": True}
    assert metrics["torsor.kernel_calls"] == {"value": 0, "unit": "count"}
    assert set(metrics) == set(layers.LAYER_METRICS)
