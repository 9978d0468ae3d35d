"""Tests of the benchmark itself: span arithmetic, the tail statistic, and a
tiny-size smoke run of every workload, untraced and traced.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    spans = tracer.Tracer(clock)

    def at(t, action, name=None):
        clock.now = t
        spans.enter(name) if action == "enter" else spans.exit()

    # a [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 6]
    at(0, "enter", "x.a")
    at(1, "enter", "x.b")
    at(2, "enter", "y.d")
    at(3, "exit")
    at(4, "exit")
    at(5, "enter", "y.c")
    at(6, "exit")
    at(10, "exit")
    assert spans.total_s("x.a") == 10
    assert spans.self_s("x.a") == 10 - 3 - 1
    assert spans.self_s("x.b") == 3 - 1
    assert spans.self_s("y.d") == 1 and spans.self_s("y.c") == 1
    assert spans.layer_self_s("x") == 8 and spans.layer_self_s("y") == 2
    # self times partition the root span
    assert sum(agg[2] for agg in spans.spans.values()) == spans.total_s("x.a")


def test_nested_span_of_same_name_counts_once_in_total():
    clock = FakeClock()
    spans = tracer.Tracer(clock)
    spans.enter("x.f")
    clock.now = 1
    spans.enter("x.f")
    clock.now = 3
    spans.exit()
    clock.now = 4
    spans.exit()
    assert spans.calls("x.f") == 2
    assert spans.total_s("x.f") == 4
    assert spans.self_s("x.f") == 4


def test_merge_adds_dumps():
    spans = tracer.Tracer()
    dump = {"spans": {"x.f": [2, 1.5, 1.0]}, "counts": {"x.f.iterations": 7}}
    spans.merge(dump)
    spans.merge(dump)
    assert spans.spans["x.f"] == [4, 3.0, 2.0]
    assert spans.exact_counts() == {"x.f.calls": 4, "x.f.iterations": 14}


def test_tail_has_ten_samples_above_it():
    values = list(range(100))
    value, pct = run.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert pct == 90.0
    # too few samples for a tail above the median: the upper median
    assert run.tail([3, 1, 2, 4]) == (3, 75.0)


def test_absent_hook_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(tracer.HOOKS, "dualsolve.gone", ["lmomdiv.dualsolve:gone"])
    undo, absent = tracer.install(tracer.Tracer())
    tracer.uninstall(undo)
    assert absent == ["lmomdiv.dualsolve:gone"]


@pytest.fixture
def tiny(monkeypatch):
    """Workloads shrunk to a few seconds in total."""
    import workloads

    monkeypatch.setattr(workloads, "MC_N", 30)
    monkeypatch.setattr(workloads, "CLI_SIZES",
                        {"chi2": 400, "klm": 200, "kl": 200, "test": 200})
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "DEEP_CHECKS", {"mc-classical": 2, "mc-klm": 1})


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(tiny, capsys, workload):
    result = _run(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4
    assert set(result["metrics"]) == {"ops_per_s", "call_s.p50", "call_s.tail",
                                      "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["mc-classical", "cli-fit"])
def test_smoke_traced(tiny, capsys, workload):
    result = _run(capsys, workload, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["trace.count_mismatches"] == 0
    assert metrics["trace.absent_hooks"] == 0
    assert metrics["estimator.fit_divergence.calls"] > 0
    if workload == "mc-classical":
        assert metrics["dualsolve.solve_dual.calls"] == 0
        assert metrics["sim.l1_density_distance.calls"] == 4 * 4
    else:
        assert metrics["dualsolve.solve_dual.calls"] > 0
        assert metrics["cli.read_column.total_s"] > 0


def test_refuses_tree_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    code = run.main(["--workload", "mc-klm", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
