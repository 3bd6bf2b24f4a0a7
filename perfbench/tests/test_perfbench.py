"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from perfbench import common, layers, live, offline, run, serve
from perfbench.trace import Tracer, installed, node_of_current_thread


@pytest.fixture
def tiny_offline(monkeypatch):
    monkeypatch.setattr(offline, "SWEEP_SIDE", 4)
    monkeypatch.setattr(offline, "SWEEP_REPLAYS", 64)
    monkeypatch.setattr(offline, "CAL_TAU0", (20.0,))
    monkeypatch.setattr(offline, "CAL_DEADLINE", (1.5e5,))
    monkeypatch.setattr(offline, "CAL_TRIALS", 2)
    monkeypatch.setattr(offline, "CAL_ITEMS", 1000)
    monkeypatch.setattr(offline, "VALIDATION_ITEMS", 1500)
    monkeypatch.setattr(offline, "SETUP_REPEATS", 1)


@pytest.fixture
def tiny_live(monkeypatch):
    monkeypatch.setattr(live, "LADDER", (4000.0, 4400.0))
    monkeypatch.setattr(live, "COARSE", 1)
    monkeypatch.setattr(live, "SETUP_REPEATS", 1)
    # These tests check which metrics a run emits, not the capacity a busy
    # host sustains: a rung's pass/fail is not theirs to decide.
    monkeypatch.setattr(live, "rung_passes", lambda r, n_nodes: True)


@pytest.fixture
def tiny_serve(monkeypatch):
    monkeypatch.setattr(serve, "SETUP_REPEATS", 1)


def _units(kind):
    return {m["name"]: m["unit"] for m in common.load_spec()[kind]}


def test_spec_lists_every_per_layer_metric():
    assert [m["name"] for m in common.load_spec()["per_layer"]] == list(layers.NAMES)


@pytest.mark.parametrize(
    "workload, seconds",
    [("offline-blast", 0.1), ("live-saturate", 2.0), ("serve-blast", 6.0)],
)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_with_its_unit(
    workload, seconds, trace, tiny_offline, tiny_live, tiny_serve
):
    result = run.run_workload(workload, 3, seconds, trace)
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = [v["value"] for v in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)
    assert result["attempted"] >= 1


def test_tracing_leaves_offline_simulation_bit_identical(tiny_offline):
    setup = offline.Setup()
    plain = offline.validate(setup, 5)
    tracer = Tracer()
    with installed(tracer):
        traced = offline.validate(setup, 5)
    assert tracer.spans, "tracing recorded nothing"
    for key in ("items", "active_fraction", "missed", "attempted"):
        assert plain[key] == traced[key]


def test_patches_are_restored():
    from repro.planning import warmstart
    from repro.runtime.queues import LiveQueue

    before = (warmstart.solve_plan, LiveQueue.__dict__["push"])
    with installed(Tracer()):
        assert warmstart.solve_plan is not before[0]
    assert (warmstart.solve_plan, LiveQueue.__dict__["push"]) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), lambda a: "inner")
    outer = tracer.wrap(lambda: inner() + inner(), lambda a: "outer")
    outer()
    selfs = tracer.self_times()
    (_, o_start, o_end, *_), (_, a_start, a_end, *_), (_, b_start, b_end, *_) = tracer.spans
    assert selfs["inner"][0] == 2
    assert selfs["outer"][1] == pytest.approx(
        (o_end - o_start) - (a_end - a_start) - (b_end - b_start)
    )


def test_node_threads_are_named_by_index():
    names = {}

    def probe():
        names["n"] = node_of_current_thread()

    t = threading.Thread(target=probe, name="repro-node-2-extend_filter-r1")
    t.start()
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert names["n"] == "n2"
    assert node_of_current_thread() is None


def _records(path, scale=1.0):
    lines = []
    for seed, value in enumerate([10.0, 10.5, 9.8, 10.2, 10.1]):
        lines.append(
            {
                "header": {"workload": "live-saturate", "seed": seed},
                "metrics": {
                    "latency_p99_ms": {"value": value * scale, "unit": "ms"},
                    "throughput_items_s": {"value": 6000.0 + seed, "unit": "1/s"},
                },
                "detail": {"miss_rate": 0.0},
            }
        )
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    return str(path)


def test_compare_passes_identical_files(tmp_path, capsys):
    a = _records(tmp_path / "a.jsonl")
    assert run.compare(a, a) == 0
    assert "0 metric(s) worse" in capsys.readouterr().out


def test_compare_flags_a_twofold_slowdown(tmp_path, capsys):
    a = _records(tmp_path / "a.jsonl")
    b = _records(tmp_path / "b.jsonl", scale=2.0)
    assert run.compare(a, b) == 1
    out = capsys.readouterr().out
    flagged = [line for line in out.splitlines() if "WORSE" in line]
    assert len(flagged) == 1 and flagged[0].startswith("latency_p99_ms")


def test_percentile_refuses_thin_tails():
    with pytest.raises(common.GateError):
        common.percentile(np.arange(999), 0.99)
    assert common.percentile(np.arange(1000), 0.99) == pytest.approx(989.01)


def test_gate_failure_exits_nonzero_without_result(monkeypatch, capsys):
    def broken(seed, seconds):
        raise common.GateError("synthetic failure")

    monkeypatch.setattr(offline, "run", broken)
    code = run.main(["--workload", "offline-blast", "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "synthetic failure" in out.err
