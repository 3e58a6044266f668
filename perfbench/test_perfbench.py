"""Unit tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from repro.eval.library import FAST_FAILURE, resolve_protocol  # noqa: E402
from repro.eval.scenario import (ChurnModel, ScenarioSpec,  # noqa: E402
                                 WorkloadModel)
from repro.network.emulator import NetworkEmulator  # noqa: E402
from repro.transport.demux import TransportHost  # noqa: E402
from repro.transport.reliable import ReliableTransport  # noqa: E402
from repro.transport.tcp import TcpTransport  # noqa: E402

import host  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, SeededWorkload, outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_of_nested_spans():
    # run [0, 10] > send [1, 4] > record [2, 3]
    # run [0, 10] > _fire [5, 9] > send [6, 8]
    spans = [
        ("Simulator.run", 0.0, 10.0, -1),
        ("NetworkEmulator.send", 1.0, 4.0, 0),
        ("Tracer.record", 2.0, 3.0, 1),
        ("ProtocolTimer._fire", 5.0, 9.0, 0),
        ("NetworkEmulator.send", 6.0, 8.0, 3),
    ]
    result = layers.attribute(spans)
    # engine: 10 - 3 - 4 of its own, plus the hook's 4 - 2 charged to it.
    assert result.self_s["engine"] == pytest.approx(3.0 + 2.0)
    assert result.self_s["network"] == pytest.approx(2.0 + 2.0)
    assert result.self_s["obs"] == pytest.approx(1.0)
    assert result.hook_s == pytest.approx(2.0)
    assert result.covered_s == pytest.approx(10.0)
    assert sum(result.self_s.values()) == pytest.approx(10.0)
    assert result.calls["NetworkEmulator.send"] == 2


def test_span_recorder_links_each_span_to_its_caller():
    recorder = layers.SpanRecorder()
    inner = recorder.wrap("Tracer.record", lambda: None)
    outer = recorder.wrap("NetworkEmulator.send", lambda: inner())
    outer()
    outer()
    parents = [(name, parent) for name, _s, _e, parent in recorder.spans]
    assert parents == [("NetworkEmulator.send", -1), ("Tracer.record", 0),
                       ("NetworkEmulator.send", -1), ("Tracer.record", 2)]
    assert all(start <= end for _n, start, end, _p in recorder.spans)


def test_metric_names_and_units_are_well_formed_and_unique():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _tiny_spec(seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny", agents=resolve_protocol("chord"), num_nodes=6,
        duration=12.0, seed=1, failure_config=FAST_FAILURE,
        models=(ChurnModel(join="staggered", join_spacing=0.2),
                SeededWorkload(inner=WorkloadModel(
                    kind="route", source=-1, start=6.0, packets=10, gap=0.3),
                    seed=seed)))


def _traced_run(entry_points):
    recorder = layers.SpanRecorder()
    with layers.traced(recorder, entry_points):
        result = _tiny_spec().run()
    measured = layers.layer_metrics(layers.attribute(recorder.spans),
                                    recorder, result)
    return layers.reconcile(measured, recorder, result, None), result


def test_reconciliation_passes_with_every_wrapper():
    problems, result = _traced_run(layers.ENTRY_POINTS)
    assert problems == []
    assert result.metrics["net.packets_sent"] > 0


def test_reconciliation_fails_when_a_wrapper_is_missing():
    without_send = tuple(entry for entry in layers.ENTRY_POINTS
                         if entry[1:] != (NetworkEmulator, "send"))
    problems, _result = _traced_run(without_send)
    assert any(problem.startswith("network.sends") for problem in problems)


def test_traced_block_restores_the_classes():
    before = {(cls, method): cls.__dict__.get(method)
              for _layer, cls, method in layers.ENTRY_POINTS}
    host_init = TransportHost.__init__
    with layers.traced(layers.SpanRecorder()):
        assert ReliableTransport.handle_segment is not \
            before[(ReliableTransport, "handle_segment")]
    after = {(cls, method): cls.__dict__.get(method)
             for _layer, cls, method in layers.ENTRY_POINTS}
    assert after == before
    assert TransportHost.__init__ is host_init
    assert "handle_segment" not in TcpTransport.__dict__


def test_tracing_leaves_the_simulated_metrics_unchanged():
    _problems, traced_result = _traced_run(layers.ENTRY_POINTS)
    assert repr(traced_result.metrics) == repr(_tiny_spec().run().metrics)


def test_workload_seed_changes_operations_not_deployment():
    one, two = _tiny_spec(seed=3).run(), _tiny_spec(seed=4).run()
    assert one.seed == two.seed == 1
    assert one.events[:6] == two.events[:6]      # the same join schedule
    assert one.events != two.events              # different probes
    assert outcome(WORKLOADS["chord-lookup"], one.metrics).attempted == 10


def test_git_rev_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "b" * 40
                                     + " refs/heads/main\n")
    assert host.git_rev(str(tmp_path)) == "b" * 40
    (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    assert host.git_rev(str(tmp_path)) == "a" * 40
    (git / "HEAD").write_text("c" * 40 + "\n")
    assert host.git_rev(str(tmp_path)) == "c" * 40
    assert host.git_rev(str(tmp_path / "elsewhere")) is None
