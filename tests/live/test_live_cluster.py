"""End-to-end live deployment: real processes, real sockets, same spec.

The in-test clusters are kept small (4 nodes, a few seconds) so the tier-1
suite stays fast; the CI live-smoke job and scripts/run_live.py exercise the
8- and 32-node shapes.
"""

from __future__ import annotations

import pytest

import repro
from repro.codegen.registry import load_protocol
from repro.eval.library import resolve_protocol
from repro.eval.scenario import (ChurnModel, ScenarioError, ScenarioSpec,
                                 WorkloadModel)
from repro.live import LiveClusterConfig, LiveClusterError, compile_live

pytestmark = pytest.mark.live


def _spec(*models, protocol="chord", num_nodes=4, duration=17.0, seed=5):
    return ScenarioSpec(name="live-test", agents=resolve_protocol(protocol),
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        models=models)


def test_config_validation():
    with pytest.raises(LiveClusterError, match="at least one node"):
        LiveClusterConfig(_spec(num_nodes=0))
    with pytest.raises(LiveClusterError, match="no workload window"):
        LiveClusterConfig(_spec(num_nodes=16), duration=2.0,
                          join_spacing=0.5)
    with pytest.raises(ScenarioError, match="unknown workload kind"):
        compile_live(LiveClusterConfig(_spec(WorkloadModel(kind="teleport"))))
    config = LiveClusterConfig(_spec(num_nodes=3, duration=40.0),
                               duration=5.0)
    assert config.workload_start == pytest.approx(3 * 0.15 + 1.0)
    # Spec time maps linearly onto the workload window, clear of the end.
    assert config.live_time(0.0) == pytest.approx(config.workload_start)
    assert config.live_time(20.0) == pytest.approx((1.45 + 5.0) / 2, abs=1e-3)
    assert config.live_time(40.0) == pytest.approx(5.0 - 0.25)
    assert sorted(config.endpoints()) == [1, 2, 3]
    # Without a duration, the live horizon is capped past the join wave.
    assert LiveClusterConfig(_spec(duration=300.0)).duration \
        == pytest.approx(4 * 0.15 + 1.0 + 10.0)


def test_unknown_protocol_fails_before_spawning_processes():
    spec = ScenarioSpec(name="typo", agents=lambda: [load_protocol("chrod")],
                        num_nodes=2, duration=10.0,
                        models=(WorkloadModel(kind="route"),))
    with pytest.raises(Exception, match="chrod|no specification"):
        repro.run(spec, mode="live", duration=5.0)


def test_four_node_chord_cluster_routes_over_real_sockets():
    spec = _spec(WorkloadModel(kind="route", source=-1, start=1.0,
                               packets=16, gap=1.0))
    outcome = repro.run(spec, mode="live", duration=4.0, join_spacing=0.1,
                        settle=0.8, base_port=49140)
    metrics = outcome.metrics

    assert metrics["nodes.joined"] == 4.0
    assert metrics["workload.sent"] == 16.0
    # Localhost, converged ring: the workload must essentially all route.
    assert metrics["workload.success_ratio"] >= 0.9
    assert metrics["ring.correct_successor_fraction"] == 1.0
    assert metrics["nodes.callback_errors"] == 0.0
    assert metrics["socket.decode_errors"] == 0.0
    # Real bytes moved between processes.
    assert metrics["transport.messages_sent"] > 0
    assert len(outcome.per_node) == 4
    for report in outcome.per_node:
        assert report["state"] == "joined"
        assert report["socket"]["bytes_sent"] > 0
    # Deliveries carried wall-clock latencies.
    assert metrics["workload.latency_mean"] > 0.0
    assert metrics["workload.latency_p95"] >= metrics["workload.latency_mean"] * 0.1


def test_live_kv_quorum_over_real_sockets():
    spec = _spec(WorkloadModel(kind="kv", start=1.0, packets=24, gap=1.0),
                 duration=25.0, seed=7)
    outcome = repro.run(spec, mode="live", duration=5.0, join_spacing=0.1,
                        settle=0.8, base_port=49180)
    metrics = outcome.metrics
    assert metrics["nodes.joined"] == 4.0
    assert metrics["workload.sent"] == 24.0
    assert metrics["workload.quorum_success"] >= 0.9
    assert metrics["workload.phantom_reads"] == 0.0
    assert metrics["workload.puts"] + metrics["workload.gets"] \
        == metrics["workload.completed"]
    assert metrics["workload.replica_coverage"] >= 0.9
    assert metrics["nodes.callback_errors"] == 0.0


def test_live_pubsub_full_coverage():
    spec = _spec(WorkloadModel(kind="pubsub", source=-1, start=0.0,
                               packets=12, gap=1.0, topics=3),
                 protocol="scribe-pastry", duration=20.0, seed=7)
    outcome = repro.run(spec, mode="live", duration=6.0, join_spacing=0.1,
                        settle=1.2, base_port=49200)
    metrics = outcome.metrics
    assert metrics["workload.sent"] == 12.0
    # Everyone subscribes to every topic; the publisher never self-delivers.
    assert metrics["workload.expected"] == 36.0
    assert metrics["workload.coverage"] >= 0.9
    assert metrics["workload.duplicates"] == 0.0


def test_same_kv_spec_runs_live_via_facade():
    """The acceptance shape: the simulation KV ScenarioSpec, unmodified,
    through ``repro.run(spec, mode="live")``."""
    spec = ScenarioSpec(
        name="facade-kv-live",
        agents=resolve_protocol("chord"),
        num_nodes=4,
        duration=80.0,
        seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="kv", start=40.0, packets=16, gap=1.0,
                              keys=16, read_fraction=0.5)),
    )
    outcome = repro.run(spec, mode="live", base_port=49220,
                        join_spacing=0.1, settle=0.8, duration=5.0)
    metrics = outcome.metrics
    assert metrics["workload.sent"] == 16.0
    assert metrics["workload.quorum_success"] >= 0.9
    assert metrics["workload.phantom_reads"] == 0.0
    # The live run took the spec's protocol, workload and population.
    assert outcome.result.name == "live-chord-kv"
    assert metrics["nodes.count"] == 4.0
