"""Live fault injection end-to-end: real SIGKILLs, supervised respawns.

The in-test shapes stay small (4-5 nodes, a few seconds); the CI
live-churn-smoke job runs the 8-node version via scripts/run_live.py.
"""

from __future__ import annotations

import socket

import pytest

import repro
from repro.eval.library import resolve_protocol
from repro.eval.scenario import CrashModel, ScenarioSpec, WorkloadModel
from repro.live import KillNode, LiveClusterError

pytestmark = pytest.mark.live


def _spec(*models, num_nodes, duration, seed=7):
    return ScenarioSpec(name="live-churn", agents=resolve_protocol("chord"),
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        models=models)


def test_kill_and_supervised_respawn_recovers():
    """The acceptance shape: a mid-run SIGKILL, a supervised respawn through
    the restart-epoch machinery, and routing that recovers once the
    deployment observably has (the reborn node rejoined, the ring is
    correct again)."""
    # 77 spec seconds over the 7.7 s live window: the crash at t=17 is a
    # SIGKILL at 3.0 s, its 10 s recovery a respawn 1.0 s later.  The
    # reborn node's stabilize walk takes ~1.5 s after its rejoin, and the
    # run leaves ~2.4 s of probes after that.
    spec = _spec(CrashModel(at=17.0, victims=(2,), recover_after=10.0),
                 WorkloadModel(kind="route", source=-1, start=77 / 41,
                               packets=40, gap=77 / 41),
                 num_nodes=5, duration=77.0)
    outcome = repro.run(spec, mode="live", duration=9.0, join_spacing=0.1,
                        settle=0.8, base_port=49500)
    metrics = outcome.metrics

    assert metrics["nodes.killed"] == 1.0
    assert metrics["nodes.respawns"] == 1.0
    assert metrics["nodes.down"] == 0.0

    victim = outcome.per_node[2]
    assert victim["incarnation"] == 1
    # The transport restart epoch tracked the process incarnation, so the
    # reborn node's reliable traffic was not mistaken for the dead one's.
    assert victim["epoch"] == 1
    assert victim["state"] == "joined"

    # Probes scheduled into the victim's outage window are skipped, not
    # silently lost; the accounting sees them.
    assert metrics["workload.skipped"] >= 0.0
    # After the observed recovery, routing must work again.
    assert metrics["workload.post_fault_success_ratio"] >= 0.8
    assert metrics["nodes.callback_errors"] == 0.0


def test_kill_without_respawn_leaves_the_node_accounted_down():
    spec = _spec(WorkloadModel(kind="route", source=-1, start=1.0,
                               packets=16, gap=1.0),
                 num_nodes=4, duration=17.0, seed=11)
    outcome = repro.run(spec, mode="live", duration=5.5, join_spacing=0.1,
                        settle=0.8, base_port=49520,
                        faults=(KillNode(at=2.5, index=3),))
    metrics = outcome.metrics

    assert metrics["nodes.killed"] == 1.0
    assert metrics["nodes.respawns"] == 0.0
    assert metrics["nodes.down"] == 1.0
    assert metrics["nodes.joined"] == 3.0
    down = outcome.per_node[3]
    assert down["state"] == "down"
    assert down["sent"] == 0
    # Some of the survivors' workload still routes (the dead node's keys
    # fail until the ring heals; this asserts accounting, not recovery).
    assert metrics["workload.success_ratio"] >= 0.2
    # Ring health is judged over the survivors, not the placeholder report.
    assert "ring.correct_successor_fraction" in metrics


def test_startup_timeout_names_the_stuck_nodes():
    # Spawned (not forked) workers re-import the package, which takes far
    # longer than the deliberately absurd 50 ms barrier window.
    spec = _spec(WorkloadModel(kind="route"), num_nodes=3, duration=10.0)
    with pytest.raises(LiveClusterError,
                       match="never reached the start barrier"):
        repro.run(spec, mode="live", duration=4.0, base_port=49540,
                  start_method="spawn", startup_timeout=0.05)


def test_port_conflict_is_a_boot_failure_naming_the_node():
    squatter = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    squatter.bind(("127.0.0.1", 49561))   # node index 1's port
    try:
        spec = _spec(WorkloadModel(kind="route"), num_nodes=3, duration=10.0)
        with pytest.raises(LiveClusterError,
                           match="failed to start — node 2"):
            repro.run(spec, mode="live", duration=4.0, base_port=49560)
    finally:
        squatter.close()
