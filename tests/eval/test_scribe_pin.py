"""Determinism pin for Scribe-over-Pastry under churn.

A 16-node pub/sub spec over the registry-compiled ``scribe-pastry`` stack,
with two members crashing and rejoining while publications flow.  Sixteen
nodes overfill Pastry's 8-entry leaf set, so leaf evictions run on every
gossip round, and the crashes drive the failure detector's ``error`` API
removals.  The baselines were captured before Pastry's leaf-set admission
cached its farthest leaf; any change to what is simulated — events, packets,
RNG draws, delivery accounting — shows up here.

Floats are compared via ``repr`` so drift of even one ULP fails.
"""

from __future__ import annotations

import pytest

from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.runtime.failure import FailureDetectorConfig

SCRIBE_BASELINES = {
    1: {
        "churn.churn_cycles": "2.0",
        "churn.joins": "16.0",
        "net.bytes_delivered": "532908.0",
        "net.packets_delivered": "12001.0",
        "net.packets_dropped": "145.0",
        "net.packets_sent": "12159.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "14038.0",
        "workload.coverage": "0.7566666666666667",
        "workload.deliveries": "227.0",
        "workload.duplicates": "0.0",
        "workload.expected": "300.0",
        "workload.latency_mean": "0.11117842899250421",
        "workload.latency_p95": "0.15204650526340657",
        "workload.publishes_per_sec": "0.37777777777777777",
        "workload.sent": "17.0",
        "workload.skipped": "3.0",
        "workload.success_ratio": "1.0",
    },
    2: {
        "churn.churn_cycles": "2.0",
        "churn.joins": "16.0",
        "net.bytes_delivered": "566080.0",
        "net.packets_delivered": "12148.0",
        "net.packets_dropped": "150.0",
        "net.packets_sent": "12310.0",
        "nodes.alive": "16.0",
        "nodes.crashes": "2.0",
        "nodes.recoveries": "2.0",
        "sim.events_processed": "14184.0",
        "workload.coverage": "0.85",
        "workload.deliveries": "255.0",
        "workload.duplicates": "0.0",
        "workload.expected": "300.0",
        "workload.latency_mean": "0.09758388143410836",
        "workload.latency_p95": "0.12806029716596257",
        "workload.publishes_per_sec": "0.4222222222222222",
        "workload.sent": "19.0",
        "workload.skipped": "1.0",
        "workload.success_ratio": "1.0",
    },
}


def scribe_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="scribe-pastry-pin", agents=resolve_protocol("scribe-pastry"),
        num_nodes=16, duration=60.0, seed=seed,
        failure_config=FailureDetectorConfig(failure_timeout=6.0,
                                             heartbeat_timeout=2.0,
                                             check_interval=1.0),
        models=(ChurnModel(join="staggered", join_spacing=0.2,
                           churn_fraction=0.125, churn_start=22.0,
                           churn_end=45.0, downtime=8.0),
                WorkloadModel(kind="pubsub", source=-1, start=15.0,
                              packets=20, gap=1.5, topics=2, fanout=0)))


@pytest.mark.parametrize("seed", sorted(SCRIBE_BASELINES))
def test_scribe_pastry_metrics_are_byte_identical_to_baseline(seed):
    result = scribe_spec(seed).run()
    assert {key: repr(value) for key, value in sorted(result.metrics.items())} \
        == SCRIBE_BASELINES[seed]
