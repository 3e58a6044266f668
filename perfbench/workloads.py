"""The four sim-mode workloads, built as ``ScenarioSpec`` values.

Every workload pins its *deployment* — topology, node placement, join
order, protocol randomness and fault schedule — to :data:`DEPLOYMENT_SEED`,
and draws only its *operations* (probe senders and keys, KV clients, keys
and put/get mix, publishers and topics) from the workload seed given on the
command line.  The overlay's physics depends strongly on the deployment:
200-node Chord over 40 s dropped 2481, 189 and 0 packets on deployment
seeds 1, 2 and 3 and took 6.9 s, 9.0 s and 9.5 s of host time, so seeding
the whole deployment would turn host-time comparisons into comparisons of
different physics.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.eval.invariants import check_invariants
from repro.eval.library import FAST_FAILURE, resolve_protocol
from repro.eval.scenario import (ChurnModel, ScenarioModel, ScenarioResult,
                                 ScenarioSpec, WorkloadModel)
from repro.obs import ObsConfig

#: Seed of everything except the operations (the repo's benches use seed 1).
DEPLOYMENT_SEED = 1
#: Workload seed used for comparisons when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Workload seed kept out of development; a claimed gain is confirmed on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class SeededWorkload(ScenarioModel):
    """Compile *inner* against its own RNG stream drawn from *seed*.

    The experiment hands every model the deployment's scenario RNG; this
    wrapper swaps in a stream that depends on the workload seed alone, so
    the operations change with ``--seed`` while the deployment does not.
    """

    inner: Optional[ScenarioModel] = None
    seed: int = 0

    def instantiate(self, experiment, rng, horizon: float):
        stream = random.Random(f"perfbench-workload:{self.seed}")
        return self.inner.instantiate(experiment, stream, horizon)


@dataclass(frozen=True)
class Outcome:
    """What one run of a workload achieved, in the spec's own terms."""

    attempted: int
    failed: int
    latency_mean: float
    latency_p95: float


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    protocol: str               # repro.eval.library protocol name
    kind: str                   # WorkloadModel.kind of its operations
    build: Callable[[int], ScenarioSpec]
    #: Full observability on (the only workload where the obs layer works);
    #: its spec is ``build(seed)`` of the workload named here, plus obs.
    obs_of: Optional[str] = None

    def spec(self, seed: int, scratch: Optional[str] = None) -> ScenarioSpec:
        """The spec for workload seed *seed*; obs artifacts go in *scratch*."""
        spec = self.build(seed)
        if self.obs_of is None:
            return spec
        if scratch is None:
            raise ValueError(f"{self.name} writes a trace and needs a "
                             f"scratch directory")
        return replace(spec, name=self.name, obs=ObsConfig(
            trace_path=os.path.join(scratch, "trace.jsonl"),
            causal=True,
            snapshot_path=os.path.join(scratch, "obs.json")))


def _chord_lookup(seed: int) -> ScenarioSpec:
    # 120 nodes join over 12 s; 60 random-key probes from 13 s.  On this
    # deployment the emulator's submission-time hop booking drops ~500
    # packets and a quarter of the probes fail: the defect of ROADMAP item 2.
    # Probes are sparse so that they do not set off drop cascades of their
    # own: at one every 0.05 s the event count varied by 4% across workload
    # seeds, at one every 0.2 s by 0.3%.
    return ScenarioSpec(
        name="chord-lookup", agents=resolve_protocol("chord"),
        num_nodes=120, duration=25.0, seed=DEPLOYMENT_SEED,
        failure_config=FAST_FAILURE,
        models=(ChurnModel(join="staggered", join_spacing=0.1),
                SeededWorkload(inner=WorkloadModel(
                    kind="route", source=-1, start=13.0, packets=60,
                    gap=0.2), seed=seed)))


def _kv_churn(seed: int) -> ScenarioSpec:
    # 4 fixed clients issue 20 ops/s (N=3, W=2, Q=2, Zipf 1.1, 70% gets)
    # for 30 s while 10% of the other members crash and rejoin.
    clients = 4
    return ScenarioSpec(
        name="kv-churn", agents=resolve_protocol("chord"),
        num_nodes=40, duration=80.0, seed=DEPLOYMENT_SEED,
        failure_config=FAST_FAILURE,
        models=(ChurnModel(join="staggered", join_spacing=0.5,
                           churn_fraction=0.1, churn_start=40.0,
                           churn_end=70.0, downtime=10.0,
                           exempt=tuple(range(clients))),
                SeededWorkload(inner=WorkloadModel(
                    kind="kv", start=40.0, packets=600, gap=0.05, keys=64,
                    zipf_s=1.1, read_fraction=0.7, replicas=3,
                    write_quorum=2, read_quorum=2, clients=clients),
                    seed=seed)))


def _scribe_pubsub(seed: int) -> ScenarioSpec:
    # 30 nodes, 4 topics with every node subscribed, then a burst of 20
    # publications from random publishers, 0.5 s apart.
    return ScenarioSpec(
        name="scribe-pubsub", agents=resolve_protocol("scribe-pastry"),
        num_nodes=30, duration=60.0, seed=DEPLOYMENT_SEED,
        failure_config=FAST_FAILURE,
        models=(ChurnModel(join="staggered", join_spacing=0.15),
                SeededWorkload(inner=WorkloadModel(
                    kind="pubsub", source=-1, start=24.0, packets=20,
                    gap=0.5, topics=4, fanout=0), seed=seed)))


WORKLOADS = {workload.name: workload for workload in (
    Workload("chord-lookup", "chord", "route", _chord_lookup),
    Workload("kv-churn", "chord", "kv", _kv_churn),
    Workload("scribe-pubsub", "scribe-pastry", "pubsub", _scribe_pubsub),
    Workload("chord-lookup-obs", "chord", "route", _chord_lookup,
             obs_of="chord-lookup"),
)}


def outcome(workload: Workload, metrics: dict) -> Outcome:
    """Operations attempted and failed, and simulated latency, of one run.

    Skipped operations (issuer down) count as attempted and failed; a
    pub/sub operation is one expected publication x subscriber delivery.
    """
    if workload.kind == "pubsub":
        attempted = int(metrics["workload.expected"])
        succeeded = int(metrics["workload.deliveries"])
    else:
        sent = int(metrics["workload.sent"])
        attempted = sent + int(metrics["workload.skipped"])
        if workload.kind == "kv":
            succeeded = int(metrics["workload.completed"])
        else:
            # success_ratio is distinct probes delivered over probes sent.
            succeeded = round(metrics["workload.success_ratio"] * sent)
    return Outcome(attempted=attempted, failed=attempted - succeeded,
                   latency_mean=metrics["workload.latency_mean"],
                   latency_p95=metrics["workload.latency_p95"])


def check(workload: Workload, result: ScenarioResult) -> list[str]:
    """Every correctness problem of one run (empty when it is correct)."""
    problems = [f"invariant: {violation}"
                for violation in check_invariants(result)]
    metrics = result.metrics
    if workload.kind == "kv" and metrics["workload.phantom_reads"] != 0:
        problems.append(
            f"kv: {metrics['workload.phantom_reads']:g} phantom reads")
    if workload.kind == "pubsub" and metrics["workload.duplicates"] != 0:
        problems.append(
            f"pubsub: {metrics['workload.duplicates']:g} duplicate deliveries")
    if outcome(workload, metrics).attempted < 1:
        problems.append("workload attempted no operation")
    return problems
