"""Live fault directives: the scenario fault vocabulary on wall-clock.

The scenario engine compiles :class:`~repro.eval.scenario.ScenarioModel`
fault models onto the simulator timeline; this module compiles the same
models onto a :class:`~repro.live.cluster.LiveClusterConfig` wall-clock
schedule as *live fault directives* — small frozen dataclasses the cluster
coordinator executes for real:

* :class:`KillNode` — a real ``SIGKILL`` of the node's OS process, with an
  optional supervised respawn (the respawned process re-enters through the
  transport restart-epoch machinery);
* :class:`PartitionFault` — host-group partition rules installed in every
  node's :class:`~repro.transport.udp.SocketFaults` table over the
  coordinator control channel;
* :class:`LinkCut` — targeted (optionally one-way) cuts between node pairs;
* :class:`DegradeFault` — per-peer delay/loss rules standing in for the
  emulator's bandwidth/latency degradation.

Times are offsets from the cluster's barrier-aligned clock zero.  Because a
live run compresses a multi-minute simulated timeline into a few wall-clock
seconds, :func:`compile_fault_models` rescales model times linearly onto the
live workload window (join wave and settle excluded) with
:meth:`~repro.live.cluster.LiveClusterConfig.live_time` — the mapping the
workload's ops use too — and floors the rescaled downtimes so a respawn is
a real outage, not a scheduling artifact.  Victim sampling draws from
``random.Random(f"{seed}:live-faults")`` — reproducible per seed, though
not the same victims the simulator samples (the differential harness
compares metric distributions, not event logs).

Models that need the emulated underlay (link-level cuts and degradation,
rack-correlated crashes) have no live mapping and raise
:class:`LiveFaultError`; :func:`live_runnable` turns that into the tag the
fuzzer stamps on generated specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple, Union

#: One simulated latency-factor unit maps to this many seconds of added
#: one-way delay on a degraded node's access link (localhost has no
#: meaningful base RTT to scale, so the unit is declared, not measured).
DEGRADE_DELAY_UNIT = 0.02

#: Ceilings keeping rescaled degradation survivable on a compressed
#: timeline: more delay than this stalls reliable windows for the whole
#: (short) live run, reporting transport collapse instead of degradation.
MAX_DEGRADE_DELAY = 0.25
MAX_DEGRADE_LOSS = 0.75

#: Floors for rescaled outage/heal spans (seconds): a respawn needs real
#: process-boot time, and a partition shorter than a few RTTs is noise.
MIN_DOWNTIME = 1.0
MIN_HEAL_SPAN = 0.5


class LiveFaultError(RuntimeError):
    """A scenario fault model has no live (real-socket) equivalent."""


@dataclass(frozen=True)
class KillNode:
    """SIGKILL node *index* at *at*; respawn ``respawn_after`` seconds later
    (None = the node stays down for the rest of the run)."""

    at: float
    index: int
    respawn_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.respawn_after or 0.0)


@dataclass(frozen=True)
class PartitionFault:
    """Host-group partition (node indices) installed at *at*, healed
    ``heal_after`` seconds later (None = never)."""

    at: float
    groups: Tuple[Tuple[int, ...], ...]
    heal_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.heal_after or 0.0)


@dataclass(frozen=True)
class LinkCut:
    """Cut traffic between node-index pairs (``one_way``: only the
    ``u -> v`` direction), healed ``heal_after`` seconds later."""

    at: float
    pairs: Tuple[Tuple[int, int], ...]
    one_way: bool = False
    heal_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.heal_after or 0.0)


@dataclass(frozen=True)
class DegradeFault:
    """Degrade the access links of the given node indices: arrivals from
    (and to) them gain *delay* seconds and *loss* drop probability."""

    at: float
    indices: Tuple[int, ...]
    delay: float = 0.0
    loss: float = 0.0
    restore_after: Optional[float] = None

    @property
    def end(self) -> float:
        return self.at + (self.restore_after or 0.0)


LiveFault = Union[KillNode, PartitionFault, LinkCut, DegradeFault]


def fault_horizon(faults) -> float:
    """Offset of the last scheduled fault transition (0.0 for no faults).

    Post-fault accounting (the "recovers after the settle window" gate)
    starts here; a kill with no respawn still ends at its kill time — the
    membership change is instantaneous even if the outage is permanent.
    """
    return max((fault.end for fault in faults), default=0.0)


def _sample_indices(num_nodes: int, exempt, fraction: float,
                    rng: random.Random) -> list[int]:
    exempt_set = set(exempt)
    candidates = [i for i in range(num_nodes) if i not in exempt_set]
    count = min(len(candidates), round(fraction * len(candidates)))
    return sorted(rng.sample(candidates, count))


def _check_indices(indices, num_nodes: int, what: str) -> list[int]:
    out = []
    for index in indices:
        index = int(index)
        if not 0 <= index < num_nodes:
            raise LiveFaultError(
                f"{what} index {index} out of range for {num_nodes} nodes")
        out.append(index)
    return out


def compile_fault_models(config) -> Tuple[LiveFault, ...]:
    """Compile ``config.spec``'s fault models onto the wall-clock schedule.

    Model times (sim seconds in ``[0, spec.duration]``) map linearly onto
    the live workload window ``[config.workload_start, config.duration]``;
    spans (downtime, heal delays) scale by the same factor with floors (see
    module docstring).  Join scheduling is *not* compiled — the live join
    wave replaces it.

    Raises :class:`LiveFaultError` for models with no live equivalent.
    """
    from ..eval.scenario import (ChurnModel, CorrelatedCrashModel,
                                 CrashModel, DegradeModel,
                                 FlappingPartitionModel, FlashCrowdModel,
                                 GroupModel, PartitionModel, WorkloadModel)

    spec = config.spec
    rng = random.Random(f"{config.seed}:live-faults")
    num_nodes = config.nodes
    map_at = config.live_time

    def map_span(span: float, floor: float) -> float:
        return round(max(floor, float(span) * config.time_scale), 3)

    faults: list[LiveFault] = []
    for model in spec.models:
        if isinstance(model, (WorkloadModel, GroupModel)):
            continue   # per-node programs: every node process runs its ops
        if isinstance(model, ChurnModel):
            if model.churn_fraction <= 0:
                continue   # pure join schedule: replaced by the join wave
            victims = _sample_indices(num_nodes, model.exempt,
                                      model.churn_fraction, rng)
            downtime = (map_span(model.downtime, MIN_DOWNTIME)
                        if model.rejoin else None)
            start = map_at(model.churn_start)
            end_src = (model.churn_end if model.churn_end is not None
                       else spec.duration)
            end = max(start, map_at(end_src) - (downtime or 0.0))
            for index in victims:
                at = round(rng.uniform(start, end), 3)
                faults.append(KillNode(at=at, index=index,
                                       respawn_after=downtime))
        elif isinstance(model, CrashModel):
            if model.victims:
                victims = _check_indices(model.victims, num_nodes,
                                         "crash victim")
            else:
                victims = _sample_indices(num_nodes, model.exempt,
                                          model.fraction, rng)
            respawn = (map_span(model.recover_after, MIN_DOWNTIME)
                       if model.recover_after is not None else None)
            at = map_at(model.at)
            for index in victims:
                faults.append(KillNode(at=at, index=index,
                                       respawn_after=respawn))
        elif isinstance(model, PartitionModel):
            if model.links:
                raise LiveFaultError(
                    "link-level partition cuts need the emulated underlay; "
                    "live mode supports host groups only")
            groups = tuple(tuple(_check_indices(group, num_nodes,
                                                "partition member"))
                           for group in model.groups)
            heal = (map_span(model.heal_after, MIN_HEAL_SPAN)
                    if model.heal_after is not None else None)
            faults.append(PartitionFault(at=map_at(model.at), groups=groups,
                                         heal_after=heal))
        elif isinstance(model, FlappingPartitionModel):
            if model.links:
                raise LiveFaultError(
                    "flapping link cuts need the emulated underlay; live "
                    "mode flaps host groups only")
            groups = tuple(tuple(_check_indices(group, num_nodes,
                                                "partition member"))
                           for group in model.groups)
            period = map_span(model.period, 2 * MIN_HEAL_SPAN)
            cut_span = max(MIN_HEAL_SPAN, model.duty * period)
            first = map_at(model.at)
            for cycle in range(model.cycles):
                at = round(first + cycle * period, 3)
                if at >= config.duration - 0.25:
                    break   # cycles past the live horizon never fire
                faults.append(PartitionFault(at=at, groups=groups,
                                             heal_after=cut_span))
        elif isinstance(model, DegradeModel):
            if model.links:
                raise LiveFaultError(
                    "link-level degradation needs the emulated underlay; "
                    "live mode degrades host access links only")
            if model.hosts:
                chosen = _check_indices(model.hosts, num_nodes,
                                        "degraded host")
            else:
                chosen = _sample_indices(num_nodes, model.exempt,
                                         model.host_fraction, rng)
            if not chosen:
                continue
            delay = min(MAX_DEGRADE_DELAY,
                        (model.latency_factor - 1.0) * DEGRADE_DELAY_UNIT)
            loss = min(MAX_DEGRADE_LOSS,
                       max(0.0, 1.0 - model.bandwidth_factor))
            restore = (map_span(model.restore_after, MIN_HEAL_SPAN)
                       if model.restore_after is not None else None)
            faults.append(DegradeFault(at=map_at(model.at),
                                       indices=tuple(chosen),
                                       delay=round(delay, 4),
                                       loss=round(loss, 4),
                                       restore_after=restore))
        elif isinstance(model, FlashCrowdModel):
            if model.stay is not None:
                raise LiveFaultError(
                    "flash-crowd mass departure is sim-only (the live join "
                    "wave replaces the crowd's arrival, but departures "
                    "would need per-node leave scheduling)")
            continue   # the live join wave replaces the burst schedule
        elif isinstance(model, CorrelatedCrashModel):
            raise LiveFaultError(
                "rack-correlated crashes need the emulated topology's "
                "attachment groups; live localhost nodes have none")
        else:
            raise LiveFaultError(
                f"no live mapping for {type(model).__name__}")
    return tuple(sorted(faults, key=lambda fault: (fault.at, repr(fault))))


def live_runnable(spec) -> Tuple[bool, Optional[str]]:
    """Is *spec* runnable as a live deployment?  Returns ``(ok, reason)``.

    The verdict of :func:`~repro.live.cluster.compile_live` under the
    default deployment settings — the tag the fuzzer stamps on generated
    specs so the differential harness can consume fuzzer artifacts.
    """
    from ..eval.scenario import ScenarioError
    from .cluster import LiveClusterConfig, LiveClusterError, compile_live

    try:
        compile_live(LiveClusterConfig(spec))
    except (ScenarioError, LiveClusterError) as exc:
        return False, str(exc)
    return True, None
