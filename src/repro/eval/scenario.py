"""Declarative experiment scenarios.

The paper's evaluation does not just boot N nodes and measure: it joins them
under realistic schedules, kills them, lets the failure detector drive
``error`` transitions, and measures workloads *while* the overlay is
repairing itself.  This module is the ns-style scenario script for the
reproduction: a :class:`ScenarioSpec` is a declarative description of one
such run — which agents, how many nodes, and a set of typed event models —
that compiles onto the simulator timeline and executes deterministically from
a seed.

The event models cover the paper's fault vocabulary plus the adversarial
shapes the scenario fuzzer (:mod:`repro.eval.fuzz`) explores:

* :class:`ChurnModel` — staggered or Poisson joins, plus optional
  leave/rejoin cycling of a fraction of the membership (fail-stop leaves);
* :class:`FlashCrowdModel` — a calm core boot followed by a Poisson burst
  of joins (flash-crowd churn), with optional mass departure;
* :class:`CrashModel` — a correlated fail-stop kill of chosen or sampled
  victims, with optional recovery;
* :class:`CorrelatedCrashModel` — rack-failure-shaped kills: whole
  topology attachment groups fail together;
* :class:`PartitionModel` — a network partition, either host-level groups
  (testbed-style per-host filtering) or physical link cuts, healed later;
* :class:`FlappingPartitionModel` — timed heal-and-recut cycles, optionally
  with one-directional (asymmetric) link cuts;
* :class:`DegradeModel` — slow nodes and bottleneck links: bandwidth/latency
  degradation of access links or named edges, optionally restored;
* :class:`GroupModel` — multicast group choreography (create + member joins)
  for tree-building protocols;
* :class:`WorkloadModel` — measurement traffic: multicast bursts, key route
  probes, a replicated key/value workload (``kind="kv"``: Zipf-skewed
  put/get mix against :class:`~repro.apps.kv.KvStore` with quorum
  accounting), or topic pub/sub (``kind="pubsub"``: subscribe fanout plus
  publishes against :class:`~repro.apps.pubsub.PubSub`), all with
  delivery/latency accounting.

Event times are **offsets from the moment the model is applied**;
:meth:`ScenarioSpec.run` applies every model at time zero, so offsets and
absolute times coincide for whole-scenario runs.  All randomness comes from
an RNG forked from the experiment seed, so a spec is a pure function of
``(spec, seed)`` — the fixed-seed determinism tests pin this.

:class:`~repro.eval.runner.ScenarioRunner` executes one spec across several
seeds and aggregates the resulting metrics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence, Type, Union

from ..apps.payload import AppPayload
from ..runtime.agent import Agent
from ..runtime.failure import FailureDetectorConfig
from ..network.topology import Topology


class ScenarioError(ValueError):
    """Raised for malformed scenario specifications."""


# --------------------------------------------------------------------- events
@dataclass(frozen=True)
class ScenarioEvent:
    """One compiled timeline entry: when, what, and the thunk that does it."""

    time: float          # offset in seconds from the moment the model is applied
    kind: str            # "join" | "crash" | "recover" | "partition" | ...
    detail: str
    apply: Callable[[], None]

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ScenarioError(
                f"{self.kind} event scheduled {self.time} s in the past")


class CompiledModel:
    """A model bound to one experiment: its events plus a metrics closure."""

    def __init__(self, label: str, events: Sequence[ScenarioEvent],
                 finalize: Optional[Callable[[], dict[str, float]]] = None,
                 restore: Optional[Callable[[], None]] = None) -> None:
        self.label = label
        self.events = list(events)
        self._finalize = finalize
        self._restore = restore
        #: Sharded-execution hooks (multi-process runs only).  Models whose
        #: finalize reads *runtime* counters set both: ``shard_payload()``
        #: returns the shard-local raw observations and
        #: ``shard_merge(payloads)`` recomputes the metrics dict from all
        #: shards' payloads with the exact single-process formulas.  Models
        #: whose finalize is a pure function of compile-time state (the
        #: common case — compilation happens once, before the fork) need
        #: neither: their per-shard metrics are verified identical and used
        #: as-is.
        self.shard_payload: Optional[Callable[[], Any]] = None
        self.shard_merge: Optional[Callable[[list], dict[str, float]]] = None

    def metrics(self) -> dict[str, float]:
        """Model-specific metrics, collected after the run."""
        return dict(self._finalize()) if self._finalize is not None else {}

    def restore(self) -> None:
        """Undo any handler instrumentation the model installed."""
        if self._restore is not None:
            self._restore()


# --------------------------------------------------------------------- models
@dataclass(frozen=True)
class ScenarioModel:
    """Base class of the typed event models.

    ``label`` names the model's metrics in :class:`ScenarioResult`
    (``<label>.<metric>``); each subclass has a sensible default.
    """

    label: str = ""

    def default_label(self) -> str:
        return type(self).__name__.removesuffix("Model").lower()

    def instantiate(self, experiment: "OverlayExperiment",  # noqa: F821
                    rng, horizon: float) -> CompiledModel:
        raise NotImplementedError


def _resolve_indices(experiment, indices: Sequence[int], what: str) -> list[int]:
    count = len(experiment.nodes)
    out = []
    for index in indices:
        if not -count <= index < count:
            raise ScenarioError(
                f"{what} index {index} out of range for {count} nodes")
        out.append(index % count)
    return out


def _validate_partition_targets(experiment, groups, links, model: str) -> None:
    """Reject unknown hosts/edges when the model compiles, not mid-run.

    A bad group member or a link absent from the topology used to surface
    only when the partition event fired (as an AddressError/RoutingError
    deep inside the emulator, long after ``build()`` returned); fuzzed and
    hand-written specs alike want the whole list of offenders up front.
    """
    count = len(experiment.nodes)
    bad_members = sorted({index for group in groups for index in group
                          if not -count <= index < count})
    if bad_members:
        raise ScenarioError(
            f"{model} group members out of range for {count} nodes: "
            f"{bad_members}")
    graph = experiment.topology.graph
    bad_links = [(u, v) for u, v in links if not graph.has_edge(u, v)]
    if bad_links:
        raise ScenarioError(
            f"{model} links not in topology "
            f"{experiment.topology.name!r}: {bad_links}")


@dataclass(frozen=True)
class ChurnModel(ScenarioModel):
    """Join schedule plus optional leave/rejoin churn.

    Joins: every node calls ``macedon_init`` against the experiment
    bootstrap — all at once (``join="immediate"``), spaced ``join_spacing``
    seconds apart (``"staggered"``), or with exponential inter-arrival gaps
    of mean ``1/join_rate`` (``"poisson"``).  Node 0 (the bootstrap) always
    joins first, at ``start``.

    Churn: ``churn_fraction`` of the non-exempt membership is sampled; each
    victim fail-stops at a uniform time in ``[churn_start, churn_end]`` and,
    if ``rejoin`` is set, recovers ``downtime`` seconds later with a factory
    reset and a fresh ``macedon_init`` — the recovery path the paper drives
    on ModelNet.
    """

    join: str = "staggered"          # "immediate" | "staggered" | "poisson"
    join_spacing: float = 0.25
    join_rate: float = 4.0           # joins per second for "poisson"
    start: float = 0.0
    churn_fraction: float = 0.0
    churn_start: float = 0.0
    churn_end: Optional[float] = None
    downtime: float = 10.0
    rejoin: bool = True
    exempt: tuple[int, ...] = (0,)   # node indices never churned (bootstrap)

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if self.join not in ("immediate", "staggered", "poisson"):
            raise ScenarioError(f"unknown join mode {self.join!r}")
        events: list[ScenarioEvent] = []
        crashes = 0

        when = self.start
        join_at: list[float] = []
        for index in range(len(experiment.nodes)):
            if index > 0:
                if self.join == "staggered":
                    when = self.start + index * self.join_spacing
                elif self.join == "poisson":
                    when += rng.expovariate(self.join_rate)
            join_at.append(when)
            events.append(ScenarioEvent(
                when, "join", f"node {index} joins",
                lambda i=index: experiment.join_node(i)))

        if self.churn_fraction > 0:
            exempt = set(_resolve_indices(experiment, self.exempt, "exempt"))
            candidates = [i for i in range(len(experiment.nodes))
                          if i not in exempt]
            count = min(len(candidates),
                        round(self.churn_fraction * len(candidates)))
            victims = sorted(rng.sample(candidates, count))
            end = self.churn_end if self.churn_end is not None else horizon
            window_end = max(self.churn_start,
                             end - (self.downtime if self.rejoin else 0.0))
            for index in victims:
                # A victim cannot churn out before it has joined: a crash
                # scheduled earlier would be silently undone by the join
                # (join_node recovers crashed nodes), counting a cycle that
                # delivered zero downtime.
                window_start = max(self.churn_start, join_at[index])
                at = rng.uniform(window_start, max(window_start, window_end))
                crashes += 1
                events.append(ScenarioEvent(
                    at, "crash", f"node {index} churns out",
                    lambda i=index: experiment.crash_node(i)))
                if self.rejoin:
                    events.append(ScenarioEvent(
                        at + self.downtime, "recover", f"node {index} rejoins",
                        lambda i=index: experiment.recover_node(i, rejoin=True)))

        label = self.label or self.default_label()
        return CompiledModel(label, events,
                             finalize=lambda: {"joins": float(len(experiment.nodes)),
                                               "churn_cycles": float(crashes)})


@dataclass(frozen=True)
class CrashModel(ScenarioModel):
    """A correlated fail-stop kill at one instant, with optional recovery.

    Victims are either named node indices or a sampled ``fraction`` of the
    non-exempt membership.  With ``recover_after`` set, every victim comes
    back that many seconds later (factory-reset, re-joined via the
    bootstrap); otherwise the kill is permanent for the rest of the run.
    """

    at: float = 0.0
    victims: tuple[int, ...] = ()
    fraction: float = 0.0
    recover_after: Optional[float] = None
    exempt: tuple[int, ...] = (0,)

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if self.victims and self.fraction:
            raise ScenarioError("give CrashModel victims or fraction, not both")
        if self.victims:
            chosen = _resolve_indices(experiment, self.victims, "victim")
        else:
            exempt = set(_resolve_indices(experiment, self.exempt, "exempt"))
            candidates = [i for i in range(len(experiment.nodes))
                          if i not in exempt]
            count = min(len(candidates), round(self.fraction * len(candidates)))
            chosen = sorted(rng.sample(candidates, count))
        events: list[ScenarioEvent] = []
        for index in chosen:
            events.append(ScenarioEvent(
                self.at, "crash", f"node {index} fail-stops",
                lambda i=index: experiment.crash_node(i)))
            if self.recover_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.recover_after, "recover",
                    f"node {index} recovers",
                    lambda i=index: experiment.recover_node(i, rejoin=True)))
        label = self.label or self.default_label()
        return CompiledModel(label, events,
                             finalize=lambda: {"victims": float(len(chosen))})


@dataclass(frozen=True)
class PartitionModel(ScenarioModel):
    """Cut the network at ``at``; optionally heal ``heal_after`` seconds later.

    Two cut mechanisms, matching the emulator's fault hooks:

    * ``groups`` — host-level partition: node-index groups whose members can
      only reach hosts in their own group; unlisted nodes form their own
      implicit group, so a single listed group is isolated from everyone
      else (``NetworkEmulator.partition_hosts``);
    * ``links`` — physical cuts of specific underlay edges
      (``NetworkEmulator.disable_link`` with targeted route invalidation).
    """

    at: float = 0.0
    heal_after: Optional[float] = None
    groups: tuple[tuple[int, ...], ...] = ()
    links: tuple[tuple[int, int], ...] = ()

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if not self.groups and not self.links:
            raise ScenarioError("PartitionModel needs groups or links to cut")
        _validate_partition_targets(experiment, self.groups, self.links,
                                    "PartitionModel")
        events: list[ScenarioEvent] = []
        if self.groups:
            events.append(ScenarioEvent(
                self.at, "partition",
                f"partition into {len(self.groups)} host groups",
                lambda: experiment.partition([list(g) for g in self.groups])))
            if self.heal_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.heal_after, "heal", "partition heals",
                    experiment.heal_partition))
        for (u, v) in self.links:
            events.append(ScenarioEvent(
                self.at, "link-cut", f"link ({u}, {v}) cut",
                lambda u=u, v=v: experiment.disable_link(u, v)))
            if self.heal_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.heal_after, "link-heal",
                    f"link ({u}, {v}) heals",
                    lambda u=u, v=v: experiment.enable_link(u, v)))
        label = self.label or self.default_label()
        return CompiledModel(label, events)


@dataclass(frozen=True)
class FlashCrowdModel(ScenarioModel):
    """Flash-crowd churn: a calm core boot, then the crowd slams in.

    Nodes ``0..core-1`` join staggered ``core_spacing`` seconds apart from
    time zero (node 0 is the bootstrap).  The remaining nodes — the crowd —
    arrive in a Poisson burst starting at ``at`` with exponential
    inter-arrival gaps of mean ``1/burst_rate`` joins per second.  With
    ``stay`` set, every crowd node fail-stops ``stay`` seconds after its own
    join and does not return: the flash crowd leaves as abruptly as it came.
    """

    core: int = 1
    core_spacing: float = 0.5
    at: float = 30.0
    burst_rate: float = 20.0         # crowd joins per second
    stay: Optional[float] = None

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        num_nodes = len(experiment.nodes)
        if not 1 <= self.core <= num_nodes:
            raise ScenarioError(
                f"FlashCrowdModel core {self.core} out of range for "
                f"{num_nodes} nodes")
        if self.burst_rate <= 0:
            raise ScenarioError("FlashCrowdModel burst_rate must be positive")
        if self.stay is not None and self.stay <= 0:
            raise ScenarioError("FlashCrowdModel stay must be positive")
        events: list[ScenarioEvent] = []
        for index in range(self.core):
            events.append(ScenarioEvent(
                index * self.core_spacing, "join",
                f"node {index} joins (core)",
                lambda i=index: experiment.join_node(i)))
        when = self.at
        last = self.at
        for index in range(self.core, num_nodes):
            when += rng.expovariate(self.burst_rate)
            last = when
            events.append(ScenarioEvent(
                when, "join", f"node {index} joins (crowd)",
                lambda i=index: experiment.join_node(i)))
            if self.stay is not None:
                events.append(ScenarioEvent(
                    when + self.stay, "crash", f"node {index} departs (crowd)",
                    lambda i=index: experiment.crash_node(i)))
        crowd = num_nodes - self.core
        label = self.label or self.default_label()
        return CompiledModel(label, events,
                             finalize=lambda: {
                                 "crowd": float(crowd),
                                 "burst_seconds": last - self.at,
                             })


@dataclass(frozen=True)
class CorrelatedCrashModel(ScenarioModel):
    """Rack-failure-shaped kills: whole failure domains go down together.

    Nodes are grouped into failure domains by the *stub domain* their access
    router belongs to (the connected components of the topology's stub-role
    routers — clients behind one stub clique share power/uplink, the classic
    rack); ``racks`` of those domains are sampled and every non-exempt
    member fail-stops at ``at``.  With ``recover_after`` set, the victims
    all come back that many seconds later — a rack power-cycle rather than
    a permanent loss.  On topologies without stub roles each attachment
    router is its own domain.
    """

    at: float = 10.0
    racks: int = 1
    recover_after: Optional[float] = None
    exempt: tuple[int, ...] = (0,)   # the bootstrap survives by default

    @staticmethod
    def failure_domains(experiment) -> dict[int, int]:
        """Map each topology attachment router to a failure-domain id."""
        import networkx as nx

        from ..network.topology import ROLE_ATTR

        graph = experiment.topology.graph
        stub_nodes = [node for node, data in graph.nodes(data=True)
                      if data.get(ROLE_ATTR) == "stub"]
        domain_of: dict[int, int] = {}
        components = sorted(
            (sorted(component) for component in
             nx.connected_components(graph.subgraph(stub_nodes))),
            key=lambda members: members[0])
        for domain, members in enumerate(components):
            for member in members:
                domain_of[member] = domain
        # Client attachment points inherit the domain of the access router
        # they hang off (a client's topology node is the client vertex
        # itself, not the router).
        for client in experiment.topology.clients:
            for neighbor in graph.neighbors(client):
                if neighbor in domain_of:
                    domain_of[client] = domain_of[neighbor]
                    break
        return domain_of

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        exempt = set(_resolve_indices(experiment, self.exempt, "exempt"))
        domain_of = self.failure_domains(experiment)
        by_rack: dict[int, list[int]] = {}
        for index, node in enumerate(experiment.nodes):
            if index not in exempt:
                attachment = node.host.topology_node
                # Routers outside any stub domain (custom topologies) form
                # singleton domains, keyed disjointly from the real ones.
                rack = domain_of.get(attachment, -1 - attachment)
                by_rack.setdefault(rack, []).append(index)
        if not 1 <= self.racks <= len(by_rack):
            raise ScenarioError(
                f"CorrelatedCrashModel racks={self.racks} out of range: "
                f"topology has {len(by_rack)} failure domains with "
                f"non-exempt members")
        chosen = rng.sample(sorted(by_rack), self.racks)
        victims = sorted(index for rack in chosen for index in by_rack[rack])
        events: list[ScenarioEvent] = []
        for index in victims:
            events.append(ScenarioEvent(
                self.at, "crash", f"node {index} fails with its rack",
                lambda i=index: experiment.crash_node(i)))
            if self.recover_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.recover_after, "recover",
                    f"node {index} recovers with its rack",
                    lambda i=index: experiment.recover_node(i, rejoin=True)))
        label = self.label or self.default_label()
        return CompiledModel(label, events,
                             finalize=lambda: {"racks": float(self.racks),
                                               "victims": float(len(victims))})


@dataclass(frozen=True)
class FlappingPartitionModel(ScenarioModel):
    """A partition that heals and recuts on a timer — the flapping-link shape
    that stresses failure detectors far harder than one clean cut.

    Each of ``cycles`` cycles starts at ``at + k * period``: the partition is
    installed, held for ``duty * period`` seconds, then healed for the rest
    of the period.  The cut is either host-level ``groups`` (as in
    :class:`PartitionModel`) or physical ``links``; with ``directed`` set,
    link cuts blackhole only the ``u -> v`` direction of each listed edge
    (asymmetric partition: one side keeps hearing the other).
    """

    at: float = 0.0
    period: float = 20.0
    duty: float = 0.5                # fraction of each period spent cut
    cycles: int = 3
    groups: tuple[tuple[int, ...], ...] = ()
    links: tuple[tuple[int, int], ...] = ()
    directed: bool = False

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if not self.groups and not self.links:
            raise ScenarioError(
                "FlappingPartitionModel needs groups or links to cut")
        if self.directed and not self.links:
            raise ScenarioError(
                "FlappingPartitionModel directed cuts need links "
                "(host groups have no direction)")
        if self.period <= 0 or not 0 < self.duty < 1 or self.cycles < 1:
            raise ScenarioError(
                "FlappingPartitionModel needs period > 0, 0 < duty < 1 "
                "and cycles >= 1")
        _validate_partition_targets(experiment, self.groups, self.links,
                                    "FlappingPartitionModel")
        events: list[ScenarioEvent] = []
        for cycle in range(self.cycles):
            cut_at = self.at + cycle * self.period
            heal_at = cut_at + self.duty * self.period
            if self.groups:
                events.append(ScenarioEvent(
                    cut_at, "partition",
                    f"flap {cycle}: partition into {len(self.groups)} groups",
                    lambda: experiment.partition(
                        [list(g) for g in self.groups])))
                events.append(ScenarioEvent(
                    heal_at, "heal", f"flap {cycle}: partition heals",
                    experiment.heal_partition))
            for (u, v) in self.links:
                if self.directed:
                    events.append(ScenarioEvent(
                        cut_at, "link-cut",
                        f"flap {cycle}: direction ({u} -> {v}) cut",
                        lambda u=u, v=v: experiment.disable_link_direction(u, v)))
                    events.append(ScenarioEvent(
                        heal_at, "link-heal",
                        f"flap {cycle}: direction ({u} -> {v}) heals",
                        lambda u=u, v=v: experiment.enable_link_direction(u, v)))
                else:
                    events.append(ScenarioEvent(
                        cut_at, "link-cut", f"flap {cycle}: link ({u}, {v}) cut",
                        lambda u=u, v=v: experiment.disable_link(u, v)))
                    events.append(ScenarioEvent(
                        heal_at, "link-heal",
                        f"flap {cycle}: link ({u}, {v}) heals",
                        lambda u=u, v=v: experiment.enable_link(u, v)))
        label = self.label or self.default_label()
        return CompiledModel(
            label, events,
            finalize=lambda: {"cycles": float(self.cycles),
                              "cut_seconds": self.cycles * self.duty * self.period})


@dataclass(frozen=True)
class DegradeModel(ScenarioModel):
    """Slow nodes and bottleneck links: service-rate degradation at runtime.

    At ``at``, the access links of the chosen nodes (named ``hosts`` indices
    or a sampled ``host_fraction`` of the non-exempt membership) and the
    named underlay ``links`` have their bandwidth scaled by
    ``bandwidth_factor`` (down) and latency by ``latency_factor`` (up), via
    the emulator's degrade hooks — routing reweighs the affected edges with
    the same targeted invalidation a link cut uses.  With ``restore_after``
    set, everything returns to its original service rate that many seconds
    later.
    """

    at: float = 0.0
    restore_after: Optional[float] = None
    hosts: tuple[int, ...] = ()
    host_fraction: float = 0.0
    links: tuple[tuple[int, int], ...] = ()
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    exempt: tuple[int, ...] = (0,)

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if self.hosts and self.host_fraction:
            raise ScenarioError(
                "give DegradeModel hosts or host_fraction, not both")
        if not self.hosts and not self.host_fraction and not self.links:
            raise ScenarioError(
                "DegradeModel needs hosts, host_fraction, or links")
        if not 0.0 < self.bandwidth_factor <= 1.0 or self.latency_factor < 1.0:
            raise ScenarioError(
                "DegradeModel needs bandwidth_factor in (0, 1] and "
                "latency_factor >= 1 (degradation only slows things down)")
        if self.bandwidth_factor == 1.0 and self.latency_factor == 1.0:
            raise ScenarioError("DegradeModel with both factors 1.0 is a no-op")
        _validate_partition_targets(experiment, (), self.links, "DegradeModel")
        if self.hosts:
            chosen = sorted(set(_resolve_indices(experiment, self.hosts,
                                                 "degraded host")))
        elif self.host_fraction:
            exempt = set(_resolve_indices(experiment, self.exempt, "exempt"))
            candidates = [i for i in range(len(experiment.nodes))
                          if i not in exempt]
            count = min(len(candidates),
                        round(self.host_fraction * len(candidates)))
            chosen = sorted(rng.sample(candidates, count))
        else:
            chosen = []
        events: list[ScenarioEvent] = []
        for index in chosen:
            events.append(ScenarioEvent(
                self.at, "degrade", f"node {index} access links degrade",
                lambda i=index: experiment.degrade_node(
                    i, bandwidth_factor=self.bandwidth_factor,
                    latency_factor=self.latency_factor)))
            if self.restore_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.restore_after, "restore",
                    f"node {index} access links restore",
                    lambda i=index: experiment.restore_node(i)))
        for (u, v) in self.links:
            events.append(ScenarioEvent(
                self.at, "degrade", f"link ({u}, {v}) degrades",
                lambda u=u, v=v: experiment.degrade_link(
                    u, v, bandwidth_factor=self.bandwidth_factor,
                    latency_factor=self.latency_factor)))
            if self.restore_after is not None:
                events.append(ScenarioEvent(
                    self.at + self.restore_after, "restore",
                    f"link ({u}, {v}) restores",
                    lambda u=u, v=v: experiment.restore_link(u, v)))
        label = self.label or self.default_label()
        return CompiledModel(label, events,
                             finalize=lambda: {"hosts": float(len(chosen)),
                                               "links": float(len(self.links))})


# -------------------------------------------------------------- node programs
@dataclass(frozen=True)
class NodeOp:
    """One pre-drawn operation of a per-node model.

    At ``time`` (an offset from the moment the model is applied) node index
    ``node`` calls ``action(*args)`` on its own binding; ``kind`` and
    ``detail`` label the scenario event log.
    """

    time: float
    node: int
    action: str
    args: tuple
    kind: str
    detail: str


class NodeProgram:
    """The per-node half of a compiled model: an op schedule plus a binding.

    ``ops`` (a list of :class:`NodeOp`) is drawn once, at compile time, so
    the schedule does not depend on where it runs.  :meth:`bind` installs
    the model's application state on one node and returns the object whose
    methods the ops call.  The simulator binds every node into one heap
    (:func:`_bind_every_node`); a live node process binds only its own node
    and runs its slice of ``ops`` (:mod:`repro.live.cluster`).  Either way
    :meth:`payload` reduces one process's observations to raw records, and
    :meth:`merge` scores pooled payloads with the model's own formulas.
    Programs hold plain data only, so they pickle into live node processes.
    """

    #: The accumulator one process's bindings share, and the binding class.
    observations: Callable[[], Any]
    binding: type
    #: The op action whose first argument is the op's seqno (None: the
    #: model issues no measured operations).
    measured: Optional[str] = None
    #: Position of the op seqno in ``payload["records"]`` tuples.
    seqno_field = 0

    def bind(self, node, observations) -> Any:
        """Install the model on *node*; returns the binding ops call into."""
        return self.binding(self, node, observations)

    def payload(self, observations, bindings: list) -> dict[str, Any]:
        raise NotImplementedError

    def merge(self, payloads: list) -> dict[str, float]:
        raise NotImplementedError

    def finalize(self, observations, bindings: list) -> dict[str, float]:
        """Metrics of a run in which *bindings* are every node."""
        return self.merge([self.payload(observations, bindings)])

    def pooled_records(self, payloads: list) -> list:
        """Every payload's records of ops that some payload accounts as
        sent.  In simulation that is every record; a live receiver can also
        log a probe whose sender's report died with its process."""
        sent = {seqno for payload in payloads for seqno in payload["sent"]}
        field_ = self.seqno_field
        return [record for payload in payloads
                for record in payload["records"] if record[field_] in sent]


def _bind_every_node(experiment, label: str, program: NodeProgram):
    """Run *program* in the simulator: bind every node, schedule every op.

    Returns ``(compiled, observations, bindings)``.
    """
    nodes = experiment.nodes
    observations = program.observations()
    bindings = [program.bind(node, observations) for node in nodes]

    def _fire(op: NodeOp) -> None:
        # Sharded runs: the op fires (and is counted, sent or skipped) only
        # on the shard that owns its node — everywhere else the node is a
        # dormant replica whose state is meaningless.
        if not experiment.owns_node(nodes[op.node]):
            experiment.shard_skipped_events += 1
            return
        getattr(bindings[op.node], op.action)(*op.args)

    def _restore() -> None:
        for binding in bindings:
            binding.restore()

    def _shard_payload() -> dict[str, Any]:
        return program.payload(observations, [
            binding for node, binding in zip(nodes, bindings)
            if experiment.owns_node(node)])

    events = [ScenarioEvent(op.time, op.kind, op.detail, partial(_fire, op))
              for op in program.ops]
    compiled = CompiledModel(
        label, events, restore=_restore,
        finalize=lambda: program.finalize(observations, bindings))
    compiled.program = program  # type: ignore[attr-defined]
    compiled.shard_payload = _shard_payload
    compiled.shard_merge = program.merge
    return compiled, observations, bindings


class _Binding:
    """One node's side of a program; ``restore`` undoes its handlers."""

    def __init__(self, program, node, observations) -> None:
        self.program = program
        self.node = node
        self.observations = observations
        self.previous = node.handlers

    def restore(self) -> None:
        self.node.handlers = self.previous

    def _account(self, seqno: int) -> bool:
        """Count a measured op as sent — or as skipped, returning False,
        while the node is down or not yet initialised."""
        node = self.node
        if node.crashed or not node.initialized:
            self.observations.skipped += 1
            return False
        self.observations.sent_seqnos.append(seqno)
        return True


class _GroupBinding(_Binding):
    def restore(self) -> None:
        pass   # installs no handlers

    def create(self) -> None:
        node = self.node
        if node.alive and node.initialized:
            node.macedon_create_group(self.program.group)

    def join(self) -> None:
        node = self.node
        if node.alive and node.initialized:
            node.macedon_join(self.program.group)
            self.observations.joined += 1


class _GroupObservations:
    joined = 0


@dataclass
class _GroupProgram(NodeProgram):
    observations = _GroupObservations
    binding = _GroupBinding
    ops: list
    group: int
    members: int

    def payload(self, observations, bindings):
        return {"joined": observations.joined}

    def merge(self, payloads):
        # ``joined`` counts only each process's own members, so the merge
        # is a straight sum; ``members`` is compile-time.
        return {"members": float(self.members),
                "joined": float(sum(p["joined"] for p in payloads))}


@dataclass(frozen=True)
class GroupModel(ScenarioModel):
    """Multicast group choreography for tree-building protocols.

    Node ``source`` creates ``group`` at ``at``; the ``members`` (every
    other node by default) join it staggered ``spacing`` seconds apart.
    This is the setup a multicast :class:`WorkloadModel` needs on protocols
    like Scribe, expressed as a model so fuzzed and curated specs can drive
    tree protocols without hand-written choreography.  Joins are skipped for
    nodes that are crashed or uninitialised when their join fires.
    """

    group: int = 1
    source: int = 0
    at: float = 0.0
    spacing: float = 0.25
    members: tuple[int, ...] = ()    # empty = everyone except source

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        source = _resolve_indices(experiment, (self.source,),
                                  "group source")[0]
        if self.members:
            members = [index for index in
                       _resolve_indices(experiment, self.members,
                                        "group member")
                       if index != source]
        else:
            members = [index for index in range(len(experiment.nodes))
                       if index != source]
        ops = [NodeOp(self.at, source, "create", (), "group",
                      f"node {source} creates group {self.group}")]
        for offset, index in enumerate(members):
            ops.append(NodeOp(self.at + (offset + 1) * self.spacing, index,
                              "join", (), "group",
                              f"node {index} joins group {self.group}"))
        program = _GroupProgram(ops, self.group, len(members))
        label = self.label or self.default_label()
        return _bind_every_node(experiment, label, program)[0]


class WorkloadObservations:
    """Accumulated delivery/latency observations of one workload model."""

    def __init__(self) -> None:
        #: Seqnos of the probes actually sent, in send order.
        self.sent_seqnos: list[int] = []
        self.skipped = 0          # probes whose sender was down at send time
        self.deliveries = 0       # total deliver upcalls (multicast: many/packet)
        self.duplicates = 0       # same (receiver, seqno) seen twice
        self.latencies: list[float] = []
        self.per_receiver: dict[int, list[float]] = {}
        self.delivered_seqnos: set[int] = set()
        self._seen: set[tuple[int, int]] = set()
        #: (receiver, seqno, latency) per first delivery — the unit pooled
        #: runs merge on: receivers are process-owned, so (receiver, seqno)
        #: is globally unique and sorting on it gives every shard count K
        #: the same canonical latency order.
        self.records: list[tuple[int, int, float]] = []

    @property
    def sent(self) -> int:
        return len(self.sent_seqnos)

    def record(self, receiver: int, payload: AppPayload, now: float) -> None:
        key = (receiver, payload.seqno)
        if key in self._seen:
            self.duplicates += 1
            return
        self._seen.add(key)
        self.deliveries += 1
        self.delivered_seqnos.add(payload.seqno)
        latency = now - payload.sent_at
        self.latencies.append(latency)
        self.per_receiver.setdefault(receiver, []).append(latency)
        self.records.append((receiver, payload.seqno, latency))

    @property
    def success_ratio(self) -> float:
        """Distinct probes delivered anywhere, over probes actually sent."""
        if self.sent == 0:
            return 0.0
        return len(self.delivered_seqnos) / self.sent


class KvObservations:
    """Accumulated client-operation observations of one KV workload."""

    def __init__(self) -> None:
        #: Seqnos of the ops actually issued, in issue order.
        self.sent_seqnos: list[int] = []
        self.skipped = 0          # ops whose client was down at issue time
        #: One tuple per quorum-completed operation, the unit pooled runs
        #: merge on: ``(seqno, client_addr, kind_code, key, version,
        #: issued_at, completed_at, acks)`` with kind_code 0=put, 1=get.
        #: Seqnos are driver-unique and each op completes in the process
        #: that owns its client, so sorting on seqno gives every shard count
        #: the same canonical order.
        self.records: list[tuple] = []

    @property
    def sent(self) -> int:
        return len(self.sent_seqnos)

    def complete(self, client: int, record) -> None:
        self.records.append((record.seqno, client,
                             0 if record.kind == "put" else 1, record.key,
                             record.version, record.issued_at,
                             record.completed_at, record.acks))


@dataclass
class KvWorkloadState:
    """Compile-time handles a KV workload exposes for invariant checking.

    Attached to the compiled model as ``compiled.kv_state``; the runtime
    invariants (:mod:`repro.eval.invariants`) read it after the run.
    """

    observations: KvObservations
    issued_writes: set          # every (key, version) any client issued
    stores: list                # per-node KvStore instances (index order)
    nodes: list                 # the experiment's nodes (index order)
    replicas: int
    write_quorum: int
    read_quorum: int
    repair_gap: float
    start: float


class _ProbeBinding(_Binding):
    """Route/multicast: a delivery recorder chained in front of whatever
    deliver handler the application registered (kept for restore())."""

    def __init__(self, program, node, observations) -> None:
        super().__init__(program, node, observations)
        node.handlers = replace(self.previous, deliver=self._deliver)

    def _deliver(self, payload, size, mtype) -> None:
        if isinstance(payload, AppPayload) and \
                payload.stream_id == self.program.stream_id:
            self.observations.record(self.node.address, payload,
                                     self.node.simulator.now)
        if self.previous.deliver is not None:
            self.previous.deliver(payload, size, mtype)

    def send(self, seqno: int, dest_key: Optional[int]) -> None:
        if not self._account(seqno):
            return
        node, program = self.node, self.program
        payload = AppPayload(seqno=seqno, sent_at=node.simulator.now,
                             source=node.address, size=program.packet_bytes,
                             stream_id=program.stream_id)
        if program.kind == "multicast":
            node.macedon_multicast(program.group, payload,
                                   program.packet_bytes)
        else:
            node.macedon_route(dest_key, payload, program.packet_bytes)


@dataclass
class _ProbeProgram(NodeProgram):
    observations = WorkloadObservations
    binding = _ProbeBinding
    measured = "send"
    seqno_field = 1
    ops: list
    kind: str
    group: int
    packet_bytes: int
    stream_id: int

    def finalize(self, observations, bindings):
        # Latencies in arrival order: the single-process accumulation order
        # the pinned metrics were recorded with.
        from .metrics import mean, percentile  # local import avoids a cycle
        return {
            "sent": float(observations.sent),
            "skipped": float(observations.skipped),
            "deliveries": float(observations.deliveries),
            "duplicates": float(observations.duplicates),
            "success_ratio": observations.success_ratio,
            "latency_mean": mean(observations.latencies),
            "latency_p95": percentile(observations.latencies, 0.95),
        }

    def payload(self, observations, bindings):
        return {
            "sent": observations.sent_seqnos,
            "skipped": observations.skipped,
            "duplicates": observations.duplicates,
            "records": observations.records,
        }

    def merge(self, payloads):
        # Recompute every metric from the pooled raw observations with the
        # exact finalize formulas.  Records are sorted on the globally
        # unique (receiver, seqno) key, so the latency order — and
        # therefore the float accumulation in mean() — is the same
        # canonical order however the run was split.
        from .metrics import mean, percentile
        sent = sum(len(p["sent"]) for p in payloads)
        records = sorted(self.pooled_records(payloads),
                         key=lambda r: (r[0], r[1]))
        latencies = [latency for _receiver, _seqno, latency in records]
        delivered_seqnos = {seqno for _receiver, seqno, _latency in records}
        return {
            "sent": float(sent),
            "skipped": float(sum(p["skipped"] for p in payloads)),
            "deliveries": float(len(records)),
            "duplicates": float(sum(p["duplicates"] for p in payloads)),
            "success_ratio": (len(delivered_seqnos) / sent) if sent else 0.0,
            "latency_mean": mean(latencies),
            "latency_p95": percentile(latencies, 0.95),
        }


class _KvBinding(_Binding):
    """A :class:`~repro.apps.kv.KvStore` on the node; construction chains
    over whatever handlers the node already has (kept for restore())."""

    def __init__(self, program, node, observations) -> None:
        from ..apps.kv import KvStore
        super().__init__(program, node, observations)
        model = program.model
        self.store = KvStore(node, replicas=model.replicas,
                             write_quorum=model.write_quorum,
                             read_quorum=model.read_quorum,
                             op_bytes=model.packet_bytes,
                             stream_id=program.stream_id)
        self.store.on_complete = (lambda record, client=node.address:
                                  observations.complete(client, record))

    def issue(self, seqno: int, key: int, version: int) -> None:
        if not self._account(seqno):
            return
        if version >= 0:
            self.store.put(key, version, seqno)
        else:
            self.store.get(key, seqno)

    def repair(self) -> None:
        if not self.node.crashed and self.node.initialized:
            self.store.repair()

    def live_store(self) -> Optional[dict[int, int]]:
        """The key->version map, or None while the node is down."""
        if self.node.alive and self.node.initialized:
            self.store._check_epoch()
            return dict(self.store.store)
        return None


@dataclass
class _KvProgram(NodeProgram):
    observations = KvObservations
    binding = _KvBinding
    measured = "issue"
    ops: list
    model: "WorkloadModel"
    stream_id: int
    issued_writes: set
    window: float

    def payload(self, observations, bindings):
        return {
            "sent": observations.sent_seqnos,
            "skipped": observations.skipped,
            "records": observations.records,
            "stores": [store for binding in bindings
                       if (store := binding.live_store()) is not None],
        }

    def merge(self, payloads):
        # Each client (and each store) is owned by exactly one process, so
        # pooling is a disjoint union; records are re-sorted on the
        # globally unique seqno, giving every split the identical canonical
        # accumulation order.
        from .metrics import (mean, percentile, phantom_reads,
                              quorum_staleness, replica_coverage,
                              requests_per_second)
        sent = sum(len(p["sent"]) for p in payloads)
        records = sorted(self.pooled_records(payloads))
        latencies = [r[6] - r[5] for r in records]
        puts = [r for r in records if r[2] == 0]
        gets = [r for r in records if r[2] == 1]
        writes = [(r[3], r[4], r[6]) for r in puts]
        targets: dict[int, int] = {}
        for key, version, _completed_at in writes:
            if version > targets.get(key, -1):
                targets[key] = version
        return {
            "sent": float(sent),
            "skipped": float(sum(p["skipped"] for p in payloads)),
            "completed": float(len(records)),
            "puts": float(len(puts)),
            "gets": float(len(gets)),
            "quorum_success": (len(records) / sent) if sent else 0.0,
            "requests_per_sec": requests_per_second(len(records),
                                                    self.window),
            "latency_mean": mean(latencies),
            "latency_p95": percentile(latencies, 0.95),
            "stale_reads": float(quorum_staleness(
                [(r[3], r[4], r[5]) for r in gets], writes)),
            "phantom_reads": float(phantom_reads(
                [(r[3], r[4]) for r in gets], self.issued_writes)),
            "replica_coverage": replica_coverage(
                [store for p in payloads for store in p["stores"]], targets,
                self.model.replicas),
        }


class _PubSubBinding(_Binding):
    """A :class:`~repro.apps.pubsub.PubSub` on the node."""

    def __init__(self, program, node, observations) -> None:
        from ..apps.pubsub import PubSub
        super().__init__(program, node, observations)
        self.app = PubSub(node, stream_id=program.stream_id)
        self.app.on_delivery = self._on_delivery

    def _on_delivery(self, delivery) -> None:
        observations = self.observations
        observations.deliveries += 1
        observations.delivered_seqnos.add(delivery.seqno)
        observations.latencies.append(delivery.latency)
        observations.records.append(
            (self.node.address, delivery.seqno, delivery.latency))

    def create(self, topic: int) -> None:
        if self.node.alive and self.node.initialized:
            self.app.create_topic(topic)

    def subscribe(self, topic: int) -> None:
        if self.node.alive and self.node.initialized:
            self.app.subscribe(topic)

    def publish(self, seqno: int, topic: int) -> None:
        if not self._account(seqno):
            return
        self.app.publish(topic, seqno, size=self.program.packet_bytes)


@dataclass
class _PubSubProgram(NodeProgram):
    observations = WorkloadObservations
    binding = _PubSubBinding
    measured = "publish"
    seqno_field = 1
    ops: list
    stream_id: int
    packet_bytes: int
    expected: int
    window: float

    def payload(self, observations, bindings):
        return {
            "sent": observations.sent_seqnos,
            "skipped": observations.skipped,
            "duplicates": sum(b.app.duplicates for b in bindings),
            "records": observations.records,
        }

    def merge(self, payloads):
        from .metrics import mean, percentile, requests_per_second
        sent = sum(len(p["sent"]) for p in payloads)
        records = sorted(self.pooled_records(payloads),
                         key=lambda r: (r[0], r[1]))
        latencies = [latency for _receiver, _seqno, latency in records]
        delivered = {seqno for _receiver, seqno, _latency in records}
        expected = self.expected
        return {
            "sent": float(sent),
            "skipped": float(sum(p["skipped"] for p in payloads)),
            "deliveries": float(len(records)),
            "duplicates": float(sum(p["duplicates"] for p in payloads)),
            "expected": float(expected),
            "coverage": (len(records) / expected) if expected else 0.0,
            "success_ratio": (len(delivered) / sent) if sent else 0.0,
            "latency_mean": mean(latencies),
            "latency_p95": percentile(latencies, 0.95),
            "publishes_per_sec": requests_per_second(sent, self.window),
        }


@dataclass(frozen=True)
class WorkloadModel(ScenarioModel):
    """Measurement traffic injected while the scenario unfolds.

    * ``kind="multicast"`` — a burst of ``packets`` multicast packets from
      node ``source`` to ``group`` (the NICE/SplitStream measurement
      pattern);
    * ``kind="route"`` — key lookup probes: each probe routes a payload to a
      uniformly random key from a random live node (``source=-1``) or a fixed
      one, and succeeds if *any* node delivers it — the "lookup success under
      churn" quantity;
    * ``kind="kv"`` — a replicated key/value workload: every node hosts a
      :class:`~repro.apps.kv.KvStore` (``replicas``-way replication, quorum
      ``write_quorum``/``read_quorum``) and ``packets`` put/get operations
      (``read_fraction`` reads, keys drawn Zipf(``zipf_s``) over ``keys``
      hash-space keys) are issued from random clients (the first ``clients``
      nodes; 0 = everyone).  ``source`` is ignored.  ``repair_gap > 0`` adds
      periodic anti-entropy sweeps.  Reports quorum success, throughput,
      latency, and the consistency metrics of :mod:`repro.eval.metrics`;
    * ``kind="pubsub"`` — topic pub/sub: every node hosts a
      :class:`~repro.apps.pubsub.PubSub`, ``topics`` topics are created and
      subscribed to (``fanout`` random subscribers each; 0 = everyone), then
      ``packets`` publications are multicast from ``source`` (or random
      publishers with ``source=-1``).  Requires a group-capable overlay
      (Scribe/SplitStream).

    Every kind compiles to a :class:`NodeProgram`: the whole op schedule is
    pre-drawn here, and the same schedule runs in the simulator or, one
    node per process, in a live deployment.  Deliver handlers are chained
    onto every node when the model is applied and the previously
    registered handlers are invoked afterwards, then restored when the
    scenario finishes — application instrumentation survives being
    measured.
    """

    kind: str = "multicast"        # "multicast" | "route" | "kv" | "pubsub"
    source: int = 0                # node index; -1 = random sender per probe
    group: int = 1
    start: float = 0.0
    packets: int = 5
    gap: float = 0.5
    packet_bytes: int = 1000
    # ---- kind="kv" knobs
    keys: int = 64                 # distinct keys in the working set
    zipf_s: float = 1.1            # key-popularity skew (0 = uniform)
    read_fraction: float = 0.7     # fraction of ops that are gets
    replicas: int = 3              # N-way replication
    write_quorum: int = 2          # W acks complete a put
    read_quorum: int = 2           # Q replies complete a get (max version wins)
    clients: int = 0               # ops come from the first N nodes; 0 = all
    repair_gap: float = 0.0        # anti-entropy period; 0 = disabled
    # ---- kind="pubsub" knobs
    topics: int = 4                # number of topics
    fanout: int = 0                # subscribers per topic; 0 = every node
    #: Stream identity stamped on payloads; 0 (the default) auto-assigns a
    #: distinct id per applied workload so concurrent workloads never score
    #: each other's probes.  Auto ids start at AUTO_STREAM_BASE, well clear
    #: of the small ids application traffic conventionally uses (e.g. the
    #: RandomRoute app hardcodes stream 1) — otherwise the recorder would
    #: cross-score app payloads as probes.
    stream_id: int = 0

    #: First auto-assigned workload stream id.
    AUTO_STREAM_BASE = 1000

    def instantiate(self, experiment, rng, horizon: float) -> CompiledModel:
        if self.kind not in ("multicast", "route", "kv", "pubsub"):
            raise ScenarioError(f"unknown workload kind {self.kind!r}")
        used_streams = experiment.workload_streams
        if self.stream_id:
            if self.stream_id in used_streams:
                raise ScenarioError(
                    f"workload stream_id {self.stream_id} used twice; each "
                    f"concurrent workload needs its own stream")
            stream_id = self.stream_id
        else:
            stream_id = self.AUTO_STREAM_BASE
            while stream_id in used_streams:
                stream_id += 1
        used_streams.add(stream_id)
        if self.kind == "kv":
            program = self._kv_program(experiment, rng, horizon, stream_id)
        elif self.kind == "pubsub":
            program = self._pubsub_program(experiment, rng, horizon,
                                           stream_id)
        else:
            program = self._probe_program(experiment, rng, stream_id)
        label = self.label or self.default_label()
        compiled, observations, bindings = _bind_every_node(
            experiment, label, program)
        if self.kind == "kv":
            compiled.kv_state = KvWorkloadState(  # type: ignore[attr-defined]
                observations=observations,
                issued_writes=program.issued_writes,
                stores=[binding.store for binding in bindings],
                nodes=list(experiment.nodes),
                replicas=self.replicas, write_quorum=self.write_quorum,
                read_quorum=self.read_quorum, repair_gap=self.repair_gap,
                start=self.start)
        else:
            compiled.observations = observations  # type: ignore[attr-defined]
        return compiled

    # ------------------------------------------------ kind="route"/"multicast"
    def _probe_program(self, experiment, rng, stream_id: int) -> NodeProgram:
        key_space = experiment.nodes[0].lowest_agent.key_space
        num_nodes = len(experiment.nodes)
        ops: list[NodeOp] = []
        for seqno in range(self.packets):
            if self.source >= 0:
                sender_index = _resolve_indices(experiment, (self.source,),
                                                "workload source")[0]
            else:
                sender_index = rng.randrange(num_nodes)
            dest_key = rng.randrange(key_space.size) if self.kind == "route" else None
            ops.append(NodeOp(
                self.start + seqno * self.gap, sender_index, "send",
                (seqno, dest_key), self.kind,
                f"{self.kind} probe {seqno} from node {sender_index}"))
        return _ProbeProgram(ops, self.kind, self.group, self.packet_bytes,
                             stream_id)

    # ------------------------------------------------------------- kind="kv"
    def _kv_program(self, experiment, rng, horizon: float,
                    stream_id: int) -> NodeProgram:
        if self.keys < 1:
            raise ScenarioError("kv workload needs keys >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ScenarioError("read_fraction must be within [0, 1]")
        if self.zipf_s < 0:
            raise ScenarioError("zipf_s must be >= 0")
        num_nodes = len(experiment.nodes)

        # Keys live in the overlay hash space; popularity is Zipf over their
        # ranks.
        key_space = experiment.nodes[0].lowest_agent.key_space
        key_ids = [rng.randrange(key_space.size) for _ in range(self.keys)]
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(self.keys)]
        total_weight = sum(weights)
        zipf_cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total_weight
            zipf_cdf.append(acc)
        zipf_cdf[-1] = 1.0

        client_pool = min(self.clients, num_nodes) if self.clients > 0 \
            else num_nodes
        issued_writes: set[tuple[int, int]] = set()
        ops: list[NodeOp] = []
        for seqno in range(self.packets):
            node_index = rng.randrange(client_pool)
            key = key_ids[bisect.bisect_left(zipf_cdf, rng.random())]
            is_read = rng.random() < self.read_fraction
            # Versions double as values: the op's driver-unique seqno, which
            # makes every read a complete consistency observation.
            version = -1 if is_read else seqno
            if not is_read:
                issued_writes.add((key, version))
            op = "get" if is_read else "put"
            ops.append(NodeOp(
                self.start + seqno * self.gap, node_index, "issue",
                (seqno, key, version), "kv",
                f"kv {op} {seqno} key {key} from node {node_index}"))
        if self.repair_gap > 0:
            sweep_at = self.start + self.repair_gap
            while sweep_at < horizon:
                for node_index in range(num_nodes):
                    ops.append(NodeOp(
                        sweep_at, node_index, "repair", (), "kv-repair",
                        f"node {node_index} anti-entropy sweep"))
                sweep_at += self.repair_gap
        return _KvProgram(ops, self, stream_id, issued_writes,
                          max(horizon - self.start, 1e-9))

    # --------------------------------------------------------- kind="pubsub"
    def _pubsub_program(self, experiment, rng, horizon: float,
                        stream_id: int) -> NodeProgram:
        if self.topics < 1:
            raise ScenarioError("pubsub workload needs topics >= 1")
        if self.fanout < 0:
            raise ScenarioError("fanout must be >= 0 (0 = every node)")
        num_nodes = len(experiment.nodes)

        # Choreography: create every topic at ``start``, stagger the
        # subscriber joins, then publish after the trees have had a moment
        # to form.
        creator_index = _resolve_indices(
            experiment, (max(self.source, 0),), "pubsub creator")[0]
        spacing = 0.25
        subscribers: list[list[int]] = []
        for topic in range(self.topics):
            if 0 < self.fanout < num_nodes:
                members = sorted(rng.sample(range(num_nodes), self.fanout))
            else:
                members = list(range(num_nodes))
            subscribers.append(members)
        max_members = max(len(members) for members in subscribers)
        publish_start = self.start + spacing * (max_members + 1) + 2.0

        ops: list[NodeOp] = []
        for topic, members in enumerate(subscribers):
            ops.append(NodeOp(self.start, creator_index, "create", (topic,),
                              "pubsub",
                              f"node {creator_index} creates topic {topic}"))
            for offset, member in enumerate(members):
                ops.append(NodeOp(
                    self.start + (offset + 1) * spacing, member, "subscribe",
                    (topic,), "pubsub",
                    f"node {member} subscribes to topic {topic}"))

        expected = 0
        for seqno in range(self.packets):
            topic = rng.randrange(self.topics)
            if self.source >= 0:
                publisher_index = creator_index
            else:
                publisher_index = rng.randrange(num_nodes)
            # Scribe never redelivers to the origin, so a subscribed
            # publisher does not count toward its own publication.
            expected += sum(1 for member in subscribers[topic]
                            if member != publisher_index)
            ops.append(NodeOp(
                publish_start + seqno * self.gap, publisher_index, "publish",
                (seqno, topic), "pubsub",
                f"publish {seqno} on topic {topic} "
                f"from node {publisher_index}"))
        return _PubSubProgram(ops, stream_id, self.packet_bytes, expected,
                              max(horizon - self.start, 1e-9))


# -------------------------------------------------------------------- samples
@dataclass(frozen=True)
class SampleSeries:
    """A named time series sampled every ``interval`` seconds during the run.

    ``fn`` receives the experiment and returns one float — e.g. the
    Figure-10 routing-table-correctness metric.  Samples are taken from
    ``start`` to the scenario end, inclusive of both endpoints.
    """

    name: str
    interval: float
    fn: Callable[["OverlayExperiment"], float]  # noqa: F821
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ScenarioError("sample interval must be positive")


def metric_labels(compiled_models) -> list[str]:
    """Each compiled model's metric prefix: its label, numbered from the
    second model sharing it (``workload``, ``workload2``, ...)."""
    labels = []
    counts: dict[str, int] = {}
    for compiled in compiled_models:
        count = counts[compiled.label] = counts.get(compiled.label, 0) + 1
        labels.append(compiled.label if count == 1
                      else f"{compiled.label}{count}")
    return labels


# --------------------------------------------------------------------- result
@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    seed: int
    duration: float
    metrics: dict[str, float]
    series: dict[str, list[tuple[float, float]]]
    events: list[tuple[float, str, str]]
    #: The live experiment, for ad-hoc inspection (not used in aggregation).
    experiment: Any = None
    #: Sharded-run diagnostics (``run_sharded`` only): effective shard count,
    #: lookahead window, barrier count, cross-shard packet total.  Kept out
    #: of ``metrics`` because these are partition-dependent by nature while
    #: metrics must be identical for every shard count.
    shard_info: Optional[dict] = None
    #: The ``repro.obs/1`` snapshot when the spec opted into observability
    #: (``ScenarioSpec.obs``); ``None`` otherwise.  Kept separate from
    #: ``metrics``, whose key set and values are pinned byte-identical for
    #: the obs-disabled path.
    obs: Optional[dict] = None


AgentClasses = Union[Sequence[Type[Agent]], Callable[[], Sequence[Type[Agent]]]]


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: agents, population, faults, and workload.

    ``agents`` may be a sequence of agent classes or a zero-argument callable
    returning one (so DSL compilation happens lazily, per spec use).
    ``topology`` may be a :class:`Topology` or a callable ``seed -> Topology``;
    by default a transit-stub topology with ``num_nodes`` clients is generated
    from the seed, so every seed sees a different (but reproducible) network.
    """

    name: str
    agents: AgentClasses
    num_nodes: int
    duration: float
    seed: int = 0
    topology: Union[Topology, Callable[[int], Topology], None] = None
    random_loss_rate: float = 0.0
    strict_locking: bool = True
    failure_config: Optional[FailureDetectorConfig] = None
    models: tuple[ScenarioModel, ...] = ()
    samples: tuple[SampleSeries, ...] = ()
    #: Post-construction tuning hook, e.g. tightening protocol timers per
    #: node.  Must be **idempotent**: it is re-applied after every node
    #: recovery, because fail-stop recovery rebuilds the agent stack and
    #: would otherwise revert the tuning on exactly the churned nodes.
    configure: Optional[Callable[["OverlayExperiment"], None]] = None  # noqa: F821
    #: Observability opt-in (:class:`repro.obs.ObsConfig`): metrics
    #: snapshot on ``result.obs``, optional trace export and causal
    #: tracing.  ``None`` — the default — runs the historical code paths
    #: untouched.
    obs: Optional[Any] = None

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """This spec, re-seeded (the multi-seed runner's replication knob)."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------- build
    def resolve_agents(self) -> list[Type[Agent]]:
        agents = self.agents() if callable(self.agents) else self.agents
        return list(agents)

    def build(self) -> "OverlayExperiment":  # noqa: F821
        """Construct the experiment and schedule every model onto it."""
        from .experiment import ExperimentConfig, OverlayExperiment

        if self.duration <= 0:
            raise ScenarioError("scenario duration must be positive")
        topology = self.topology(self.seed) if callable(self.topology) \
            else self.topology
        config = ExperimentConfig(
            num_nodes=self.num_nodes,
            seed=self.seed,
            topology=topology,
            random_loss_rate=self.random_loss_rate,
            strict_locking=self.strict_locking,
            convergence_time=self.duration,
            failure_config=self.failure_config,
            obs=self.obs,
        )
        experiment = OverlayExperiment(self.resolve_agents(), config)
        if self.configure is not None:
            experiment.configure_hook = self.configure
            self.configure(experiment)
        for model in self.models:
            experiment.apply_model(model, horizon=self.duration)
        return experiment

    # --------------------------------------------------------------------- run
    def run(self, *, shards: int = 1) -> ScenarioResult:
        """Execute the scenario and collect metrics, series, and event log.

        ``shards > 1`` delegates to :meth:`run_sharded`, the multi-process
        conservative-lockstep kernel; ``shards=1`` is the original
        single-process path (use :meth:`run_sharded` explicitly to push a
        one-shard run through the worker pipeline, e.g. for the byte-identity
        gate in the benchmarks).
        """
        if shards != 1:
            return self.run_sharded(shards)
        experiment = self.build()
        simulator = experiment.simulator

        obs_registry = obs_causal = None
        if self.obs is not None:
            from ..obs import CausalLog, base_registry
            obs_registry = base_registry()
            if experiment.tracer.sink is not None:
                experiment.tracer.sink.update_meta(
                    mode="sim", name=self.name, seed=self.seed)
            if self.obs.causal:
                obs_causal = CausalLog(experiment.tracer, simulator,
                                       registry=obs_registry)
                obs_causal.install(experiment.emulator)

        series: dict[str, list[tuple[float, float]]] = {}
        for sample in self.samples:
            points = series.setdefault(sample.name, [])
            when = sample.start
            while when <= self.duration + 1e-9:
                simulator.schedule_at(
                    when,
                    lambda s=sample, p=points: p.append(
                        (simulator.now, float(s.fn(experiment)))),
                    label=f"sample:{sample.name}")
                when += sample.interval

        experiment.run(self.duration)

        # Reverse apply order: each restore() re-installs what the model saw
        # when it was applied, so unwinding must pop the chain LIFO.
        for compiled in reversed(experiment.compiled_models):
            compiled.restore()

        metrics: dict[str, float] = {}
        for label, compiled in zip(metric_labels(experiment.compiled_models),
                                   experiment.compiled_models):
            for key, value in compiled.metrics().items():
                metrics[f"{label}.{key}"] = value

        stats = experiment.emulator.stats
        metrics.update({
            "net.packets_sent": float(stats.packets_sent),
            "net.packets_delivered": float(stats.packets_delivered),
            "net.packets_dropped": float(stats.packets_dropped),
            "net.bytes_delivered": float(stats.bytes_delivered),
            "sim.events_processed": float(simulator.events_processed),
            "nodes.alive": float(sum(node.alive for node in experiment.nodes)),
            "nodes.crashes": float(sum(node.crash_count
                                       for node in experiment.nodes)),
            "nodes.recoveries": float(sum(node.recover_count
                                          for node in experiment.nodes)),
        })

        events = [(event.time, event.kind, event.detail)
                  for compiled in experiment.compiled_models
                  for event in compiled.events]
        events.sort(key=lambda item: item[0])
        obs_snapshot = None
        if obs_registry is not None:
            from ..obs import artifact, fill_sim, write_obs_snapshot
            fill_sim(obs_registry, experiment,
                     events_processed=simulator.events_processed,
                     owned_nodes=experiment.nodes, causal=obs_causal)
            obs_snapshot = artifact(obs_registry, mode="sim", name=self.name,
                                    seed=self.seed, duration=self.duration)
            sink = experiment.tracer.sink
            if sink is not None:
                sink.close()
            if self.obs.snapshot_path:
                write_obs_snapshot(self.obs.snapshot_path, obs_snapshot)
        return ScenarioResult(name=self.name, seed=self.seed,
                              duration=self.duration, metrics=metrics,
                              series=series, events=events,
                              experiment=experiment, obs=obs_snapshot)

    def run_sharded(self, shards: int) -> ScenarioResult:
        """Execute the scenario on the multi-process sharded kernel.

        The experiment is built once here in the parent (models compiled,
        agents resolved — so dynamically generated protocol modules exist in
        every worker), then one worker per shard is forked and runs its own
        event heap inside conservative lockstep windows, exchanging
        cross-shard packets at barriers (:mod:`repro.runtime.sharded`).

        ``shards=1`` reproduces :meth:`run` byte-identically (single window,
        no cross-shard traffic, metrics computed by the worker with the
        single-process code path).  ``shards=K`` merges per-shard payloads
        with canonical-order formulas, so repeated runs — and, for
        fault-free scenarios, different K — give identical metrics; sample
        series need a global view and are rejected for K > 1.  The returned
        result carries ``experiment=None`` (the parent's copy never ran).
        """
        from ..runtime.sharded import (ShardCoordinator, ShardedDriver,
                                       plan_shards)

        experiment = self.build()
        plan = plan_shards(experiment.topology, self.num_nodes, shards)
        if plan.num_shards > 1 and self.samples:
            raise ScenarioError(
                "sample series need a global experiment view and are not "
                "supported with shards > 1")
        shard_of_address = {node.address: plan.shard_of_node[index]
                            for index, node in enumerate(experiment.nodes)}
        coordinator = ShardCoordinator(plan, start=0.0,
                                       duration=self.duration,
                                       shard_of_address=shard_of_address)
        simulator = experiment.simulator
        single = plan.num_shards == 1

        def worker(shard_id, endpoint, barriers):
            obs_registry = obs_causal = None
            if self.obs is not None:
                from ..obs import CausalLog, base_registry
                obs_registry = base_registry()
                tracer = experiment.tracer
                if tracer.sink is not None:
                    if not single:
                        # One writer per file: each forked worker spills its
                        # own shard-suffixed JSONL (run_trace.py merges them).
                        tracer.sink.path = \
                            f"{tracer.sink.path}.shard{shard_id}"
                    tracer.sink.update_meta(
                        mode="sim" if single else "sharded",
                        name=self.name, seed=self.seed, shard=shard_id)
                if self.obs.causal:
                    # Install order matters: the delivery wrapper must be in
                    # place before enter_shard captures the callback identity
                    # for the egress filter; the send tap must come after it
                    # swaps in the sharded send.
                    obs_causal = CausalLog(tracer, simulator,
                                           registry=obs_registry,
                                           origin=shard_id + 1)
                    experiment.emulator.install_delivery_wrapper(
                        obs_causal.wrap_delivery)
            driver = ShardedDriver(simulator, shard_id=shard_id, plan=plan,
                                   endpoint=endpoint, registry=obs_registry)
            experiment.enter_shard(shard_id, plan, driver.capture)
            if obs_causal is not None:
                experiment.emulator.install_send_tap(obs_causal.tag)
            series: dict[str, list[tuple[float, float]]] = {}
            if single:
                # Identical sample scheduling to run(): same schedule()
                # calls, same sequence numbers, so the one-shard run stays
                # byte-identical.
                for sample in self.samples:
                    points = series.setdefault(sample.name, [])
                    when = sample.start
                    while when <= self.duration + 1e-9:
                        simulator.schedule_at(
                            when,
                            lambda s=sample, p=points: p.append(
                                (simulator.now, float(s.fn(experiment)))),
                            label=f"sample:{sample.name}")
                        when += sample.interval
            driver.run_windows(barriers,
                               experiment.emulator.inject_delivery)
            for compiled in reversed(experiment.compiled_models):
                compiled.restore()
            models = []
            for compiled in experiment.compiled_models:
                if not single and compiled.shard_payload is not None:
                    models.append(compiled.shard_payload())
                else:
                    models.append(compiled.metrics())
            stats = experiment.emulator.stats
            owned = [experiment.nodes[i]
                     for i in plan.owned_nodes(shard_id)]
            obs_payload = None
            if obs_registry is not None:
                from ..obs import fill_sim
                fill_sim(obs_registry, experiment,
                         events_processed=(simulator.events_processed
                                           - experiment.shard_skipped_events),
                         owned_nodes=owned, causal=obs_causal,
                         cross_shard_packets=driver.packets_exported)
                if experiment.tracer.sink is not None:
                    experiment.tracer.sink.close()
                obs_payload = obs_registry.snapshot()
            return {
                "obs": obs_payload,
                "models": models,
                "net": (stats.packets_sent, stats.packets_delivered,
                        stats.packets_dropped, stats.bytes_delivered),
                # Subtract the owner-gated no-op dispatches: model events are
                # on every shard's heap, so without the correction the sum
                # across shards would grow by (K-1) x model events and
                # ``sim.events_processed`` would depend on the shard count.
                "events_processed": (simulator.events_processed
                                     - experiment.shard_skipped_events),
                "alive": sum(node.alive for node in owned),
                "crashes": sum(node.crash_count for node in owned),
                "recoveries": sum(node.recover_count for node in owned),
                "series": series,
                "cross_shard_packets": driver.packets_exported,
            }

        payloads = coordinator.run(worker)

        metrics: dict[str, float] = {}
        for index, (label, compiled) in enumerate(zip(
                metric_labels(experiment.compiled_models),
                experiment.compiled_models)):
            entries = [payload["models"][index] for payload in payloads]
            if single:
                model_metrics = entries[0]
            elif compiled.shard_merge is not None:
                model_metrics = compiled.shard_merge(entries)
            else:
                # No merge hook: only valid if the model's finalize is a
                # pure function of compile-time state, in which case every
                # shard reported the same dict.
                if any(entry != entries[0] for entry in entries[1:]):
                    raise ScenarioError(
                        f"model {label!r} produced diverging per-shard "
                        f"metrics and defines no shard_merge hook")
                model_metrics = entries[0]
            for key, value in model_metrics.items():
                metrics[f"{label}.{key}"] = value

        metrics.update({
            "net.packets_sent": float(sum(p["net"][0] for p in payloads)),
            "net.packets_delivered": float(sum(p["net"][1]
                                               for p in payloads)),
            "net.packets_dropped": float(sum(p["net"][2] for p in payloads)),
            "net.bytes_delivered": float(sum(p["net"][3] for p in payloads)),
            "sim.events_processed": float(sum(p["events_processed"]
                                              for p in payloads)),
            "nodes.alive": float(sum(p["alive"] for p in payloads)),
            "nodes.crashes": float(sum(p["crashes"] for p in payloads)),
            "nodes.recoveries": float(sum(p["recoveries"]
                                          for p in payloads)),
        })

        series = payloads[0]["series"] if single else {}
        events = [(event.time, event.kind, event.detail)
                  for compiled in experiment.compiled_models
                  for event in compiled.events]
        events.sort(key=lambda item: item[0])
        shard_info = {
            "requested_shards": shards,
            "num_shards": plan.num_shards,
            "lookahead": plan.lookahead,
            "barriers": len(coordinator.barriers),
            "cross_shard_packets": sum(p["cross_shard_packets"]
                                       for p in payloads),
        }
        obs_snapshot = None
        if self.obs is not None:
            from ..obs import artifact, base_registry, write_obs_snapshot
            registry = base_registry()
            for payload in payloads:
                if payload["obs"] is not None:
                    registry.merge(payload["obs"])
            obs_snapshot = artifact(
                registry, mode="sim" if single else "sharded",
                name=self.name, seed=self.seed, duration=self.duration,
                extra={"shards": plan.num_shards})
            if self.obs.snapshot_path:
                write_obs_snapshot(self.obs.snapshot_path, obs_snapshot)
        return ScenarioResult(name=self.name, seed=self.seed,
                              duration=self.duration, metrics=metrics,
                              series=series, events=events,
                              experiment=None, shard_info=shard_info,
                              obs=obs_snapshot)
