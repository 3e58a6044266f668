"""Multi-process live deployments on localhost.

:class:`LiveCluster` runs a :class:`~repro.eval.scenario.ScenarioSpec` as a
live deployment: it boots one OS process per node, each running one
:class:`~repro.runtime.node.MacedonNode` with the *unchanged*
registry-compiled protocol stack on a :class:`~repro.live.driver.LiveDriver`
clock and a :class:`~repro.transport.udp.SocketUdpNetwork` socket.

The workload is not re-implemented here.  :func:`compile_live` compiles the
spec exactly as the simulator does (``spec.build()``, not run) and keeps each
per-node model's :class:`~repro.eval.scenario.NodeProgram`: the pre-drawn op
schedule plus its per-node binding.  Each process binds only its own node and
runs its slice of the schedule, on wall-clock times from
:meth:`LiveClusterConfig.live_time`; the coordinator then scores the pooled
per-node payloads with the model's own formulas
(:meth:`~repro.eval.scenario.NodeProgram.merge`), so a live run and a
simulated run of one spec execute the same ops by construction — the paper's
Figure-1 promise.  The coordinator computes only what is genuinely live:
node, socket and transport counters, ring correctness, and the post-fault
success ratio.

Coordination is deliberately minimal: endpoints are a static address→port
map computed up front, a process barrier aligns the zero of every node's
wall clock, and results come back over a queue.  In the *data* path there is
still no runtime coordinator — once the barrier drops, the only
communication between nodes is protocol traffic over their UDP sockets.  The
coordinator re-enters only as the *fault* plane: when the run carries
:mod:`~repro.live.faults` directives it becomes a supervisor that delivers
real ``SIGKILL``\\ s on schedule, respawns victims under a capped exponential
backoff and a per-node restart budget (the respawned process re-enters
through the transport restart-epoch machinery, resuming the shared cluster
clock mid-timeline), and installs partition/cut/degrade rules into every
node's socket fault table over an out-of-band control channel.  A node that
exhausts its budget is accounted as *down* — graceful degradation, not a
run failure.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import signal
import socket as socket_module
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from queue import Empty
from typing import Any, Optional

from ..eval.metrics import correct_successor_fraction
from ..eval.scenario import ScenarioError, ScenarioResult, metric_labels

#: Lowest overlay address; 0 is avoided because the specs treat a zero
#: address as "unset" (``if candidate:`` guards).
_FIRST_ADDRESS = 1

#: Seconds between a node's samples of its own join state and successor.
_SAMPLE_PERIOD = 0.05

#: Model metrics that need one clock across every node (staleness compares
#: issue and completion times of different clients); omitted live.
_SINGLE_CLOCK_METRICS = ("stale_reads",)


class LiveClusterError(RuntimeError):
    """Raised when a live deployment fails to boot, run, or report."""


@dataclass(frozen=True)
class LiveClusterConfig:
    """How to deploy ``spec`` live: the spec plus deployment settings.

    The population (``nodes``) and ``seed`` come from the spec.
    """

    spec: Any
    #: Measurement horizon in wall-clock seconds: the workload finishes by
    #: this offset; processes shut down ``drain`` seconds later.  None caps
    #: it at 10 s past the join wave (wall seconds are not simulated
    #: seconds: a 300 s spec must not hold real sockets for 5 minutes).
    duration: Optional[float] = None
    join_spacing: float = 0.15
    #: Seconds between the last join and spec time zero.
    settle: float = 1.0
    #: Seconds after the workload window for in-flight deliveries to land.
    drain: float = 1.0
    host: str = "127.0.0.1"
    base_port: int = 47000
    #: Chord's fix-fingers period, applied to any agent exposing the knob
    #: (None leaves the specification default).
    fix_period: Optional[float] = 0.5
    #: multiprocessing start method; None picks "fork" where available
    #: (children inherit the compiled registry) and "spawn" elsewhere.
    start_method: Optional[str] = None
    #: Seconds each process gets to import, compile, and bind its socket.
    startup_timeout: float = 60.0
    # ---- fault plane (see repro.live.faults)
    #: Live fault directives (KillNode / PartitionFault / LinkCut /
    #: DegradeFault), offsets from the barrier-aligned clock zero.  None
    #: compiles the spec's fault models; ``()`` runs without faults.
    faults: Optional[tuple] = None
    #: How many supervised respawns any one node gets before it is
    #: accounted as permanently down (graceful degradation).
    restart_budget: int = 3
    #: Exponential-backoff schedule for respawning a node that died
    #: *unexpectedly* (a deliberate kill's downtime comes from its
    #: directive): ``min(backoff_cap, backoff_base * 2**restarts)``.
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    #: Raise (→ non-zero exit) when any node's LiveDriver recorded
    #: callback exceptions — a live run that "passed" while swallowing
    #: transition errors is a lie.
    fail_on_driver_errors: bool = True
    #: Optional :class:`repro.obs.ObsConfig`: attaches the observability
    #: layer — per-node causal wire tracing, mid-run wall-clock stats
    #: polling over the control channel, and a ``repro.obs/1`` snapshot
    #: on the aggregate result.  ``None`` (the default) keeps wire bytes
    #: and the report schema identical to an untraced run.
    obs: Optional[Any] = None
    nodes: int = field(init=False)
    seed: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", self.spec.num_nodes)
        object.__setattr__(self, "seed", self.spec.seed)
        if self.duration is None:
            object.__setattr__(self, "duration", min(
                float(self.spec.duration), self.workload_start + 10.0))
        if self.nodes < 1:
            raise LiveClusterError("a live cluster needs at least one node")
        if self.workload_start >= self.duration:
            raise LiveClusterError(
                f"duration {self.duration}s leaves no workload window: the "
                f"join wave plus settle takes {self.workload_start:.1f}s "
                f"({self.nodes} nodes x {self.join_spacing}s + "
                f"{self.settle}s); raise --duration or lower --nodes")
        if self.restart_budget < 0:
            raise LiveClusterError("restart_budget cannot be negative")
        for fault in self.faults or ():
            if fault.at < 0:
                raise LiveClusterError(
                    f"fault scheduled before the cluster starts: {fault}")

    def __getstate__(self) -> dict:
        # Node processes run the compiled LivePlan, not the spec, whose
        # agent factories do not pickle into spawned workers.
        return dict(self.__dict__, spec=None)

    # ------------------------------------------------------------- schedule
    @property
    def workload_start(self) -> float:
        return self.nodes * self.join_spacing + self.settle

    @property
    def total_runtime(self) -> float:
        return self.duration + self.drain

    @property
    def time_scale(self) -> float:
        """Wall seconds per spec second inside the workload window."""
        return (self.duration - self.workload_start) / float(self.spec.duration)

    def live_time(self, t: float) -> float:
        """Wall-clock offset of spec time *t*.

        ``[0, spec.duration]`` maps linearly onto the workload window
        ``[workload_start, duration]`` — the live join wave and settle
        replace the spec's join schedule — clamped clear of the horizon.
        """
        t = min(max(float(t), 0.0), float(self.spec.duration))
        return round(min(self.workload_start + t * self.time_scale,
                         self.duration - 0.25), 3)

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {_FIRST_ADDRESS + index: (self.host, self.base_port + index)
                for index in range(self.nodes)}


@dataclass(frozen=True)
class LivePlan:
    """What :func:`compile_live` compiles a spec to; pickles into workers."""

    name: str
    #: Registry ``(name, base)`` keys of the agent stack, lowest layer first.
    stack: tuple
    #: Metric label and NodeProgram of every per-node model, in apply order.
    labels: tuple
    programs: tuple
    #: Per node index: ``(live time, program position, NodeOp)`` triples.
    ops: tuple
    faults: tuple


def compile_live(config: LiveClusterConfig) -> LivePlan:
    """Compile ``config.spec`` for live deployment.

    This is the one live-eligibility check: it raises
    :class:`~repro.eval.scenario.ScenarioError` when the spec's agents are
    not registry-compiled ``.mac`` specifications (only those can be
    rebuilt in a node process), when it has no WorkloadModel, or when a
    fault model has no live equivalent.  The op schedule comes from the
    simulator's own compile (``spec.build()``, not run), so the two modes
    run the same ops; op times map onto the wall clock with
    :meth:`LiveClusterConfig.live_time`, the mapping the fault compiler
    uses, so an op that follows a fault in simulation follows it live.
    """
    from ..codegen.registry import get_registry
    from ..eval.scenario import WorkloadModel
    from .faults import LiveFaultError, compile_fault_models

    spec = config.spec
    stack = get_registry().recipe_of(spec.resolve_agents())
    if stack is None:
        raise ScenarioError(
            f"spec {spec.name!r} has no live deployment: its agents are not "
            f"compiled .mac specifications the live registry can rebuild")
    workloads = [model for model in spec.models
                 if isinstance(model, WorkloadModel)]
    if not workloads:
        raise ScenarioError(
            "live mode needs a WorkloadModel in spec.models: no "
            "WorkloadModel to drive live traffic")
    faults = config.faults
    if faults is None:
        try:
            faults = compile_fault_models(config)
        except LiveFaultError as exc:
            raise ScenarioError(
                f"spec has a fault model with no live equivalent: {exc}; "
                f"pass faults=() to run the workload without it") from exc
    compiled_models = replace(spec, obs=None).build().compiled_models
    labels, programs = [], []
    ops: list[list] = [[] for _ in range(config.nodes)]
    for label, compiled in zip(metric_labels(compiled_models),
                               compiled_models):
        program = getattr(compiled, "program", None)
        if program is None:
            continue   # join/fault models: the join wave and fault plane
        for op in program.ops:
            if op.time <= spec.duration:   # later ops never fire in sim
                ops[op.node].append(
                    (config.live_time(op.time), len(programs), op))
        labels.append(label)
        programs.append(program)
    return LivePlan(name=f"live-{stack[-1][0]}-{workloads[0].kind}",
                    stack=stack, labels=tuple(labels),
                    programs=tuple(programs),
                    ops=tuple(tuple(node_ops) for node_ops in ops),
                    faults=tuple(faults))


@dataclass
class LiveClusterResult:
    """Aggregate result plus the raw per-process reports."""

    result: ScenarioResult
    per_node: list[dict] = field(default_factory=list)

    @property
    def metrics(self) -> dict[str, float]:
        return self.result.metrics


# ------------------------------------------------------------------- worker
def _apply_protocol_knobs(node, config: LiveClusterConfig) -> None:
    if config.fix_period is not None:
        for agent in node.stack:
            if hasattr(agent, "fix_period"):
                setattr(agent, "fix_period", config.fix_period)


def _clock_zero(clock) -> float:
    """The cluster clock's zero: the wall time the first barrier party to
    get here stamped into the shared value.  Every process (and every
    respawn) reads the same zero, so driver times compare across nodes."""
    with clock.get_lock():
        if not clock.value:
            clock.value = time.time()
        return clock.value


async def _node_main(config: LiveClusterConfig, plan: LivePlan, index: int,
                     barrier, clock, *, ready=None,
                     incarnation: int = 0) -> dict:
    """One node process: boot, join, run its ops, report.

    ``incarnation`` 0 is the barrier-aligned cold boot.  A supervisor
    respawn (``incarnation`` > 0) skips the barrier — the cluster is already
    running — and resumes the shared cluster clock mid-timeline, rebuilding
    its protocol stack through the node's fail-stop recovery path so the
    transport demux re-keys under the new restart epoch (a peer's stale
    retransmission state cannot poison the reborn node, and vice versa).
    """
    # Imports happen here (not at module top) so a "spawn" child pays them
    # once, inside its own interpreter.
    import asyncio

    from ..codegen.registry import get_registry
    from ..obs.probes import workload_tallies
    from ..runtime.messages import WireCodec
    from ..runtime.node import MacedonNode
    from ..transport.udp import SocketUdpNetwork
    from .driver import LiveDriver

    address = _FIRST_ADDRESS + index
    bootstrap = _FIRST_ADDRESS
    if incarnation and index == 0 and config.nodes > 1:
        # A reborn bootstrap node must re-join *someone else's* ring; its
        # usual self-bootstrap would found a fresh one-node overlay.
        bootstrap = _FIRST_ADDRESS + 1
    registry = get_registry()
    stack = [registry.load_protocol(name, base=base)
             for name, base in plan.stack]
    codec = WireCodec.for_agents(stack)
    network = SocketUdpNetwork(address, config.endpoints(), codec)
    await network.open()
    try:
        loop = asyncio.get_running_loop()
        driver = LiveDriver(seed=config.seed)
        if incarnation == 0:
            # Every socket must be bound before any node may send: the
            # barrier also aligns the zero of every process's driver clock.
            # The ready flag lets the coordinator name the stuck node when
            # the barrier times out.
            if ready is not None:
                ready[index] = 1
            try:
                await loop.run_in_executor(
                    None, lambda: barrier.wait(config.startup_timeout))
            except Exception as exc:
                raise LiveClusterError(
                    f"node {address}: cluster start barrier broke "
                    f"(a peer failed to boot?): {exc!r}") from exc
        driver.start(loop, now=time.time() - _clock_zero(clock))

        # Observability (repro.obs): a per-node tracer honouring the run's
        # category overrides, plus — when causal tracing is on — the wire
        # TRACE envelope.  Installed before the node so agent trace gates
        # see the overrides at construction.
        obs_tracer = causal = None
        if config.obs is not None:
            from ..obs import LiveCausalLog
            from ..runtime.tracing import Tracer
            obs_tracer = Tracer(config.obs.max_records,
                                category_levels=config.obs.category_levels,
                                level=config.obs.trace_level)
            if config.obs.causal:
                causal = LiveCausalLog(address)
                network.enable_causal(causal)

        node = MacedonNode(driver, network, stack, tracer=obs_tracer)
        if incarnation:
            # Rebuild through the fail-stop recovery path so the transport
            # subsystem carries the real restart epoch, exactly as a
            # simulated crash/recover does.
            node.crash()
            node.crash_count = incarnation
            node.recover()
        _apply_protocol_knobs(node, config)

        # The spec's per-node models, bound to this node only.
        bound = []
        for program in plan.programs:
            observations = program.observations()
            bound.append((program, observations,
                          program.bind(node, observations)))

        if config.obs is not None:
            # Answer coordinator stats polls over the control channel while
            # still dispatching every fault op through the default handler —
            # the obs plane must not disable the fault plane.
            def on_control(op: dict) -> None:
                if op.get("op") != "obs-report":
                    network.apply_fault_op(op)
                    return
                reply_to = op.get("reply_to")
                if not reply_to:
                    return
                sent, delivered, *_ = workload_tallies(
                    observations for _, observations, _ in bound)
                stats_op = {
                    "op": "obs-stats",
                    "address": address,
                    "events_processed": driver.events_processed,
                    "errors": driver.error_count,
                    "sent": sent,
                    "delivered": delivered,
                    "socket": network.stats(),
                }
                network.send_raw(
                    SocketUdpNetwork.control_frame(stats_op, src=address),
                    (reply_to[0], int(reply_to[1])))

            network.set_control_callback(on_control)

        # --- join wave (bootstrap at t=0, the rest staggered); a respawn
        #     re-joins almost immediately — its downtime already happened.
        if incarnation == 0:
            join_at = 0.0 if index == 0 else index * config.join_spacing
            driver.schedule_at(join_at, node.macedon_init, bootstrap,
                               label="live-join")
        else:
            driver.schedule(0.05, node.macedon_init, bootstrap,
                            label="live-rejoin")

        # --- this node's slice of the compiled op schedule
        for at, position, op in plan.ops[index]:
            program, observations, binding = bound[position]
            if at <= driver.now + 0.01:
                # This incarnation was born after the op's slot; the dead
                # incarnation may or may not have issued it, but its record
                # is gone either way — count, don't reissue.
                if op.action == program.measured:
                    observations.skipped += 1
                continue
            driver.schedule_at(at, getattr(binding, op.action), *op.args,
                               label=f"live-{op.kind}")

        # --- recovery samples: when this incarnation's overlay join
        #     completed, and every change of its successor pointer.
        joined_at: Optional[float] = None
        successors: list[tuple[float, Any]] = []

        def sample() -> None:
            nonlocal joined_at
            if joined_at is None and node.initialized and \
                    node.lowest_agent.state not in ("init", "joining"):
                joined_at = round(driver.now, 3)
            highest = node.highest_agent
            if hasattr(highest, "successor") and \
                    (not successors or successors[-1][1] != highest.successor):
                successors.append((round(driver.now, 3), highest.successor))
            driver.schedule(_SAMPLE_PERIOD, sample, label="live-sample")

        sample()
        await driver.run_for(max(0.0, config.total_runtime - driver.now))

        # --- report --------------------------------------------------------
        payloads = [program.payload(observations, [binding])
                    for program, observations, binding in bound]
        sent, delivered, _, skipped, latencies = workload_tallies(
            observations for _, observations, _ in bound)
        transport_totals = {"messages_sent": 0, "messages_delivered": 0,
                            "segments_sent": 0, "segments_received": 0,
                            "retransmissions": 0, "drops": 0}
        for stats in node.transport_host.stats().values():
            for key in transport_totals:
                transport_totals[key] += getattr(stats, key)
        report: dict[str, Any] = {
            "address": address,
            "state": node.highest_agent.state,
            "incarnation": incarnation,
            "epoch": node.transport_host.epoch,
            "sent": sent,
            "skipped": skipped,
            "delivered": delivered,
            # Pub/sub counts duplicates in its apps, not its observations.
            "duplicates": sum(p.get("duplicates", 0) for p in payloads),
            "latencies": latencies[:1000],
            "programs": payloads,
            "joined_at": joined_at,
            "successors": successors,
            "events_processed": driver.events_processed,
            "callback_errors": [repr(exc) for exc in driver.errors][:5],
            "callback_error_count": driver.error_count,
            "transport": transport_totals,
            "socket": network.stats(),
        }
        if config.obs is not None:
            report["trace"] = {
                "records": sum(node.tracer.counts.values()),
                "dropped": node.tracer.dropped,
            }
            if causal is not None:
                report["causal"] = {"traces": causal.traces,
                                    "hops": causal.hop_count,
                                    "records": causal.hops}
        highest = node.highest_agent
        if hasattr(highest, "successor"):
            report["ring"] = {"my_key": highest.my_key,
                              "successor": highest.successor}
        return report
    finally:
        network.close()


def _worker_entry(config: LiveClusterConfig, plan: LivePlan, index: int,
                  barrier, clock, results, ready=None,
                  incarnation: int = 0) -> None:
    import asyncio
    try:
        report = asyncio.run(_node_main(config, plan, index, barrier, clock,
                                        ready=ready,
                                        incarnation=incarnation))
    except BaseException as exc:   # noqa: BLE001 - ship the failure home
        if barrier is not None:
            try:
                barrier.abort()   # release peers still waiting to start
            except Exception:
                pass
        results.put((index, {"address": _FIRST_ADDRESS + index,
                             "incarnation": incarnation,
                             "error": repr(exc),
                             "traceback": traceback.format_exc()}))
        return
    results.put((index, report))


def _successor_at(trace: list, t: float) -> Any:
    """The successor a node's sample trace held at time *t*."""
    current = None
    for at, successor in trace:
        if at > t:
            break
        current = successor
    return current


def _observed_recovery(reports: list[dict], faults) -> Optional[float]:
    """When the deployment observably recovered from its faults.

    Not before the last fault transition, nor before every respawned node's
    own report says its overlay join completed; where the protocol has a
    ``successor`` pointer, at the first sample after that at which every
    surviving node's successor is ring-correct.  None if the run ended
    first.
    """
    from .faults import fault_horizon

    start = fault_horizon(faults)
    for report in reports:
        if report["incarnation"]:
            if report["joined_at"] is None:
                return None
            start = max(start, report["joined_at"])
    if not reports or any("ring" not in report for report in reports):
        return start
    membership = [(report["ring"]["my_key"], report["address"])
                  for report in reports]
    changes = {at for report in reports
               for at, _ in report["successors"] if at > start}
    for t in sorted(changes | {start}):
        successors = {report["address"]: _successor_at(report["successors"], t)
                      for report in reports}
        if correct_successor_fraction(membership, successors) == 1.0:
            return t
    return None


# -------------------------------------------------------------- coordinator
class LiveCluster:
    """Boot a :class:`LiveClusterConfig` across processes and aggregate."""

    def __init__(self, config: LiveClusterConfig) -> None:
        self.config = config

    def _context(self):
        method = self.config.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)

    # ------------------------------------------------------------ fault plan
    def _compile_actions(self, faults, push_action) -> None:
        """Turn fault directives into timed coordinator actions.

        Kills become ``("kill", directive)``; network directives become
        ``("control", (key, op))`` pairs — *key* identifies the standing rule
        so its heal/restore can retire it from the replay set a respawned
        node receives.
        """
        from .faults import DegradeFault, KillNode, LinkCut, PartitionFault

        for fault in faults:
            if isinstance(fault, KillNode):
                push_action(fault.at, "kill", fault)
            elif isinstance(fault, PartitionFault):
                groups = [[_FIRST_ADDRESS + i for i in group]
                          for group in fault.groups]
                push_action(fault.at, "control",
                            ("partition", {"op": "partition",
                                           "groups": groups}))
                if fault.heal_after is not None:
                    push_action(fault.end, "control",
                                ("partition", {"op": "heal-partition"}))
            elif isinstance(fault, LinkCut):
                pairs = [[_FIRST_ADDRESS + u, _FIRST_ADDRESS + v]
                         for u, v in fault.pairs]
                key = ("cut", tuple(tuple(pair) for pair in pairs))
                push_action(fault.at, "control",
                            (key, {"op": "cut", "pairs": pairs,
                                   "one_way": bool(fault.one_way)}))
                if fault.heal_after is not None:
                    push_action(fault.end, "control",
                                (key, {"op": "heal", "pairs": pairs}))
            elif isinstance(fault, DegradeFault):
                targets = [_FIRST_ADDRESS + i for i in fault.indices]
                key = ("degrade", tuple(targets))
                push_action(fault.at, "control",
                            (key, {"op": "degrade", "targets": targets,
                                   "delay": fault.delay,
                                   "loss": fault.loss}))
                if fault.restore_after is not None:
                    push_action(fault.end, "control",
                                (key, {"op": "restore", "targets": targets}))
            else:
                raise LiveClusterError(
                    f"unknown live fault directive {fault!r}")

    # ------------------------------------------------------------------- run
    def run(self) -> LiveClusterResult:
        config = self.config
        # Compile up front: it rejects an ineligible spec before any process
        # starts, and fork children inherit the warm registry.
        plan = compile_live(config)
        from ..transport.udp import SocketUdpNetwork

        ctx = self._context()
        supervise = bool(plan.faults)
        # The coordinator is the (nodes+1)-th barrier party, so it learns
        # "everyone booted" (and the cluster clock zero) without a report.
        barrier = ctx.Barrier(config.nodes + 1)
        clock = ctx.Value("d", 0.0)
        ready = ctx.Array("b", config.nodes)
        results_queue = ctx.Queue()
        endpoints = config.endpoints()

        state: dict[int, dict] = {
            index: {"incarnation": 0, "restarts": 0, "killed": 0,
                    "down": False, "pending_respawn": False, "proc": None}
            for index in range(config.nodes)
        }
        all_processes: list = []

        def spawn(index: int, incarnation: int) -> None:
            name = f"live-node-{_FIRST_ADDRESS + index}"
            if incarnation:
                name = f"{name}.{incarnation}"
            process = ctx.Process(
                target=_worker_entry,
                args=(config, plan, index,
                      barrier if incarnation == 0 else None, clock,
                      results_queue,
                      ready if incarnation == 0 else None,
                      incarnation),
                name=name, daemon=True)
            process.start()
            all_processes.append(process)
            state[index]["proc"] = process

        actions: list = []
        action_seq = itertools.count()

        def push_action(at: float, kind: str, payload) -> None:
            heapq.heappush(actions, (at, next(action_seq), kind, payload))

        self._compile_actions(plan.faults, push_action)
        #: Standing network-fault rules (key → op), replayed to respawned
        #: nodes whose fresh fault tables would otherwise leak traffic
        #: through an unhealed partition.
        active_ops: dict = {}
        control_socket = socket_module.socket(socket_module.AF_INET,
                                              socket_module.SOCK_DGRAM)
        #: Wall-clock obs samples: [{"t": offset, "nodes": [stats_op, ...]}]
        #: collected by polling every node over the control channel mid-run.
        wall_samples: list[dict] = []
        if config.obs is not None:
            # The control socket doubles as the reply channel for stats
            # polls, so it needs a concrete bound address.
            control_socket.bind((config.host, 0))
            poll_step = max(1.0,
                            (config.duration - config.workload_start) / 4.0)
            poll_at = config.workload_start
            while poll_at < config.duration:
                push_action(poll_at, "obs-poll", None)
                poll_at += poll_step

        def send_control(op: dict, addresses=None) -> None:
            frame = SocketUdpNetwork.control_frame(op)
            for address in (addresses if addresses is not None
                            else list(endpoints)):
                for _ in range(2):   # UDP: fire twice, ops are idempotent
                    try:
                        control_socket.sendto(frame, endpoints[address])
                    except OSError:   # pragma: no cover - endpoint gone
                        pass

        reports: dict[int, dict] = {}

        try:
            for index in range(config.nodes):
                spawn(index, 0)
            try:
                barrier.wait(config.startup_timeout)
            except threading.BrokenBarrierError:
                raise self._startup_failure(results_queue, reports, state,
                                            ready) from None
            t0 = _clock_zero(clock)
            deadline = t0 + config.total_runtime + 30.0

            while True:
                now = time.time() - t0
                # 1. fire due fault-plane actions
                while actions and actions[0][0] <= now:
                    _, _, kind, payload = heapq.heappop(actions)
                    if kind == "kill":
                        self._do_kill(payload, state, push_action, now)
                    elif kind == "control":
                        key, op = payload
                        if op["op"] in ("partition", "cut", "degrade"):
                            active_ops[key] = op
                        else:
                            active_ops.pop(key, None)
                        send_control(op)
                    elif kind == "respawn":
                        index = payload
                        node_state = state[index]
                        node_state["incarnation"] += 1
                        node_state["restarts"] += 1
                        node_state["pending_respawn"] = False
                        spawn(index, node_state["incarnation"])
                        if active_ops:
                            # The reborn socket needs the standing rules;
                            # send once it is plausibly bound, then again in
                            # case the first volley raced the bind.
                            push_action(now + 0.5, "replay", index)
                            push_action(now + 1.5, "replay", index)
                    elif kind == "replay":
                        for op in list(active_ops.values()):
                            send_control(op, [_FIRST_ADDRESS + payload])
                    elif kind == "obs-poll":
                        reply_to = list(control_socket.getsockname())
                        send_control({"op": "obs-report",
                                      "reply_to": reply_to})
                        replies: dict[int, dict] = {}
                        control_socket.settimeout(0.25)
                        try:
                            while len(replies) < config.nodes:
                                try:
                                    data, _addr = control_socket.recvfrom(
                                        65535)
                                except socket_module.timeout:
                                    break
                                stats_op = \
                                    SocketUdpNetwork.parse_control_frame(data)
                                if (stats_op is None or
                                        stats_op.get("op") != "obs-stats"):
                                    continue
                                # send_control fires twice; dedupe replies.
                                replies[stats_op["address"]] = stats_op
                        finally:
                            control_socket.settimeout(None)
                        wall_samples.append({
                            "t": round(time.time() - t0, 3),
                            "nodes": [replies[key]
                                      for key in sorted(replies)],
                        })

                expected = [i for i in range(config.nodes)
                            if not state[i]["down"]]
                if (all(i in reports for i in expected)
                        and not any(kind in ("kill", "respawn")
                                    for _, _, kind, _ in actions)):
                    # Leftover control actions (a heal scheduled past the
                    # run's end) have nobody left to heal — don't wait.
                    break
                remaining = deadline - time.time()
                if remaining <= 0:
                    missing = sorted(set(expected) - set(reports))
                    raise LiveClusterError(
                        f"live cluster timed out waiting for node reports "
                        f"(missing indices: {missing})")

                # 2. drain the results queue (bounded by the next action)
                next_action_in = actions[0][0] - now if actions else 2.0
                timeout = max(0.05, min(remaining, next_action_in, 0.5))
                drained = False
                try:
                    index, report = results_queue.get(timeout=timeout)
                    reports[index] = report
                    drained = True
                    while True:
                        index, report = results_queue.get_nowait()
                        reports[index] = report
                except Empty:
                    pass
                if drained:
                    continue

                # 3. supervise: a worker that died without reporting either
                # respawns (within budget) or is accounted down; without a
                # fault plan, keep the original fail-fast contract.
                for index in expected:
                    node_state = state[index]
                    if (index in reports or node_state["pending_respawn"]
                            or node_state["proc"].is_alive()):
                        continue
                    if not supervise:
                        raise LiveClusterError(
                            f"live node process died without reporting "
                            f"(index {index}, exit code "
                            f"{node_state['proc'].exitcode})")
                    if node_state["restarts"] < config.restart_budget:
                        node_state["pending_respawn"] = True
                        delay = min(config.backoff_cap,
                                    config.backoff_base
                                    * (2 ** node_state["restarts"]))
                        push_action(now + delay, "respawn", index)
                    else:
                        node_state["down"] = True
        finally:
            control_socket.close()
            # Orphan cleanup covers every process ever started, including
            # respawned incarnations: join, then escalate to terminate and
            # finally kill — a coordinator exit must leave no node behind.
            for process in all_processes:
                process.join(timeout=10.0)
            for process in all_processes:
                if process.is_alive():   # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
            for process in all_processes:
                if process.is_alive():   # pragma: no cover - unkillable
                    process.kill()
                    process.join(timeout=5.0)

        failures = {index: report for index, report in reports.items()
                    if "error" in report}
        if failures:
            detail = "; ".join(
                f"node {report['address']}: {report['error']}"
                for _, report in sorted(failures.items()))
            tb = next(iter(failures.values())).get("traceback", "")
            raise LiveClusterError(
                f"{len(failures)}/{config.nodes} live nodes failed — "
                f"{detail}\nfirst traceback:\n{tb}")

        per_node = [reports.get(index) or self._down_report(index, state[index])
                    for index in range(config.nodes)]
        supervisor = {
            "killed": sum(s["killed"] for s in state.values()),
            "respawns": sum(s["restarts"] for s in state.values()),
            "down": sum(1 for s in state.values() if s["down"]),
        }
        outcome = self._aggregate(plan, per_node, supervisor=supervisor,
                                  wall_samples=wall_samples)

        if config.fail_on_driver_errors:
            noisy = [(report["address"], report["callback_error_count"],
                      report["callback_errors"])
                     for report in per_node
                     if report.get("callback_error_count")]
            if noisy:
                detail = "; ".join(
                    f"node {address}: {count} error(s), first {errors[0]}"
                    for address, count, errors in noisy)
                raise LiveClusterError(
                    f"live drivers recorded callback exceptions on "
                    f"{len(noisy)} node(s) — {detail}")
        return outcome

    # --------------------------------------------------------- fault helpers
    def _do_kill(self, fault, state: dict, push_action, now: float) -> None:
        node_state = state[fault.index]
        if node_state["down"] or node_state["pending_respawn"]:
            return   # already dead; a second kill is a no-op
        process = node_state["proc"]
        if process is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:   # pragma: no cover - exit race
                pass
            process.join(5.0)
        node_state["killed"] += 1
        if (fault.respawn_after is not None
                and node_state["restarts"] < self.config.restart_budget):
            node_state["pending_respawn"] = True
            # The directive's downtime, stretched by the capped exponential
            # backoff when this node has already burned restarts.
            delay = min(self.config.backoff_cap,
                        fault.respawn_after * (2 ** node_state["restarts"]))
            push_action(now + delay, "respawn", fault.index)
        else:
            node_state["down"] = True

    def _startup_failure(self, results_queue, reports: dict, state: dict,
                         ready) -> LiveClusterError:
        """Name the node(s) that broke the start barrier."""
        # A worker that merely observed the broken barrier is a casualty,
        # not the cause; only errors raised *before* the barrier (port bind,
        # import failure) explain the breakage.  The causing report may
        # still be in flight through the queue feeder when the barrier
        # breaks, so poll briefly before settling for the stuck diagnostic.
        booted_errors: dict[int, dict] = {}
        deadline = time.time() + 2.0
        while True:
            try:
                while True:
                    index, report = results_queue.get_nowait()
                    reports[index] = report
            except Empty:
                pass
            booted_errors = {
                index: report for index, report in reports.items()
                if "error" in report
                and "barrier broke" not in report["error"]}
            if booted_errors or time.time() >= deadline:
                break
            time.sleep(0.05)
        if booted_errors:
            detail = "; ".join(
                f"node {report['address']}: {report['error']}"
                for _, report in sorted(booted_errors.items()))
            return LiveClusterError(
                f"live cluster failed to start — {detail}")
        stuck = [index for index in range(self.config.nodes)
                 if not ready[index]]
        parts = []
        for index in stuck:
            process = state[index]["proc"]
            status = ("alive" if process.is_alive()
                      else f"exit code {process.exitcode}")
            parts.append(f"node {_FIRST_ADDRESS + index} "
                         f"(pid {process.pid}, {status})")
        return LiveClusterError(
            f"cluster startup timed out after "
            f"{self.config.startup_timeout:.0f}s: {len(stuck)} node(s) "
            f"never reached the start barrier — {', '.join(parts)}; "
            f"still importing/compiling, or stuck binding a port?")

    def _down_report(self, index: int, node_state: dict) -> dict:
        """Placeholder report for a node that stayed down (budget spent or
        killed with no respawn): zero contribution, visible in the count."""
        return {
            "address": _FIRST_ADDRESS + index,
            "state": "down",
            "down": True,
            "incarnation": node_state["incarnation"],
            "epoch": node_state["incarnation"],
            "sent": 0,
            "skipped": 0,
            "delivered": 0,
            "duplicates": 0,
            "latencies": [],
            "events_processed": 0,
            "callback_errors": [],
            "callback_error_count": 0,
            "transport": {},
            "socket": {},
        }

    # ------------------------------------------------------------ aggregation
    def _aggregate(self, plan: LivePlan, per_node: list[dict],
                   supervisor: dict,
                   wall_samples: list) -> LiveClusterResult:
        """Score the pooled per-node payloads with each model's own
        formulas, then add what only a live run has: node, socket and
        transport counters, ring correctness, and the success ratio of ops
        issued after the deployment observably recovered from its faults."""
        config = self.config
        alive_reports = [report for report in per_node
                         if not report.get("down")]
        recovered_at = (_observed_recovery(alive_reports, plan.faults)
                        if plan.faults else None)
        metrics: dict[str, float] = {}
        for position, (label, program) in enumerate(zip(plan.labels,
                                                        plan.programs)):
            payloads = [report["programs"][position]
                        for report in alive_reports]
            for key, value in program.merge(payloads).items():
                if key not in _SINGLE_CLOCK_METRICS:
                    metrics[f"{label}.{key}"] = value
            if recovered_at is None or program.measured is None:
                continue
            issued_at = {op.args[0]: at for node_ops in plan.ops
                         for at, where, op in node_ops
                         if where == position and op.action == program.measured}
            late = {seqno for payload in payloads for seqno in payload["sent"]
                    if issued_at[seqno] >= recovered_at}
            if late:
                done = {record[program.seqno_field]
                        for record in program.pooled_records(payloads)}
                metrics[f"{label}.post_fault_success_ratio"] = \
                    len(done & late) / len(late)

        def total(section: str, key: str) -> float:
            return float(sum(report[section].get(key, 0)
                             for report in per_node))

        metrics.update({
            "nodes.count": float(config.nodes),
            "nodes.joined": float(sum(
                1 for report in per_node
                if report["state"] not in ("init", "down"))),
            "nodes.callback_errors": float(sum(
                report["callback_error_count"] for report in per_node)),
            "nodes.killed": float(supervisor["killed"]),
            "nodes.respawns": float(supervisor["respawns"]),
            "nodes.down": float(supervisor["down"]),
            "sim.events_processed": float(sum(
                report["events_processed"] for report in per_node)),
            "transport.messages_sent": total("transport", "messages_sent"),
            "transport.retransmissions": total("transport",
                                               "retransmissions"),
            "socket.decode_errors": total("socket", "decode_errors"),
            "socket.fault_drops": total("socket", "fault_drops"),
            "socket.reassembly_timeouts": total("socket",
                                                "reassembly_timeouts"),
        })
        rings = [report["ring"] for report in alive_reports
                 if "ring" in report]
        if len(rings) == len(alive_reports) and rings:
            membership = [(ring["my_key"], report["address"])
                          for ring, report in zip(rings, alive_reports)]
            successors = {report["address"]: ring["successor"]
                          for ring, report in zip(rings, alive_reports)}
            metrics["ring.correct_successor_fraction"] = \
                correct_successor_fraction(membership, successors)
        obs_snapshot = None
        if config.obs is not None:
            from ..obs import (artifact, base_registry, fill_live,
                               write_obs_snapshot, write_trace_file)
            registry = base_registry()
            hop_records = fill_live(
                registry, per_node, nodes_total=config.nodes,
                nodes_alive=len(alive_reports))
            obs_snapshot = artifact(
                registry, mode="live", name=plan.name,
                seed=config.seed, duration=config.duration)
            obs_snapshot["wallclock"] = wall_samples
            if config.obs.snapshot_path:
                write_obs_snapshot(config.obs.snapshot_path, obs_snapshot)
            if config.obs.trace_path:
                write_trace_file(config.obs.trace_path, hop_records,
                                 meta={"mode": "live",
                                       "seed": config.seed})
        result = ScenarioResult(
            name=plan.name,
            seed=config.seed,
            duration=config.duration,
            metrics=metrics,
            series={},
            events=[],
            experiment=None,
            obs=obs_snapshot,
        )
        return LiveClusterResult(result=result, per_node=per_node)
