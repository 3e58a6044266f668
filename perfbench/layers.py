"""Per-layer attribution for the traced run.

The benchmark wraps each layer's entry points as class attributes before
``spec.build()`` (agents, timers and the transport demux bind methods at
construction) and records one span per call: name, start, end and the
index of the enclosing span.  Spans live in a list in memory and are
reduced when the run ends.  A layer's self time is the time of its spans
minus the time of their direct child spans.

Two private hooks are wrapped as *hook* spans rather than layer entry
points: timer firings (``ProtocolTimer._fire``) and packet deliveries
(``NetworkEmulator._deliver``).  Work they do outside any child span is
charged to the enclosing layer (the engine, which dispatched them) and is
also reported as ``trace.unattributed_s``, together with the time of the
traced ``repro.run`` call that no span covers (building the experiment and
finalising its metrics).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.apps.kv import KvStore
from repro.apps.pubsub import PubSub
from repro.network.emulator import NetworkEmulator
from repro.obs.trace import TraceSink
from repro.runtime.agent import Agent
from repro.runtime.engine import Simulator
from repro.runtime.node import MacedonNode
from repro.runtime.timers import ProtocolTimer
from repro.runtime.tracing import Tracer
from repro.transport.demux import TransportHost
from repro.transport.reliable import ReliableTransport
from repro.transport.udp import UdpTransport

HOOK = "hook"

#: (layer, class, method) for every wrapped entry point.  ``TcpTransport``
#: and ``SwpTransport`` inherit ``handle_segment`` from ReliableTransport.
ENTRY_POINTS: tuple[tuple[str, type, str], ...] = (
    ("engine", Simulator, "run"),
    ("network", NetworkEmulator, "send"),
    ("transport", TransportHost, "send"),
    ("transport", ReliableTransport, "handle_segment"),
    ("transport", UdpTransport, "handle_segment"),
    ("transport", UdpTransport, "handle_datagram"),
    ("agent", Agent, "receive_message"),
    ("agent", Agent, "api_call"),
    ("agent", Agent, "upcall_deliver"),
    ("agent", Agent, "upcall_forward"),
    ("agent", Agent, "upcall_notify"),
    ("agent", Agent, "upcall_ext"),
    ("node", MacedonNode, "crash"),
    ("node", MacedonNode, "recover"),
    ("apps", KvStore, "put"),
    ("apps", KvStore, "get"),
    ("apps", PubSub, "publish"),
    ("obs", Tracer, "record"),
    ("obs", TraceSink, "write"),
    (HOOK, ProtocolTimer, "_fire"),
    (HOOK, NetworkEmulator, "_deliver"),
)

LAYERS = ("engine", "network", "transport", "agent", "node", "apps", "obs")

#: Names of the per-layer metrics, with their units, in output order.
LAYER_METRICS: dict[str, str] = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.events_per_wall_s": "1/s",
    "network.sends": "count",
    "network.self_s": "s",
    "network.us_per_send": "us",
    "network.drops": "count",
    "network.delivery_ratio": "ratio",
    "network.hops_per_packet": "hops",
    "network.max_link_drops": "count",
    "transport.messages": "count",
    "transport.segments_received": "count",
    "transport.packets_per_message": "ratio",
    "transport.retransmissions": "count",
    "transport.self_s": "s",
    "transport.us_per_message": "us",
    "agent.dispatches": "count",
    "agent.api_calls": "count",
    "agent.upcalls": "count",
    "agent.self_s": "s",
    "agent.us_per_dispatch": "us",
    "node.crashes": "count",
    "node.recoveries": "count",
    "node.recover_s": "s",
    "apps.ops_issued": "count",
    "apps.self_s": "s",
    "apps.us_per_op": "us",
    "obs.records": "count",
    "obs.sink_writes": "count",
    "obs.self_s": "s",
    "obs.trace_bytes": "bytes",
    "obs.overhead_ratio": "ratio",
}


def span_name(cls: type, method: str) -> str:
    return f"{cls.__name__}.{method}"


LAYER_OF = {span_name(cls, method): layer
            for layer, cls, method in ENTRY_POINTS}


@dataclass
class SpanRecorder:
    """Spans ``(name, start, end, parent)`` and tallies of one traced run."""

    spans: list = field(default_factory=list)
    tallies: dict = field(default_factory=dict)
    #: Every TransportHost built during the run, recovery rebuilds included.
    hosts: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def tally(self, key: str, amount: int = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recording one span named *name* per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced


def _tallying(recorder: SpanRecorder, cls: type, method: str,
              fn: Callable) -> Callable:
    """*fn* plus the tallies reconciliation compares with program counters."""
    if cls is Simulator:
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return fn(sim, *args, **kwargs)
            finally:
                recorder.tally("engine.events",
                               sim.events_processed - before)
        return run
    if cls is MacedonNode:
        # crash/recover are idempotent; count the calls that change state.
        changes = (lambda node: not node.crashed) if method == "crash" \
            else (lambda node: node.crashed)
        key = "node.crashes" if method == "crash" else "node.recoveries"

        def lifecycle(node, *args, **kwargs):
            if changes(node):
                recorder.tally(key)
            return fn(node, *args, **kwargs)
        return lifecycle
    if cls is TransportHost:
        def send(host, *args, **kwargs):
            if not host.active:
                recorder.tally("transport.muted_sends")
            return fn(host, *args, **kwargs)
        return send
    return fn


@contextmanager
def traced(recorder: SpanRecorder,
           entry_points=ENTRY_POINTS) -> Iterator[SpanRecorder]:
    """Wrap *entry_points* for the duration of the block, then restore."""
    saved = []
    try:
        for _layer, cls, method in entry_points:
            saved.append((cls, method, cls.__dict__.get(method)))
            original = getattr(cls, method)
            setattr(cls, method, recorder.wrap(
                span_name(cls, method),
                _tallying(recorder, cls, method, original)))
        host_init = TransportHost.__init__
        saved.append((TransportHost, "__init__", host_init))

        def register_host(host, *args, **kwargs):
            host_init(host, *args, **kwargs)
            recorder.hosts.append(host)
        TransportHost.__init__ = register_host
        yield recorder
    finally:
        for cls, method, original in reversed(saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)


@dataclass
class Attribution:
    """Reduced spans: per-layer self time, counts and unattributed time."""

    self_s: dict
    calls: dict
    inclusive_s: dict
    hook_s: float
    covered_s: float


def attribute(spans: list) -> Attribution:
    """Self time per layer from spans ``(name, start, end, parent)``.

    A span's self time is its duration minus its direct children's
    durations.  A hook span's self time goes to the layer of its nearest
    non-hook ancestor (and is summed separately as ``hook_s``).
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls: dict = {}
    inclusive_s: dict = {}
    hook_s = covered_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - child_s[index]
        calls[name] = calls.get(name, 0) + 1
        inclusive_s[name] = inclusive_s.get(name, 0.0) + duration
        if parent < 0:
            covered_s += duration
        layer = LAYER_OF[name]
        if layer == HOOK:
            hook_s += own
            ancestor = parent
            while ancestor >= 0 and LAYER_OF[spans[ancestor][0]] == HOOK:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                continue
            layer = LAYER_OF[spans[ancestor][0]]
        self_s[layer] += own
    return Attribution(self_s=self_s, calls=calls, inclusive_s=inclusive_s,
                       hook_s=hook_s, covered_s=covered_s)


def _calls(attribution: Attribution, *names: str) -> int:
    return sum(attribution.calls.get(name, 0) for name in names)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(attribution: Attribution, recorder: SpanRecorder,
                  result) -> dict:
    """The per-layer metrics of one traced run (times in seconds)."""
    experiment = result.experiment
    emulator = experiment.emulator
    self_s = attribution.self_s
    transports = [stats for host in recorder.hosts
                  for stats in host.stats().values()]
    links = emulator.link_stats().values()
    sends = _calls(attribution, "NetworkEmulator.send")
    messages = _calls(attribution, "TransportHost.send")
    dispatches = _calls(attribution, "Agent.receive_message")
    api_calls = _calls(attribution, "Agent.api_call")
    upcalls = _calls(attribution, "Agent.upcall_deliver",
                     "Agent.upcall_forward", "Agent.upcall_notify",
                     "Agent.upcall_ext")
    ops = _calls(attribution, "KvStore.put", "KvStore.get", "PubSub.publish")
    sink = experiment.tracer.sink
    trace_path = sink.path if sink is not None else None
    return {
        "engine.events": recorder.tallies.get("engine.events", 0),
        "engine.self_s": self_s["engine"],
        "network.sends": sends,
        "network.self_s": self_s["network"],
        "network.us_per_send": _per(self_s["network"], sends, 1e6),
        "network.drops": emulator.stats.packets_dropped,
        "network.delivery_ratio": _per(emulator.stats.packets_delivered,
                                       emulator.stats.packets_sent),
        "network.hops_per_packet": _per(sum(link.packets for link in links),
                                        emulator.stats.packets_sent),
        "network.max_link_drops": max((link.drops for link in links),
                                      default=0),
        "transport.messages": messages,
        "transport.segments_received": _calls(
            attribution, "ReliableTransport.handle_segment",
            "UdpTransport.handle_segment", "UdpTransport.handle_datagram"),
        "transport.packets_per_message": _per(sends, messages),
        "transport.retransmissions": sum(stats.retransmissions
                                         for stats in transports),
        "transport.self_s": self_s["transport"],
        "transport.us_per_message": _per(self_s["transport"], messages, 1e6),
        "agent.dispatches": dispatches,
        "agent.api_calls": api_calls,
        "agent.upcalls": upcalls,
        "agent.self_s": self_s["agent"],
        "agent.us_per_dispatch": _per(self_s["agent"],
                                      dispatches + api_calls + upcalls, 1e6),
        "node.crashes": recorder.tallies.get("node.crashes", 0),
        "node.recoveries": recorder.tallies.get("node.recoveries", 0),
        "node.recover_s": attribution.inclusive_s.get(
            "MacedonNode.recover", 0.0),
        "apps.ops_issued": ops,
        "apps.self_s": self_s["apps"],
        "apps.us_per_op": _per(self_s["apps"], ops, 1e6),
        "obs.records": _calls(attribution, "Tracer.record"),
        "obs.sink_writes": _calls(attribution, "TraceSink.write"),
        "obs.self_s": self_s["obs"],
        "obs.trace_bytes": (os.path.getsize(trace_path)
                            if trace_path and os.path.exists(trace_path)
                            else 0),
    }


def reconcile(measured: dict, recorder: SpanRecorder, result,
              workload_sent: Optional[int]) -> list[str]:
    """Mismatches between wrapped call counts and the program's counters.

    *workload_sent* is the number of application operations the workload
    issued (``None`` for workloads without an application layer).
    """
    metrics = result.metrics
    transports = [stats for host in recorder.hosts
                  for stats in host.stats().values()]
    sink = result.experiment.tracer.sink
    pairs = [
        ("engine.events", measured["engine.events"],
         "sim.events_processed", metrics["sim.events_processed"]),
        ("network.sends", measured["network.sends"],
         "net.packets_sent", metrics["net.packets_sent"]),
        ("transport.messages - muted sends",
         measured["transport.messages"]
         - recorder.tallies.get("transport.muted_sends", 0),
         "sum of TransportStats.messages_sent",
         sum(stats.messages_sent for stats in transports)),
        ("transport.segments_received",
         measured["transport.segments_received"],
         "sum of TransportStats.segments_received",
         sum(stats.segments_received for stats in transports)),
        ("node.crashes", measured["node.crashes"],
         "nodes.crashes", metrics["nodes.crashes"]),
        ("node.recoveries", measured["node.recoveries"],
         "nodes.recoveries", metrics["nodes.recoveries"]),
        ("obs.sink_writes", measured["obs.sink_writes"],
         "TraceSink.written", sink.written if sink is not None else 0),
        ("apps.ops_issued", measured["apps.ops_issued"],
         "workload.sent", workload_sent or 0),
    ]
    problems = [f"{ours} = {mine:g} but {theirs} = {program:g}"
                for ours, mine, theirs, program in pairs
                if mine != program]
    if not recorder.hosts:
        problems.append("no TransportHost was built inside the traced run")
    return problems
