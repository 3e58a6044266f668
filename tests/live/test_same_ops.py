"""Live and simulated runs of one spec issue the same operations.

No sockets: the live side is the per-node op slices :func:`compile_live`
ships to the node processes; the simulated side is what the simulator's
nodes actually issued during a run, recorded at the application API.
"""

from __future__ import annotations

import pytest

from repro.apps.kv import KvStore
from repro.apps.payload import AppPayload
from repro.apps.pubsub import PubSub
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.live import LiveClusterConfig, compile_live
from repro.runtime.node import MacedonNode

pytestmark = pytest.mark.live


def _spec(protocol, workload, seed):
    # Every node joins well before the workload starts and nothing fails,
    # so the simulator issues every op of the schedule.
    return ScenarioSpec(
        name="same-ops", agents=resolve_protocol(protocol), num_nodes=6,
        duration=40.0, seed=seed,
        models=(ChurnModel(join="staggered", join_spacing=0.5), workload))


def _live_ops(spec) -> set:
    """(seqno, node index, key/topic, op) of every node's live slice."""
    plan = compile_live(LiveClusterConfig(spec))
    ops = set()
    for index, node_ops in enumerate(plan.ops):
        for _at, position, op in node_ops:
            program = plan.programs[position]
            if op.action != program.measured:
                continue
            if op.action == "issue":
                seqno, key, version = op.args
                ops.add((seqno, index, key, "put" if version >= 0 else "get"))
            else:
                seqno, key = op.args
                ops.add((seqno, index, key, op.action))
    return ops


def _sim_ops(spec, monkeypatch) -> set:
    """The same tuples, recorded from the calls the simulated nodes made."""
    issued = []
    route, put, get, publish = (MacedonNode.macedon_route, KvStore.put,
                                KvStore.get, PubSub.publish)

    def spy_route(node, dest, payload, size, *args, **kwargs):
        if type(payload) is AppPayload:
            issued.append((payload.seqno, node.address, dest, "send"))
        return route(node, dest, payload, size, *args, **kwargs)

    def spy_put(store, key, version, seqno):
        issued.append((seqno, store.node.address, key, "put"))
        return put(store, key, version, seqno)

    def spy_get(store, key, seqno):
        issued.append((seqno, store.node.address, key, "get"))
        return get(store, key, seqno)

    def spy_publish(app, topic, seqno, size=1000):
        issued.append((seqno, app.node.address, topic, "publish"))
        return publish(app, topic, seqno, size)

    monkeypatch.setattr(MacedonNode, "macedon_route", spy_route)
    monkeypatch.setattr(KvStore, "put", spy_put)
    monkeypatch.setattr(KvStore, "get", spy_get)
    monkeypatch.setattr(PubSub, "publish", spy_publish)
    result = spec.run()
    index_of = {node.address: index
                for index, node in enumerate(result.experiment.nodes)}
    return {(seqno, index_of[address], key, op)
            for seqno, address, key, op in issued}


@pytest.mark.parametrize("protocol, workload", [
    ("chord", WorkloadModel(kind="route", source=-1, start=10.0, packets=20,
                            gap=1.0)),
    ("chord", WorkloadModel(kind="kv", start=10.0, packets=30, gap=0.5,
                            keys=8, clients=4)),
    ("scribe-pastry", WorkloadModel(kind="pubsub", source=-1, start=5.0,
                                    packets=12, gap=1.0, topics=3,
                                    fanout=3)),
], ids=["route", "kv", "pubsub"])
def test_live_slices_are_the_simulated_ops(protocol, workload, monkeypatch):
    spec = _spec(protocol, workload, seed=11)
    live = _live_ops(spec)
    sim = _sim_ops(spec, monkeypatch)
    assert len(live) == workload.packets
    assert live == sim
