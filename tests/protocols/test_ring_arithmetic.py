"""Equivalence of the DHT specs' ring arithmetic with its plain formulations.

Pastry's ``bi_distance`` and Chord's ``closest_preceding`` compute with one
modulo per candidate, and Pastry's ``leaf_update`` caches the farthest leaf
against ``NeighborSet.version``.  Each is checked here against the
straightforward formulation it replaces, which is kept in this file as the
reference: two ``KeySpace.distance`` calls for the ring distance, two
``KeySpace.between`` tests per finger, and a full leaf-set scan per update.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.network import NetworkEmulator, transit_stub_topology
from repro.protocols import chord_agent, pastry_agent
from repro.runtime import MacedonNode, Simulator
from repro.runtime.agent import TransitionContext
from repro.runtime.keys import KeySpace

# A narrow ring makes wraparound, equal keys and ties frequent.
SMALL = KeySpace(bits=8, digit_bits=4)


# ----------------------------------------------------------------- bi_distance
def reference_bi_distance(space, a, b):
    return min(space.distance(a, b), space.distance(b, a))


@given(st.integers(min_value=0, max_value=2 * SMALL.size),
       st.integers(min_value=0, max_value=2 * SMALL.size))
def test_bi_distance_matches_two_distance_formulation_small_ring(a, b):
    fake = SimpleNamespace(key_space=SMALL)
    assert pastry_agent().bi_distance(fake, a, b) == \
        reference_bi_distance(SMALL, a, b)


@given(st.integers(min_value=0, max_value=2 ** 33),
       st.integers(min_value=0, max_value=2 ** 33))
def test_bi_distance_matches_two_distance_formulation_default_ring(a, b):
    space = pastry_agent().KEY_SPACE
    fake = SimpleNamespace(key_space=space)
    assert pastry_agent().bi_distance(fake, a, b) == \
        reference_bi_distance(space, a, b)


def test_bi_distance_edge_cases():
    fake = SimpleNamespace(key_space=SMALL)
    bi_distance = pastry_agent().bi_distance
    assert bi_distance(fake, 5, 5) == 0
    assert bi_distance(fake, 5, 5 + SMALL.size) == 0
    assert bi_distance(fake, 0, SMALL.size // 2) == SMALL.size // 2
    assert bi_distance(fake, SMALL.size - 1, 1) == 2


# ----------------------------------------------------------- closest_preceding
def reference_closest_preceding(agent, target):
    """The two-``between``-tests-per-finger loop."""
    space = agent.key_space
    best, best_key = None, None
    for entry in agent.fingers.values():
        if space.between(entry[0], agent.my_key, target):
            if best is None or space.between(entry[0], best_key, target):
                best, best_key = entry[1], entry[0]
    if agent.successor != agent.my_addr:
        succ_key = agent.skey(agent.successor)
        if space.between(succ_key, agent.my_key, target):
            if best is None or space.between(succ_key, best_key, target):
                best = agent.successor
    return best


MY_ADDR = 1
ring_keys = st.integers(min_value=0, max_value=2 * SMALL.size - 1)
# Finger owners are always truthy addresses (the spec only stores answers
# with an owner); a shared pool of addresses gives duplicate owners.
finger_entries = st.tuples(ring_keys, st.integers(min_value=2, max_value=12))


@given(my_key=st.integers(min_value=0, max_value=SMALL.size - 1),
       fingers=st.lists(finger_entries, max_size=10),
       successor=st.one_of(st.just(MY_ADDR),
                           st.integers(min_value=2, max_value=12)),
       successor_key=ring_keys,
       target=ring_keys,
       target_is_my_key=st.booleans())
def test_closest_preceding_matches_between_loop(my_key, fingers, successor,
                                                successor_key, target,
                                                target_is_my_key):
    if target_is_my_key:
        target = my_key
    fake = SimpleNamespace(key_space=SMALL, my_key=my_key, my_addr=MY_ADDR,
                           fingers=dict(enumerate(fingers)),
                           successor=successor,
                           skey=lambda address: successor_key)
    assert chord_agent().closest_preceding(fake, target) == \
        reference_closest_preceding(fake, target)


def test_closest_preceding_duplicate_keys_keep_the_first():
    # Equal finger keys: the first seen stays (strict improvement only),
    # and a successor at the same key does not displace it either.
    fake = SimpleNamespace(key_space=SMALL, my_key=10, my_addr=MY_ADDR,
                           fingers={0: (50, 2), 1: (50, 3), 2: (300, 4)},
                           successor=5, skey=lambda address: 50)
    for target in (60, 10, 10 + SMALL.size, 5):
        assert chord_agent().closest_preceding(fake, target) == \
            reference_closest_preceding(fake, target)
    # 300 wraps to 44, short of 50: the first finger at key 50 wins.
    assert chord_agent().closest_preceding(fake, 60) == 2


# ------------------------------------------------------------ leaf-set cache
class LeafSetModel:
    """Pastry's peer table and leaf set under the rescan-every-time update."""

    def __init__(self, my_addr, my_key, space, capacity):
        self.my_addr, self.my_key = my_addr, my_key
        self.space, self.capacity = space, capacity
        self.peers: dict[int, int] = {}
        self.leaves: dict[int, int] = {}      # insertion-ordered addr -> key

    def distance(self, key):
        return reference_bi_distance(self.space, self.my_key, key)

    def table_add(self, key, addr):
        if not addr or addr == self.my_addr:
            return
        self.peers[addr] = key
        if addr in self.leaves:
            return
        if len(self.leaves) < self.capacity:
            self.leaves[addr] = key
            return
        worst, worst_distance = None, -1
        for leaf_addr, leaf_key in self.leaves.items():
            if self.distance(leaf_key) > worst_distance:
                worst, worst_distance = leaf_addr, self.distance(leaf_key)
        if worst is not None and self.distance(key) < worst_distance:
            del self.leaves[worst]
            self.leaves[addr] = key

    def error(self, addr):
        self.peers.pop(addr, None)
        self.leaves.pop(addr, None)


def pastry_node_agent():
    simulator = Simulator(seed=3)
    emulator = NetworkEmulator(simulator, transit_stub_topology(4, seed=3))
    return MacedonNode(simulator, emulator, [pastry_agent()]).lowest_agent


PEER_ADDRS = st.integers(min_value=1000, max_value=1030)
# A key is either anywhere on (and beyond) the ring or within a few ids of
# the agent's own key on either side, where evictions and distance ties
# between the two sides are common.
PEER_KEYS = st.one_of(st.tuples(st.just("far"),
                                st.integers(min_value=0, max_value=2 ** 33)),
                      st.tuples(st.just("near"),
                                st.integers(min_value=-6, max_value=6)))
operations = st.lists(st.one_of(
    st.tuples(st.just("add"), PEER_ADDRS, PEER_KEYS),
    st.tuples(st.just("error"), PEER_ADDRS),
    st.tuples(st.just("regossip"))), min_size=10, max_size=80)


def replay(agent, ops):
    """Apply *ops* to *agent* and to the model, comparing after each step."""
    model = LeafSetModel(agent.my_addr, agent.my_key, agent.key_space,
                         agent.LEAF_SET)
    for op in ops:
        if op[0] == "add":
            _, addr, (kind, value) = op
            key = value if kind == "far" else \
                (agent.my_key + value) % agent.key_space.size
            agent.table_add(key, addr)
            model.table_add(key, addr)
        elif op[0] == "error":
            agent.api_call("error", TransitionContext(error_addr=op[1]))
            model.error(op[1])
        else:
            for addr, key in list(agent.peers.items()):
                agent.table_add(key, addr)
                model.table_add(key, addr)
        assert agent.peers == model.peers
        assert [(e.addr, e.key) for e in agent.leafset.entries()] == \
            list(model.leaves.items())


@settings(max_examples=60, deadline=None)
@given(operations)
def test_cached_leaf_set_matches_rescanning_update(ops):
    replay(pastry_node_agent(), ops)


def test_cached_leaf_set_matches_rescanning_update_long_script():
    rng = random.Random(11)
    ops = []
    for _ in range(600):
        roll = rng.random()
        addr = rng.randint(1000, 1060)
        if roll < 0.7:
            key = ("near", rng.randint(-40, 40)) if rng.random() < 0.5 \
                else ("far", rng.randrange(2 ** 32))
            ops.append(("add", addr, key))
        elif roll < 0.95:
            ops.append(("error", addr))
        else:
            ops.append(("regossip",))
    replay(pastry_node_agent(), ops)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(PEER_ADDRS, st.integers(min_value=0,
                                               max_value=2 ** 32 - 1),
                       min_size=1),
       st.lists(PEER_ADDRS, max_size=8))
def test_leaf_set_after_regossip_is_the_closest_peers(adds, failures):
    # One key per peer, as with hashed addresses: a leaf's key is then
    # always its peer-table key.
    agent = pastry_node_agent()
    for addr, key in adds.items():
        agent.table_add(key, addr)
    for addr in failures:
        agent.api_call("error", TransitionContext(error_addr=addr))
    for addr, key in list(agent.peers.items()):
        agent.table_add(key, addr)

    def distance(key):
        return reference_bi_distance(agent.key_space, agent.my_key, key)

    closest = sorted(distance(key) for key in agent.peers.values())
    leaves = sorted(distance(entry.key) for entry in agent.leafset.entries())
    assert leaves == closest[:agent.LEAF_SET]
    assert set(agent.leafset.addresses()) <= set(agent.peers)
