"""Tests for neighbor sets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.runtime.neighbors import (
    NeighborError,
    NeighborFieldSpec,
    NeighborSet,
    NeighborType,
)


@pytest.fixture
def children_type() -> NeighborType:
    return NeighborType("ochildren", 4, (NeighborFieldSpec("delay", "double"),
                                         NeighborFieldSpec("bandwidth", "double")))


@pytest.fixture
def children(children_type) -> NeighborSet:
    return NeighborSet("kids", children_type, rng=random.Random(1))


def test_add_query_entry_remove(children):
    entry = children.add(101, delay=0.5)
    assert children.query(101)
    assert children.size() == 1
    assert children.entry(101) is entry
    assert entry.delay == 0.5
    assert entry.bandwidth == 0.0
    assert entry.ipaddr == 101
    removed = children.remove(101)
    assert removed is entry
    assert not children.query(101)
    assert children.remove(101) is None


def test_add_existing_updates_fields(children):
    children.add(101, delay=0.5)
    children.add(101, delay=0.9, bandwidth=2.0)
    assert children.size() == 1
    assert children.entry(101).delay == 0.9
    assert children.entry(101).bandwidth == 2.0


def test_unknown_field_rejected(children):
    with pytest.raises(NeighborError):
        children.add(101, rtt=1.0)


def test_max_size_enforced(children):
    for address in range(4):
        children.add(address)
    assert children.is_full
    with pytest.raises(NeighborError):
        children.add(99)
    # Re-adding an existing member when full is fine (it is an update).
    children.add(2, delay=1.0)


def test_entry_for_missing_address_raises(children):
    with pytest.raises(NeighborError):
        children.entry(12345)


def test_random_and_first(children):
    assert children.random() is None
    assert children.first() is None
    children.add(1)
    children.add(2)
    picks = {children.random().addr for _ in range(50)}
    assert picks <= {1, 2}
    assert len(picks) == 2
    assert children.first().addr == 1


def test_clear_and_iteration_order(children):
    for address in (5, 3, 9):
        children.add(address)
    assert children.addresses() == [5, 3, 9]
    assert [entry.addr for entry in children] == [5, 3, 9]
    children.clear()
    assert len(children) == 0
    assert not children


def test_observers_fire_on_add_and_remove(children):
    events = []
    children.add_observer(lambda s, action, addr: events.append((action, addr)))
    children.add(7)
    children.remove(7)
    children.add(8)
    children.clear()
    assert events == [("add", 7), ("remove", 7), ("add", 8), ("remove", 8)]


def test_keys_follow_entries(children):
    children.add(1, key=111)
    children.add(2, key=222)
    assert children.keys() == [111, 222]


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
def test_membership_matches_model(addresses):
    neighbor_type = NeighborType("peers", 1000)
    neighbor_set = NeighborSet("peers", neighbor_type, rng=random.Random(0))
    model: dict[int, None] = {}
    for address in addresses:
        neighbor_set.add(address)
        model[address] = None
    assert sorted(neighbor_set.addresses()) == sorted(model)
    assert neighbor_set.size() == len(model)
    for address in model:
        assert neighbor_set.query(address)


def test_version_bumps_on_membership_and_key_changes(children):
    versions = [children.version]

    def changed():
        versions.append(children.version)
        return versions[-1] != versions[-2]

    children.add(1, key=10)
    assert changed()
    children.add(1, key=10)                 # re-add that changes nothing
    assert not changed()
    children.add(1, delay=0.5)              # field update, key untouched
    assert not changed()
    children.add(1)                         # no key given: key kept
    assert not changed()
    children.add(1, key=11)                 # key refresh
    assert changed()
    children.remove(99)                     # absent: nothing removed
    assert not changed()
    children.remove(1)
    assert changed()
    children.add(2, key=20)
    children.add(3, key=30)
    before = children.version
    children.clear()
    # clear() goes through remove(): one bump per entry.
    assert children.version == before + 2
    versions.append(children.version)
    children.clear()                        # already empty
    assert not changed()


@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                          st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=2)),
                max_size=40))
def test_version_tracks_every_observable_change(ops):
    """Equal versions imply equal (address, key) contents in order."""
    neighbor_set = NeighborSet("peers", NeighborType("peers", 1000),
                               rng=random.Random(0))
    seen: dict[int, list] = {}
    for op, address, key in ops:
        if op == "add":
            neighbor_set.add(address, key=key)
        else:
            neighbor_set.remove(address)
        snapshot = [(entry.addr, entry.key) for entry in neighbor_set.entries()]
        assert seen.setdefault(neighbor_set.version, snapshot) == snapshot
