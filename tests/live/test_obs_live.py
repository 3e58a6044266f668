"""Observability over real sockets, and the sim/live parity contract.

The acceptance shape from the observability issue: a sim run and a live
run both emit ``repro.obs/1`` snapshots with *identical metric keys*, and
``scripts/run_trace.py``-style route reconstruction works on both modes'
trace files.  The cluster stays small (4 nodes, a few seconds) like the
rest of the live tier.
"""

from __future__ import annotations

import pytest

import repro
from repro.eval.library import resolve_protocol
from repro.eval.scenario import ChurnModel, ScenarioSpec, WorkloadModel
from repro.obs import (ObsConfig, load_obs_snapshot, load_trace,
                       reconstruct_routes, validate_obs_snapshot)

pytestmark = pytest.mark.live


def test_live_obs_snapshot_matches_sim_keys_and_routes(tmp_path):
    obs_live = ObsConfig(trace_path=str(tmp_path / "live-trace.jsonl"),
                         causal=True,
                         snapshot_path=str(tmp_path / "live-obs.json"))
    # One workload shape for both modes, same obs knobs.
    spec = ScenarioSpec(
        name="obs-parity", agents=resolve_protocol("chord"),
        num_nodes=4, duration=40.0, seed=5,
        models=(ChurnModel(join="staggered", join_spacing=0.5),
                WorkloadModel(kind="route", source=-1, start=10.0,
                              packets=16, gap=1.0)))
    outcome = repro.run(spec, mode="live", obs=obs_live, duration=5.0,
                        join_spacing=0.1, settle=0.8, base_port=49300)
    live_snapshot = outcome.result.obs
    assert live_snapshot is not None
    validate_obs_snapshot(live_snapshot)
    assert live_snapshot["mode"] == "live"
    assert load_obs_snapshot(str(tmp_path / "live-obs.json")) == live_snapshot

    sim_result = repro.run(spec, obs=ObsConfig(
        trace_path=str(tmp_path / "sim-trace.jsonl"), causal=True))
    sim_snapshot = sim_result.obs
    validate_obs_snapshot(sim_snapshot)

    # Key parity is the contract: one dashboard reads both modes.
    for section in ("counters", "gauges", "histograms"):
        assert set(live_snapshot[section]) == set(sim_snapshot[section])

    # Live-only signals actually populated.
    assert live_snapshot["counters"]["causal.traces"] > 0
    assert live_snapshot["gauges"]["nodes.alive"] == 4.0
    assert live_snapshot["wallclock"], "coordinator collected stats frames"
    for sample in live_snapshot["wallclock"]:
        assert len(sample["nodes"]) == 4

    # Route reconstruction works on both modes' trace files.
    for name, expected_mode in (("live-trace.jsonl", "live"),
                                ("sim-trace.jsonl", "sim")):
        header, records = load_trace(str(tmp_path / name))
        assert header["mode"] == expected_mode
        routes = reconstruct_routes(records)
        assert routes, f"no routes reconstructed from {name}"
        for route in routes:
            assert len(route["path"]) == route["hops"] + 1
            assert len(route["latencies"]) == route["hops"]


def test_live_obs_off_reports_no_trace_sections():
    spec = ScenarioSpec(
        name="obs-off", agents=resolve_protocol("chord"), num_nodes=3,
        duration=9.0, seed=3,
        models=(WorkloadModel(kind="route", source=-1, start=1.0,
                              packets=8, gap=1.0),))
    outcome = repro.run(spec, mode="live", duration=4.0, join_spacing=0.1,
                        settle=0.8, base_port=49340)
    assert outcome.result.obs is None
    for report in outcome.per_node:
        assert "causal" not in report
