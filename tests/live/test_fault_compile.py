"""Compiling scenario fault models onto the live wall-clock schedule."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.eval.library import resolve_protocol
from repro.eval.scenario import (ChurnModel, CorrelatedCrashModel, CrashModel,
                                 DegradeModel, FlappingPartitionModel,
                                 FlashCrowdModel, PartitionModel, ScenarioSpec,
                                 WorkloadModel)
from repro.live import (DegradeFault, KillNode, LiveClusterConfig,
                        LiveFaultError, PartitionFault, compile_fault_models,
                        fault_horizon, live_runnable)

pytestmark = pytest.mark.live


def _spec(*models, protocol="chord", num_nodes=6, duration=120.0, seed=3):
    return ScenarioSpec(name="compile-test",
                        agents=resolve_protocol(protocol),
                        num_nodes=num_nodes, duration=duration, seed=seed,
                        models=models)


def _config(spec, **overrides):
    return LiveClusterConfig(spec, **{"duration": 7.0, **overrides})


def test_churn_compiles_to_kills_inside_the_workload_window():
    config = _config(_spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                                      churn_end=60.0, downtime=8.0)))
    faults = compile_fault_models(config)
    assert len(faults) == 2            # 40% of the 5 non-exempt nodes
    for fault in faults:
        assert isinstance(fault, KillNode)
        assert fault.index != 0        # the bootstrap is exempt
        # Kill times land inside the rescaled [churn_start, churn_end]
        # window; the rescaled 8 s downtime is floored to a real outage.
        assert config.workload_start <= fault.at <= config.duration
        assert fault.respawn_after == pytest.approx(1.0)
    assert fault_horizon(faults) == max(f.at + f.respawn_after
                                        for f in faults)


def test_compilation_is_deterministic_per_seed():
    spec = _spec(ChurnModel(churn_fraction=0.4, churn_start=30.0,
                            churn_end=60.0))
    assert compile_fault_models(_config(spec)) \
        == compile_fault_models(_config(spec))
    assert compile_fault_models(_config(replace(spec, seed=9))) \
        != compile_fault_models(_config(replace(spec, seed=9, num_nodes=8),
                                        duration=8.0))


def test_crash_maps_named_victims_and_recovery():
    faults = compile_fault_models(_config(
        _spec(CrashModel(at=60.0, victims=(2, 4), recover_after=30.0))))
    assert [f.index for f in faults] == [2, 4]
    at = faults[0].at
    # t=60 of 120 sim seconds lands mid-window on the live clock.
    assert at == pytest.approx(1.9 + 60.0 * (7.0 - 1.9) / 120.0, abs=1e-3)
    assert all(f.at == at for f in faults)
    # 30 sim seconds rescale above the floor: scaled, not floored.
    assert faults[0].respawn_after == pytest.approx(30.0 * 5.1 / 120.0,
                                                    abs=1e-3)

    permanent = compile_fault_models(_config(
        _spec(CrashModel(at=60.0, victims=(2,)))))
    assert permanent[0].respawn_after is None
    assert fault_horizon(permanent) == permanent[0].at

    with pytest.raises(LiveFaultError, match="out of range"):
        compile_fault_models(_config(
            _spec(CrashModel(at=60.0, victims=(17,)))))


def test_partition_compiles_groups_but_not_link_cuts():
    faults = compile_fault_models(_config(
        _spec(PartitionModel(at=40.0, groups=((0, 1, 2), (3, 4, 5)),
                             heal_after=2.0))))
    (fault,) = faults
    assert isinstance(fault, PartitionFault)
    assert fault.groups == ((0, 1, 2), (3, 4, 5))
    assert fault.heal_after == pytest.approx(0.5)   # floored heal span

    with pytest.raises(LiveFaultError, match="host groups only"):
        compile_fault_models(_config(
            _spec(PartitionModel(at=40.0, links=((0, 3),)))))


def test_flapping_partition_emits_one_cut_per_surviving_cycle():
    faults = compile_fault_models(_config(
        _spec(FlappingPartitionModel(at=30.0, period=20.0, duty=0.5,
                                     cycles=10, groups=((0, 1, 2),)))))
    # The floored 1 s period fits only 4 of the 10 cycles before the live
    # horizon; later cycles are dropped, not squeezed.
    assert len(faults) == 4
    assert all(isinstance(f, PartitionFault) for f in faults)
    ats = [f.at for f in faults]
    assert ats == sorted(ats)
    gaps = [b - a for a, b in zip(ats, ats[1:])]
    assert all(gap == pytest.approx(1.0, abs=1e-3) for gap in gaps)
    assert all(f.heal_after == pytest.approx(0.5) for f in faults)


def test_degrade_maps_factors_with_caps():
    faults = compile_fault_models(_config(
        _spec(DegradeModel(at=40.0, restore_after=30.0, hosts=(3,),
                           latency_factor=5.0, bandwidth_factor=0.5))))
    (fault,) = faults
    assert isinstance(fault, DegradeFault)
    assert fault.indices == (3,)
    assert fault.delay == pytest.approx(0.08)    # (5 - 1) * 0.02
    assert fault.loss == pytest.approx(0.5)      # 1 - bandwidth_factor

    capped = compile_fault_models(_config(
        _spec(DegradeModel(at=40.0, hosts=(3,), latency_factor=100.0,
                           bandwidth_factor=0.0))))
    assert capped[0].delay == pytest.approx(0.25)
    assert capped[0].loss == pytest.approx(0.75)

    with pytest.raises(LiveFaultError, match="access links only"):
        compile_fault_models(_config(
            _spec(DegradeModel(at=40.0, links=((0, 1),),
                               bandwidth_factor=0.5))))


def test_sim_only_models_raise_with_a_reason():
    with pytest.raises(LiveFaultError, match="emulated topology"):
        compile_fault_models(_config(
            _spec(CorrelatedCrashModel(at=40.0, racks=4))))
    with pytest.raises(LiveFaultError, match="sim-only"):
        compile_fault_models(_config(
            _spec(FlashCrowdModel(core=2, at=30.0, stay=20.0))))
    # Without the mass departure, the live join wave replaces the burst.
    assert compile_fault_models(_config(
        _spec(FlashCrowdModel(core=2, at=30.0)))) == ()


def test_live_runnable_tags():
    workload = WorkloadModel(kind="route", source=-1, start=40.0, packets=8,
                             gap=2.0)
    ok, reason = live_runnable(_spec(workload))
    assert ok and reason is None

    ok, reason = live_runnable(_spec(workload, protocol="ringdht"))
    assert not ok and "no live deployment" in reason

    ok, reason = live_runnable(_spec())
    assert not ok and "no WorkloadModel" in reason

    ok, reason = live_runnable(
        _spec(workload, CorrelatedCrashModel(at=40.0, racks=4)))
    assert not ok and "emulated topology" in reason
