"""``repro.run`` — one front door for every execution mode.

The scenario engine grew four entry points as the paper's evaluation grew:
:meth:`~repro.eval.scenario.ScenarioSpec.run` (single-process simulation),
:meth:`~repro.eval.scenario.ScenarioSpec.run_sharded` (the multi-process
conservative-lockstep kernel), :class:`~repro.eval.runner.ScenarioRunner`
(multi-seed replication), and :class:`~repro.live.LiveCluster` (real
processes over real sockets).  They all execute the *same* declarative
:class:`~repro.eval.scenario.ScenarioSpec`; this module folds them behind
one function so a spec written once runs anywhere::

    result  = repro.run(spec)                       # spec.run()
    result  = repro.run(spec, shards=4)             # spec.run_sharded(4)
    summary = repro.run(spec, seeds=5, jobs=4)      # ScenarioRunner(...)
    live    = repro.run(spec, mode="live")          # LiveCluster(...)

The facade adds no semantics: each dispatch is byte-identical to calling
the underlying entry point directly (pinned by
``tests/eval/test_facade.py``), and the old entry points remain public.

Live mode hands the spec itself to :class:`~repro.live.LiveCluster`
(:class:`~repro.live.LiveClusterConfig` carries it): every node process
binds its own node to the spec's compiled workload programs and runs its
slice of the same op schedule the simulator runs, and the spec's fault
models become real ``SIGKILL``/respawn schedules and socket fault-table
rules.  Both land on the wall clock through one mapping of spec time onto
the live workload window (after the live join wave).  A live deployment
runs one seed in one piece.  Keyword overrides pass through to
:class:`~repro.live.LiveClusterConfig` (e.g. ``base_port=48000``), with
``faults=()`` available to opt out of fault compilation.
"""

from __future__ import annotations

from typing import Sequence, Union


def _run_live(spec, overrides: dict):
    from .live import LiveCluster, LiveClusterConfig
    return LiveCluster(LiveClusterConfig(spec, **overrides)).run()


def run(spec, *, seeds: Union[int, Sequence[int]] = 1, jobs: int = 1,
        shards: int = 1, mode: str = "sim", obs=None, **live_overrides):
    """Execute *spec* and return its results, whatever the mode.

    :param spec: a :class:`~repro.eval.scenario.ScenarioSpec`.
    :param seeds: ``1`` runs the spec's own seed and returns a
        :class:`~repro.eval.scenario.ScenarioResult`; an integer ``n > 1``
        replicates over ``spec.seed .. spec.seed + n - 1``; an explicit
        sequence runs exactly those seeds.  Multi-seed runs return a
        :class:`~repro.eval.runner.ScenarioSummary`.
    :param jobs: parallel worker processes across seeds (multi-seed only).
    :param shards: simulation kernel shards per run (``run_sharded``).
    :param mode: ``"sim"`` (default) or ``"live"`` — real processes over
        UDP sockets, returning a :class:`~repro.live.LiveClusterResult`.
    :param obs: an :class:`~repro.obs.ObsConfig` to attach observability
        (metrics snapshot, trace export, causal tracing) to this run in
        any mode; equivalent to setting ``spec.obs`` (sim) or
        ``LiveClusterConfig.obs`` (live).  Single-run only: artifact
        paths are per-run, so multi-seed replication rejects it.
    :param live_overrides: live mode only — forwarded to
        :class:`~repro.live.LiveClusterConfig` (``duration``, ``base_port``,
        ``join_spacing``, ...).
    """
    if mode not in ("sim", "live"):
        raise ValueError(f"unknown mode {mode!r} (sim or live)")
    if mode == "live":
        if shards != 1 or jobs != 1 or seeds != 1:
            raise ValueError(
                "live mode boots one real deployment: seeds, jobs, and "
                "shards do not apply (override the config instead)")
        if obs is not None:
            live_overrides = dict(live_overrides, obs=obs)
        return _run_live(spec, live_overrides)
    if live_overrides:
        raise ValueError(
            f"unknown options for sim mode: {sorted(live_overrides)}")
    if obs is not None:
        if seeds != 1:
            raise ValueError(
                "obs= attaches per-run artifacts; run one seed at a time")
        from dataclasses import replace
        spec = replace(spec, obs=obs)
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        if seeds == 1:
            return spec.run(shards=shards)
        seed_list = [spec.seed + offset for offset in range(seeds)]
    else:
        seed_list = list(seeds)
    from .eval.runner import ScenarioRunner
    return ScenarioRunner(spec, seed_list, shards=shards, jobs=jobs).run()
