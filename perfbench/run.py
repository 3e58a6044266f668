#!/usr/bin/env python3
"""Time-to-solution benchmark of the overlay simulator.

Runs one named sim-mode workload through ``repro.run`` for a fixed spec,
checks its outputs, and prints every metric by name and unit; the last
line of standard output is one JSON object::

    python3 perfbench/run.py --workload chord-lookup --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics (host time of ``repro.run``,
set-up time, peak memory, operations attempted).  ``--trace 1`` alternates
untraced runs with runs whose layer entry points are wrapped in spans and
reports the per-layer metrics instead.  Host times are scaled to a
reference host speed (see host.py).  Everything runs in this one process;
see README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import repro  # noqa: E402
from repro.codegen import registry as codegen_registry  # noqa: E402
from repro.eval.library import resolve_protocol  # noqa: E402

import host  # noqa: E402
from layers import (LAYER_METRICS, SpanRecorder, attribute,  # noqa: E402
                    layer_metrics, reconcile, traced)
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS,  # noqa: E402
                       Outcome, Workload, outcome)
from workloads import check as check_outputs  # noqa: E402

#: End-to-end metrics (tracing off) and their units, in output order.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_attempted": "count",
}

#: Per-layer metrics (the traced run) and their units, in output order.
PER_LAYER = {
    **LAYER_METRICS,
    "setup.compile_s": "s",
    "setup.build_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.kernel_s": "s",
    "ops_failed": "count",
    "sim_latency_mean_s": "sim_s",
    "sim_latency_p95_s": "sim_s",
}

#: Units of the host times, which are scaled and reported as medians.
TIME_UNITS = ("s", "us")
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 5
#: Fewest untraced runs a --trace 0 run times, however short --seconds is.
MIN_RUNS = 3


def repeat(seconds: float, minimum: int, step) -> None:
    """Call *step* at least *minimum* times, then while another call fits.

    A call fits when the longest call so far would still end within
    *seconds* of the first, so the measurement overruns *seconds* only to
    reach *minimum*.
    """
    start = time.perf_counter()
    longest, calls = 0.0, 0
    while calls < minimum or \
            time.perf_counter() + longest - start <= seconds:
        began = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - began)
        calls += 1


@dataclass
class Ledger:
    """Runs attempted in this process and the problems they showed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


def measure_setup(workload: Workload, spec, timer: host.Timer) -> dict:
    """Median protocol compile and ``spec.build()`` times, cold each time.

    The shared protocol registry caches compiled agent classes, so it is
    dropped before every repetition: each one compiles the protocol's
    ``.mac`` specifications as a first use in a fresh process would.
    """
    def set_up() -> tuple:
        codegen_registry._default_registry = None
        start = time.perf_counter()
        resolve_protocol(workload.protocol)()
        compiled = time.perf_counter()
        spec.build()
        return compiled - start, time.perf_counter() - compiled

    compile_s, build_s = [], []
    for _ in range(SETUP_REPS):
        (compiling, building), sample = timer.call(set_up)
        compile_s.append(compiling * sample.scale)
        build_s.append(building * sample.scale)
    return {"setup_s": statistics.median(map(sum, zip(compile_s, build_s))),
            "setup.compile_s": statistics.median(compile_s),
            "setup.build_s": statistics.median(build_s)}


class Bench:
    """One workload at one workload seed, measured in this process."""

    def __init__(self, workload: Workload, seed: int, scratch: str) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = workload.spec(seed, scratch)
        self.timer = host.Timer()
        self.ledger = Ledger()
        #: repr of the first run's metrics; every later run must match it.
        self.reference: Optional[str] = None
        #: Every timed call, printed for inspection.
        self.samples: dict = {}
        #: The workload's outcome; every run must repeat it exactly.
        self.outcome: Optional[Outcome] = None

    def checked(self, label: str, result, extra: tuple = ()) -> None:
        problems = check_outputs(self.workload, result) + list(extra)
        fingerprint = repr(result.metrics)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            problems.append("result.metrics differ from the first run of "
                            "the same spec and seed")
        self.ledger.record(label, problems)

    def baseline(self) -> Optional[host.Sample]:
        """For the obs workload: run its spec with obs off, as reference.

        Observability must not change the simulation, so the obs-off run's
        metrics become the reference every obs-on run is compared with.
        Returns that run's host time (``None`` for other workloads).
        """
        if self.workload.obs_of is None:
            return None
        plain = WORKLOADS[self.workload.obs_of]
        result, sample = self.timer.call(repro.run, plain.spec(self.seed))
        self.reference = repr(result.metrics)
        self.ledger.record(f"{plain.name} (obs off)",
                           check_outputs(plain, result))
        return sample

    def untraced(self, runs: list, label: str = "run") -> None:
        """Time one ``repro.run`` of the spec and append it to *runs*."""
        result, sample = self.timer.call(repro.run, self.spec)
        self.checked(f"{label} {len(runs) + 1}", result)
        runs.append(sample)
        if self.outcome is None:
            self.outcome = outcome(self.workload, result.metrics)

    def end_to_end(self, seconds: float, setup: dict) -> dict:
        self.baseline()
        runs: list = []
        repeat(seconds, MIN_RUNS, lambda: self.untraced(runs))
        self.samples = {"untraced": runs}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": statistics.median(run.wall_s for run in runs),
            "cpu_s": statistics.median(run.cpu_s for run in runs),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": peak_kib / 1024.0,
            "ops_attempted": self.outcome.attempted,
        }

    def per_layer(self, seconds: float, setup: dict) -> dict:
        obs_off = self.baseline()
        runs, traced_runs, layer_samples = [], [], []

        def pair() -> None:
            self.untraced(runs, "untraced run")
            recorder = SpanRecorder()
            with traced(recorder):
                result, sample = self.timer.call(repro.run, self.spec)
            attribution = attribute(recorder.spans)
            measured = layer_metrics(attribution, recorder, result)
            sent = (int(result.metrics["workload.sent"])
                    if self.workload.kind in ("kv", "pubsub") else None)
            self.checked(f"traced run {len(traced_runs) + 1}", result, tuple(
                f"reconciliation: {problem}"
                for problem in reconcile(measured, recorder, result, sent)))
            measured["trace.unattributed_s"] = (
                sample.wall - attribution.covered_s + attribution.hook_s)
            for name, value in measured.items():
                if PER_LAYER[name] in TIME_UNITS:
                    measured[name] = value * sample.scale
            layer_samples.append(measured)
            traced_runs.append(sample)

        repeat(seconds, 1, pair)
        # Host times vary between repetitions; counts repeat exactly.
        metrics = {name: (statistics.median(sample[name]
                                            for sample in layer_samples)
                          if PER_LAYER[name] in TIME_UNITS
                          else layer_samples[0][name])
                   for name in layer_samples[0]}
        untraced = statistics.median(run.wall_s for run in runs)
        metrics.update({
            "engine.events_per_wall_s": metrics["engine.events"] / untraced,
            "obs.overhead_ratio": (untraced / obs_off.wall_s
                                   if obs_off else 1.0),
            "setup.compile_s": setup["setup.compile_s"],
            "setup.build_s": setup["setup.build_s"],
            "trace.overhead_ratio": statistics.median(
                run.wall_s for run in traced_runs) / untraced,
            "trace.kernel_s": statistics.median(
                run.kernel_s for run in runs + traced_runs),
            "ops_failed": self.outcome.failed,
            "sim_latency_mean_s": self.outcome.latency_mean,
            "sim_latency_p95_s": self.outcome.latency_p95,
        })
        self.samples = {"untraced": runs, "traced": traced_runs}
        return {name: metrics[name] for name in PER_LAYER}


def parse_args(argv: Optional[list]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default %(default)s; a "
                        f"claimed gain is confirmed on {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()[0]
    workload = WORKLOADS[args.workload]
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        bench = Bench(workload, args.seed, scratch)
        try:
            setup = measure_setup(workload, bench.spec, bench.timer)
            measure = bench.per_layer if args.trace else bench.end_to_end
            metrics = measure(args.seconds, setup)
            units = PER_LAYER if args.trace else END_TO_END
        except Exception:  # the run's failure is the result being reported
            traceback.print_exc()
            bench.ledger.record("run", ["raised (traceback on stderr)"])
            metrics, units = {}, {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ledger = bench.ledger
    correct = not ledger.problems
    provenance = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "cpu_model": host.cpu_model(), "nproc": os.cpu_count(),
        "load_1m_before": load_before, "load_1m_after": os.getloadavg()[0],
        "python": platform.python_version(), "git_rev": host.git_rev(ROOT),
        "src_sha256": host.source_digest(SRC),
    }
    print("perfbench provenance " + json.dumps(provenance, sort_keys=True))
    for problem in ledger.problems:
        print(f"perfbench FAILED {problem}")
    if correct:
        print("perfbench outcome "
              + json.dumps(asdict(bench.outcome)))
        for kind, samples in bench.samples.items():
            print(f"perfbench {kind} runs (wall_s, cpu_s, raw wall s, "
                  f"kernel s): " + json.dumps([
                      [run.wall_s, run.cpu_s, run.wall, run.kernel_s]
                      for run in samples]))
        for name, value in metrics.items():
            print(f"perfbench {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": ({name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()} if correct else {}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
