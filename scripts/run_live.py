#!/usr/bin/env python
"""Boot a live localhost deployment of a registry-compiled protocol.

The live half of the paper's evaluation story: the flags describe a
:class:`~repro.eval.scenario.ScenarioSpec` — a route, multicast,
replicated-KV, or pub/sub ``WorkloadModel`` over a library or registry
protocol — and ``repro.run(spec, mode="live")`` boots it as N OS processes
exchanging real UDP datagrams (see docs/LIVE.md): a staggered join wave,
then every node runs its slice of the spec's compiled workload, scored with
the workload model's own formulas.

``--kill INDEX:AT[:RESPAWN_AFTER]`` injects real faults: the coordinator
SIGKILLs node INDEX's process AT seconds after the cluster clock zero and
(with RESPAWN_AFTER) respawns it under the supervisor's restart-epoch
machinery.  ``--min-post-fault-success`` then gates on the ratio for ops
issued after the deployment observably recovered (the reborn node rejoined
and, on ring protocols, every successor is correct again) — the "kill a
node mid-run, recover, still route" check CI runs.

Usage::

    PYTHONPATH=src python scripts/run_live.py --nodes 8 --duration 5
    PYTHONPATH=src python scripts/run_live.py --nodes 8 --duration 12 \
        --kill 3:5.0:1.0 --min-post-fault-success 0.9

Prints one JSON document (aggregate metrics plus per-node summaries) and
exits non-zero if the workload success ratio lands below ``--min-success``,
the post-fault ratio below ``--min-post-fault-success``, any live invariant
is violated, or any node's driver swallowed callback exceptions — which is
how CI's live smoke jobs gate deployability without touching the benchmark
history (this script never writes BENCH_core.json).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.eval.library import PROTOCOLS  # noqa: E402
from repro.eval.scenario import (GroupModel, ScenarioError,  # noqa: E402
                                 ScenarioSpec, WorkloadModel)
from repro.live import KillNode, LiveClusterError  # noqa: E402

#: Spec seconds of the generated spec; the live run maps them linearly onto
#: its workload window (after the join wave and settle).
SPEC_SECONDS = 100.0
#: Spec seconds reserved for group/topic setup before multicast and pub/sub
#: traffic (pub/sub publishes start after its own subscribe stagger).
GROUP_LEAD = 20.0
#: Multicast group key of ``--workload multicast``.
MULTICAST_GROUP = 4040


def parse_kill(text: str) -> KillNode:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"--kill wants INDEX:AT[:RESPAWN_AFTER], got {text!r}")
    try:
        index = int(parts[0])
        at = float(parts[1])
        respawn = float(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--kill wants numbers in INDEX:AT[:RESPAWN_AFTER], "
            f"got {text!r}") from exc
    return KillNode(at=at, index=index, respawn_after=respawn)


def build_spec(args, packets: int) -> ScenarioSpec:
    """The scenario the flags describe: ops spread evenly over the spec."""
    name = args.protocol
    agents = PROTOCOLS.get(name) or (lambda: repro.load_stack(name))
    lead = 0.0 if args.workload in ("route", "kv") else GROUP_LEAD
    gap = (SPEC_SECONDS - lead) / (packets + 1)
    models = []
    if args.workload == "multicast":
        models.append(GroupModel(group=MULTICAST_GROUP, source=0, at=0.0,
                                 spacing=lead / 2 / args.nodes))
    models.append(WorkloadModel(
        kind=args.workload, source=0 if args.workload == "multicast" else -1,
        group=MULTICAST_GROUP, start=lead + gap, packets=packets, gap=gap,
        packet_bytes=args.payload_size, keys=args.kv_keys,
        read_fraction=args.kv_read_fraction, replicas=args.kv_replicas,
        write_quorum=args.kv_write_quorum, read_quorum=args.kv_read_quorum,
        topics=args.topics))
    return ScenarioSpec(name=f"live-{name}-{args.workload}", agents=agents,
                        num_nodes=args.nodes, duration=SPEC_SECONDS,
                        seed=args.seed, models=tuple(models))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--nodes", type=int, default=8,
                        help="number of node processes (default 8)")
    parser.add_argument("--protocol", default="chord",
                        help="library (e.g. scribe-pastry) or registry "
                             "(e.g. scribe) protocol to deploy "
                             "(default chord)")
    parser.add_argument("--workload",
                        choices=("route", "multicast", "kv", "pubsub"),
                        default="route",
                        help="measurement workload (default route)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="measurement horizon in wall seconds; the join "
                             "wave, settle, and workload all fit inside it "
                             "(default 10)")
    parser.add_argument("--packets", type=int, default=None,
                        help="total workload packets "
                             "(default: 8 per node for route, 16 multicast)")
    parser.add_argument("--payload-size", type=int, default=1000,
                        help="declared payload bytes per packet (default 1000)")
    parser.add_argument("--join-spacing", type=float, default=0.15,
                        help="seconds between successive joins (default 0.15)")
    parser.add_argument("--settle", type=float, default=1.0,
                        help="seconds between the last join and the first "
                             "workload packet (default 1.0)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for per-node RNG streams (default 1)")
    parser.add_argument("--base-port", type=int, default=47000,
                        help="first UDP port; node i binds base+i "
                             "(default 47000)")
    parser.add_argument("--fix-period", type=float, default=0.5,
                        help="chord fix-fingers period in seconds; 0 keeps "
                             "the specification default (default 0.5)")
    parser.add_argument("--startup-timeout", type=float, default=60.0,
                        help="seconds each process gets to import, compile, "
                             "and reach the start barrier (default 60)")
    parser.add_argument("--kill", type=parse_kill, action="append",
                        default=[], metavar="INDEX:AT[:RESPAWN_AFTER]",
                        help="SIGKILL node INDEX at AT seconds; with "
                             "RESPAWN_AFTER, the supervisor respawns it "
                             "that many seconds later (repeatable)")
    parser.add_argument("--restart-budget", type=int, default=3,
                        help="supervised respawns per node before it is "
                             "accounted down (default 3)")
    parser.add_argument("--kv-keys", type=int, default=64,
                        help="kv: working-set size (default 64)")
    parser.add_argument("--kv-read-fraction", type=float, default=0.7,
                        help="kv: fraction of ops that are reads (default 0.7)")
    parser.add_argument("--kv-replicas", type=int, default=3,
                        help="kv: replication factor N (default 3)")
    parser.add_argument("--kv-write-quorum", type=int, default=2,
                        help="kv: acks to complete a put (default 2)")
    parser.add_argument("--kv-read-quorum", type=int, default=2,
                        help="kv: replies to complete a get (default 2)")
    parser.add_argument("--topics", type=int, default=4,
                        help="pubsub: topic count; every node subscribes to "
                             "every topic (default 4)")
    parser.add_argument("--min-success", type=float, default=None,
                        help="exit 1 if workload success ratio is below this")
    parser.add_argument("--min-post-fault-success", type=float, default=None,
                        help="exit 1 if the post-fault success ratio is "
                             "below this (requires --kill or other faults)")
    parser.add_argument("--per-node", action="store_true",
                        help="include full per-node reports in the output")
    args = parser.parse_args(argv)

    packets = args.packets
    if packets is None:
        packets = (8 * args.nodes if args.workload in ("route", "kv")
                   else 16)
    faults = tuple(sorted(args.kill, key=lambda fault: fault.at))
    try:
        outcome = repro.run(
            build_spec(args, packets), mode="live",
            duration=args.duration, join_spacing=args.join_spacing,
            settle=args.settle, base_port=args.base_port,
            fix_period=args.fix_period or None,
            startup_timeout=args.startup_timeout, faults=faults,
            restart_budget=args.restart_budget)
    except (LiveClusterError, ScenarioError) as exc:
        # Startup diagnostics, driver callback errors, dead workers: the
        # message already names the culprit — no traceback needed.
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    from repro.eval.invariants import check_live_invariants
    violations = check_live_invariants(outcome)

    document = {
        "name": outcome.result.name,
        "nodes": args.nodes,
        "duration": args.duration,
        "packets": packets,
        "kills": [[fault.index, fault.at, fault.respawn_after]
                  for fault in faults],
        "metrics": outcome.metrics,
        "invariant_violations": [str(violation) for violation in violations],
    }
    if args.per_node:
        document["per_node"] = outcome.per_node
    else:
        document["per_node"] = [
            {key: report.get(key) for key in
             ("address", "state", "incarnation", "sent", "delivered")}
            for report in outcome.per_node
        ]
    print(json.dumps(document, indent=2))

    failed = False
    for violation in violations:
        print(f"FAILED: invariant {violation}", file=sys.stderr)
        failed = True
    if args.min_success is not None:
        # A KV workload's success ratio is its quorum success.
        success = outcome.metrics.get("workload.success_ratio",
                                      outcome.metrics.get(
                                          "workload.quorum_success"))
        if success < args.min_success:
            print(f"FAILED: workload success ratio {success:.3f} < "
                  f"required {args.min_success}", file=sys.stderr)
            failed = True
        else:
            print(f"OK: workload success ratio {success:.3f} >= "
                  f"{args.min_success}", file=sys.stderr)
    if args.min_post_fault_success is not None:
        post = outcome.metrics.get("workload.post_fault_success_ratio")
        if post is None:
            print("FAILED: no post-fault ops were scored (no faults, no "
                  "observed recovery before the run ended, or no workload "
                  "after it — lengthen --duration or kill earlier)",
                  file=sys.stderr)
            failed = True
        elif post < args.min_post_fault_success:
            print(f"FAILED: post-fault success ratio {post:.3f} < "
                  f"required {args.min_post_fault_success}", file=sys.stderr)
            failed = True
        else:
            print(f"OK: post-fault success ratio {post:.3f} >= "
                  f"{args.min_post_fault_success}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
