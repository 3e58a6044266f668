#!/usr/bin/env python3
"""Deploy the bundled Chord specification over real sockets on localhost.

The same registry-compiled agent that examples/chord_dht.py runs in
simulation is booted here as 8 OS processes exchanging real UDP datagrams:
a staggered join wave builds the ring, then every node runs its slice of
the scenario's lookup workload — the very ops a simulated run of the spec
issues — and the harness scores the per-process records with the workload
model's own formulas.

Run with:  python examples/live_chord.py
"""

from __future__ import annotations

import repro
from repro.eval import ScenarioSpec, WorkloadModel
from repro.protocols import chord_agent

NUM_NODES = 8
LOOKUPS = 5 * NUM_NODES


def main() -> None:
    # 60 spec seconds: live mode maps them onto the wall-clock window after
    # the join wave, so the lookups spread over the whole run.
    spec = ScenarioSpec(
        name="live-chord", agents=lambda: [chord_agent()],
        num_nodes=NUM_NODES, duration=60.0, seed=1,
        models=(WorkloadModel(kind="route", source=-1, start=1.0,
                              packets=LOOKUPS, gap=58.0 / LOOKUPS),),
    )
    print(f"booting {NUM_NODES} chord processes on "
          f"127.0.0.1:47300-{47300 + NUM_NODES - 1} …")
    outcome = repro.run(
        spec, mode="live",
        duration=6.0,          # join wave + settle + lookup window, in wall s
        join_spacing=0.2,
        fix_period=0.5,        # fast fix-fingers, as in the Figure-10 demo
        base_port=47300,
    )

    metrics = outcome.metrics
    print("\nper node (address / FSM state / lookups sent / delivered-here):")
    for report in outcome.per_node:
        print(f"  node {report['address']:>2}  {report['state']:<8} "
              f"sent={report['sent']:<3} delivered={report['delivered']:<3} "
              f"wire={report['socket']['bytes_sent']}B out")

    print(f"\nlookup success ratio : "
          f"{metrics['workload.success_ratio']:.3f} "
          f"({metrics['workload.deliveries']:.0f}/"
          f"{metrics['workload.sent']:.0f})")
    print(f"lookup latency       : mean "
          f"{metrics['workload.latency_mean'] * 1000:.2f} ms, p95 "
          f"{metrics['workload.latency_p95'] * 1000:.2f} ms (wall clock)")
    print(f"ring convergence     : "
          f"{metrics['ring.correct_successor_fraction']:.2f} "
          f"of successor pointers globally correct")
    print(f"transport traffic    : "
          f"{metrics['transport.messages_sent']:.0f} protocol messages, "
          f"{metrics['transport.retransmissions']:.0f} retransmissions")


if __name__ == "__main__":
    main()
