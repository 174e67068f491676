"""Timing harness: whole-fabric network fast path vs object backend.

Measures simulation throughput (replica-slots per wall second) for the
batched multi-switch simulator
(:func:`repro.sim.fastpath_network.run_fastpath_network`) against the
per-cell :class:`repro.network.netsim.NetworkSimulator` on the bench
fabric -- a 4x4 mesh of 8-port switches (16 switches, 16 hosts)
carrying 16 routed host-to-host flows.  Results are recorded through
:func:`repro.obs.store.record_result`: the
``BENCH_network_fastpath.json`` snapshot plus a manifest-stamped
append to ``benchmarks/perf/history/network_fastpath.jsonl``, with a
per-phase breakdown (compile/delivery/arrivals/kernel/update) from a
profiled run at the headline batch size.

The headline acceptance number is asserted, not just recorded: on the
16-switch mesh with B >= 64 replicas the fast path must be at least 3x
faster than the object model per replica-slot (the recorded numbers
land far beyond that -- the object model re-walks every VOQ deque and
runs one scalar PIM instance per switch per slot, while the fast path
issues one batched scheduler call per turn of switches across all
replicas).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_network_fastpath.py           # full grid
    PYTHONPATH=src python benchmarks/perf/bench_network_fastpath.py --quick   # make network-bench
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.network.netsim import FlowSpec, NetworkSimulator
from repro.network.topologies import mesh
from repro.obs.perf import PhaseTimer
from repro.obs.store import DEFAULT_HISTORY_DIR, record_result
from repro.sim.fastpath_network import run_fastpath_network
from repro.sim.rng import derive_seed

ROWS, COLS, SWITCH_PORTS = 4, 4, 8
N_FLOWS = 16
RATES = (1.0, 0.6)
SPEEDUP_FLOOR = 3.0  # asserted on the 16-switch mesh, B>=64


def build_fabric(seed: int = 0):
    """The bench mesh plus its deterministic random flow set."""
    topo, hosts = mesh(ROWS, COLS, switch_ports=SWITCH_PORTS)
    rng = np.random.default_rng(derive_seed(seed, "bench/network-flows"))
    flows = []
    for flow_id in range(1, N_FLOWS + 1):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        flows.append(
            FlowSpec(flow_id, hosts[src], hosts[dst], RATES[flow_id % len(RATES)])
        )
    return topo, flows


def time_object_backend(topo, flows, slots: int, seed: int = 0) -> float:
    """Object-backend slots per second on the bench fabric."""
    sim = NetworkSimulator(topo, seed=seed)
    for flow in flows:
        sim.add_flow(flow)
    start = time.perf_counter()
    sim.run(slots)
    elapsed = time.perf_counter() - start
    return slots / elapsed


def time_fastpath_backend(topo, flows, replicas: int, slots: int, seed: int = 0) -> float:
    """Fast-path replica-slots per second at one batch size."""
    start = time.perf_counter()
    run_fastpath_network(topo, flows, slots, replicas=replicas, seed=seed)
    elapsed = time.perf_counter() - start
    return replicas * slots / elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small config for make network-bench (fewer batch sizes, fewer slots)",
    )
    parser.add_argument(
        "--out", default="BENCH_network_fastpath.json",
        help="output JSON path (default: BENCH_network_fastpath.json)",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY_DIR, metavar="DIR",
        help="perf-history root to append to "
             "(default: benchmarks/perf/history)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="write the snapshot only; skip the history append",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.quick:
        grid_b, slots, object_slots = [1, 128], 200, 150
    else:
        grid_b, slots, object_slots = [1, 32, 128, 256], 400, 300

    topo, flows = build_fabric(args.seed)
    n_switches = len(topo.switches())
    print(
        f"fabric: {ROWS}x{COLS} mesh ({n_switches} switches x "
        f"{SWITCH_PORTS} ports), {len(flows)} flows"
    )
    object_baseline = time_object_backend(topo, flows, object_slots, args.seed)
    print(f"object            {object_baseline:>12.0f} slots/s")

    results = []
    floor_checked = False
    for replicas in grid_b:
        sps = time_fastpath_backend(topo, flows, replicas, slots, args.seed)
        speedup = sps / object_baseline
        results.append(
            {
                "config": {
                    "backend": "network-fastpath",
                    "switches": n_switches,
                    "switch_ports": SWITCH_PORTS,
                    "flows": len(flows),
                    "replicas": replicas,
                    "slots": slots,
                },
                "slots_per_sec": sps,
                "speedup_vs_object": speedup,
            }
        )
        print(
            f"fastpath B={replicas:<4} {sps:>12.0f} replica-slots/s  "
            f"({speedup:.1f}x object)"
        )
        if replicas >= 64 and not floor_checked:
            floor_checked = True
            assert speedup >= SPEEDUP_FLOOR, (
                f"network fastpath speedup {speedup:.2f}x on the "
                f"{n_switches}-switch mesh at B={replicas} below the "
                f"{SPEEDUP_FLOOR}x floor"
            )
            print(
                f"  speedup floor: {speedup:.1f}x >= {SPEEDUP_FLOOR}x "
                f"at {n_switches} switches, B={replicas}  OK"
            )
    assert floor_checked, "grid did not include the B>=64 floor point"

    headline_b = grid_b[-1]
    timer = PhaseTimer()
    profiled = run_fastpath_network(
        topo, flows, slots, replicas=headline_b, seed=args.seed,
        phase_timer=timer,
    )
    phase_report = timer.report(
        slots=headline_b * slots, cells=int(profiled.delivered.sum())
    )
    print(f"\nphase profile (B={headline_b}):")
    print(phase_report.render())

    entry = record_result(
        "network_fastpath",
        results,
        config={
            "rows": ROWS, "cols": COLS, "switch_ports": SWITCH_PORTS,
            "flows": len(flows), "grid_b": grid_b, "slots": slots,
            "quick": args.quick,
        },
        seed=args.seed,
        extras={
            "fabric": {
                "rows": ROWS,
                "cols": COLS,
                "switch_ports": SWITCH_PORTS,
                "switches": n_switches,
                "flows": len(flows),
            },
            "speedup_floor": SPEEDUP_FLOOR,
            "object_baseline_slots_per_sec": object_baseline,
        },
        phases=phase_report.to_dict(),
        snapshot=args.out,
        history_dir=None if args.no_history else args.history,
    )
    print(f"wrote {args.out} (run {entry.run_id})")
    if not args.no_history:
        print(f"appended history entry to {args.history}/network_fastpath.jsonl")


if __name__ == "__main__":
    main()
