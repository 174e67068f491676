"""Timing harness: fast-path backend vs object backend slots/sec.

Measures simulation throughput (replica-slots per wall second, i.e.
``replicas * slots / elapsed``) for the count-based vectorized
fast-path simulator and the per-cell object model across switch sizes
N and batch sizes B.  Results are recorded through
:func:`repro.obs.store.record_result`: the human-facing
``BENCH_fastpath.json`` snapshot, plus an append to the perf-history
store (``benchmarks/perf/history/fastpath.jsonl``) that ``repro-an2
perf gate`` regresses against, both stamped with a
:class:`repro.obs.perf.RunManifest`.  A profiled run at the headline
grid point attaches its per-phase breakdown
(compile/arrivals/kernel/update) to the entry.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_fastpath.py           # full grid
    PYTHONPATH=src python benchmarks/perf/bench_fastpath.py --quick   # make bench

The object backend's slots/sec is independent of B (replicas would be
simulated one after another), so it is measured once per N and the
per-(N, B) speedup is ``fastpath_replica_slots_per_sec / object_slots_per_sec``.
"""

from __future__ import annotations

import argparse
import time

from repro.core.pim import PIMScheduler
from repro.obs.perf import PhaseTimer
from repro.obs.store import DEFAULT_HISTORY_DIR, record_result
from repro.sim.fastpath import run_fastpath
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

LOAD = 0.8
ITERATIONS = 4


def time_object_backend(ports: int, slots: int, seed: int = 0) -> float:
    """Object-backend slots per second at one switch size."""
    switch = CrossbarSwitch(ports, PIMScheduler(iterations=ITERATIONS, seed=seed))
    traffic = UniformTraffic(ports, load=LOAD, seed=seed + 1)
    start = time.perf_counter()
    switch.run(traffic, slots=slots)
    elapsed = time.perf_counter() - start
    return slots / elapsed


def time_fastpath_backend(ports: int, replicas: int, slots: int, seed: int = 0) -> float:
    """Fast-path replica-slots per second at one (N, B) point."""
    start = time.perf_counter()
    run_fastpath(
        ports, LOAD, slots, replicas=replicas, iterations=ITERATIONS, seed=seed
    )
    elapsed = time.perf_counter() - start
    return replicas * slots / elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small config for make bench (fewer grid points, fewer slots)",
    )
    parser.add_argument(
        "--out", default="BENCH_fastpath.json",
        help="output JSON path (default: BENCH_fastpath.json)",
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
        grid_n, grid_b, slots, object_slots = [16], [1, 256], 150, 150
    else:
        grid_n, grid_b, slots, object_slots = [8, 16, 32], [1, 32, 256], 300, 300

    object_baseline = {}
    for ports in grid_n:
        object_baseline[ports] = time_object_backend(ports, object_slots, args.seed)
        print(f"object   N={ports:<3}          {object_baseline[ports]:>12.0f} slots/s")

    results = []
    for ports in grid_n:
        for replicas in grid_b:
            sps = time_fastpath_backend(ports, replicas, slots, args.seed)
            speedup = sps / object_baseline[ports]
            results.append(
                {
                    "config": {
                        "backend": "fastpath",
                        "ports": ports,
                        "replicas": replicas,
                        "slots": slots,
                        "load": LOAD,
                        "iterations": ITERATIONS,
                    },
                    "slots_per_sec": sps,
                    "speedup_vs_object": speedup,
                }
            )
            print(
                f"fastpath N={ports:<3} B={replicas:<4} {sps:>12.0f} "
                f"replica-slots/s  ({speedup:.1f}x object)"
            )

    headline_n, headline_b = grid_n[-1], grid_b[-1]
    timer = PhaseTimer()
    profiled = run_fastpath(
        headline_n, LOAD, slots, replicas=headline_b,
        iterations=ITERATIONS, seed=args.seed, phase_timer=timer,
    )
    phase_report = timer.report(
        slots=headline_b * slots, cells=int(profiled.carried_cells.sum())
    )
    print(f"\nphase profile (N={headline_n}, B={headline_b}):")
    print(phase_report.render())

    entry = record_result(
        "fastpath",
        results,
        config={
            "grid_n": grid_n, "grid_b": grid_b, "slots": slots,
            "load": LOAD, "iterations": ITERATIONS, "quick": args.quick,
        },
        seed=args.seed,
        extras={
            "load": LOAD,
            "iterations": ITERATIONS,
            "object_baseline_slots_per_sec": {
                str(n): sps for n, sps in object_baseline.items()
            },
        },
        phases=phase_report.to_dict(),
        snapshot=args.out,
        history_dir=None if args.no_history else args.history,
    )
    print(f"wrote {args.out} (run {entry.run_id})")
    if not args.no_history:
        print(f"appended history entry to {args.history}/fastpath.jsonl")


if __name__ == "__main__":
    main()
