"""Timing harness: every batched kernel vs its object scheduler.

Since the fleet runner landed this script is a thin driver over the
committed sweep spec ``benchmarks/perf/specs/sched_zoo.json``: the
grid (one cell per registry kernel at the acceptance point N=16,
B=64), the per-cell seeds, and the recorded config shape all live in
the spec, and the same sweep can be run, resumed, and gated directly
with ``repro-an2 fleet run|gate benchmarks/perf/specs/sched_zoo.json``.

This wrapper keeps the legacy bench CLI and history contract: it runs
the sweep against a throwaway store (timing must be re-measured every
run, never resumed), prints the per-kernel table, and records one
``sched_zoo`` entry through :func:`repro.obs.store.record_result`
(snapshot ``BENCH_sched_zoo.json`` plus a history append) with the
exact per-result config keys earlier entries used, so the recorded
trajectory stays gateable across the port.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_sched_zoo.py           # full
    PYTHONPATH=src python benchmarks/perf/bench_sched_zoo.py --quick   # make bench

The object backend simulates replicas one after another, so its
slots/sec is independent of B and measured once per scheduler; the
speedup is ``fastpath_replica_slots_per_sec / object_slots_per_sec``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import tempfile

from repro.fleet import load_spec, run_sweep
from repro.obs.store import DEFAULT_HISTORY_DIR, record_result

SPEC_PATH = os.path.join(os.path.dirname(__file__), "specs", "sched_zoo.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small config for make bench (fewer slots)",
    )
    parser.add_argument(
        "--out", default="BENCH_sched_zoo.json",
        help="output JSON path (default: BENCH_sched_zoo.json)",
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
    parser.add_argument(
        "--pool", type=int, default=1,
        help="fleet worker processes (default 1: parallel cells distort "
             "each other's wall-clock timing)",
    )
    args = parser.parse_args()

    spec = load_spec(SPEC_PATH)
    if args.seed != spec.seed:
        spec = dataclasses.replace(spec, seed=args.seed)
    extra = {"slots": 100} if args.quick else {}

    with tempfile.TemporaryDirectory() as scratch:
        outcome = run_sweep(
            spec,
            os.path.join(scratch, "sched_zoo.jsonl"),
            pool=args.pool,
            extra_defaults=extra,
        )
    if not outcome.ok:
        raise SystemExit(outcome.describe())

    results = []
    for record in outcome.records:
        timing = record["timing"]
        results.append(
            {"config": record["config"], **record["metrics"], **timing}
        )
        print(
            f"{record['config']['scheduler']:<10} object "
            f"{timing['object_slots_per_sec']:>9.0f} slots/s | fastpath "
            f"{timing['slots_per_sec']:>11.0f} replica-slots/s | "
            f"{timing['speedup_vs_object']:6.1f}x"
        )

    # One greppable line of absolutes: the table's ratios hide a kernel
    # that got faster on both backends (or an object baseline that moved).
    print(
        "fastpath replica-slots/s: "
        + ", ".join(
            f"{r['config']['scheduler']} {r['slots_per_sec']:,.0f}" for r in results
        )
    )

    slots = extra.get("slots", spec.defaults["slots"])
    entry = record_result(
        spec.bench_name,
        results,
        config={
            "ports": spec.defaults["ports"],
            "replicas": spec.defaults["replicas"],
            "slots": slots,
            "load": spec.defaults["load"],
            "iterations": spec.defaults["iterations"],
            "quick": args.quick,
        },
        seed=args.seed,
        snapshot=args.out,
        history_dir=None if args.no_history else args.history,
    )
    print(f"wrote {args.out} (run {entry.run_id})")
    if not args.no_history:
        print(f"appended history entry to {args.history}/sched_zoo.jsonl")


if __name__ == "__main__":
    main()
