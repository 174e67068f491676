#!/usr/bin/env python3
"""Compare two result sets of the suite: ``compare.py A B``.

``A`` and ``B`` are ``--out`` directories of ``run.py`` (A the parent, B
the change), taken with the same seed.  For every workload and
end-to-end metric this prints both medians, the difference with its
base, the bound, and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is;
``unresolved``  the repetitions of one side spread wider than the bound
                and the two sides' ranges overlap, so the medians cannot
                tell a regression from noise.

The ``sim_*`` metrics are simulated time: deterministic for a seed, so
their bound here is equality, whatever ``BENCHMARK.json`` allows across
seeds.  Exit status 1 on any ``worse``, any ``sim_*`` inequality, or a
higher ``op_fail_share``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: ``setup_s`` is tens of milliseconds of real work on top of the
#: imports, so its bound never drops below this many seconds.
SETUP_FLOOR_S = 0.020


def load(directory: str) -> dict:
    return json.loads((Path(directory) / "results.json").read_text())


def verdict(name, entry, a, b, a_samples, b_samples):
    """``(verdict, allowed)`` for one metric of one workload."""
    if name.startswith("sim_"):
        return ("ok" if a == b else "worse"), 0.0
    if name == "op_fail_share":
        return ("ok" if b <= a else "worse"), 0.0
    allowed = entry["bound"] * abs(a)
    if name == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    loss = (a - b) if entry["better"] == "higher" else (b - a)
    spread = max(max(samples) - min(samples) for samples in (a_samples, b_samples))
    overlap = min(a_samples) <= max(b_samples) and min(b_samples) <= max(a_samples)
    if spread > allowed and overlap:
        return "unresolved", allowed
    return ("worse" if loss > allowed else "ok"), allowed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="--out directory of the parent's run")
    parser.add_argument("b", metavar="B", help="--out directory of the change's run")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = {m["name"]: m for m in benchmark["end_to_end"]}
    catalogue["op_fail_share"] = {"unit": "ratio", "better": "lower", "bound": 0.0}
    catalogue["sim_p99_fct_slots"] = {"unit": "slots", "better": "lower", "bound": 0.0}

    first, second = load(args.a), load(args.b)
    if first["manifest"]["seed"] != second["manifest"]["seed"]:
        sys.exit(
            f"seeds differ ({first['manifest']['seed']} vs "
            f"{second['manifest']['seed']}): sim_* metrics only compare at one seed"
        )
    host_a = first["host"].get("host.calib_ns_per_elem")
    host_b = second["host"].get("host.calib_ns_per_elem")
    print(f"A {args.a}: git {first['manifest']['git_sha'][:12]}, host calibration {host_a} ns/elem")
    print(f"B {args.b}: git {second['manifest']['git_sha'][:12]}, host calibration {host_b} ns/elem")

    bad = 0
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            print(f"\n{workload}: missing from B")
            bad += 1
            continue
        run_a = first["workloads"][workload]["untraced"]
        run_b = second["workloads"][workload]["untraced"]
        print(f"\n{workload}")
        for name, entry in catalogue.items():
            if name not in run_a["metrics"]:
                continue
            a, b = run_a["metrics"][name], run_b["metrics"][name]
            result, allowed = verdict(
                name, entry, a, b,
                run_a["samples"].get(name, [a]), run_b["samples"].get(name, [b]),
            )
            bad += result == "worse"
            relative = f"{(b - a) / a:+.2%} of A" if a else "A is 0"
            print(
                f"  {name:<22} A {a:>14,.6g}  B {b:>14,.6g}  "
                f"B-A {b - a:>+12.4g} {entry['unit']} ({relative} = {a:,.6g})  "
                f"bound {entry['bound']:.0%} of A = {allowed:.4g}  {result}"
            )
    print(f"\n{bad} metric(s) worse" if bad else "\nno metric worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
