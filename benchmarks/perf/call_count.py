"""One-operation call count of a suite workload, under cProfile.

A count, not a timing: it repeats exactly from run to run, so it can
say "the same work per slot" where paired wall clocks on a noisy box
cannot.  One warm-up operation, then one operation under ``cProfile``;
calls are grouped by where the callee lives:

- **NumPy/builtin** -- C-level callees (builtins and NumPy's C
  functions, ``cProfile`` file ``~``) plus the Python functions inside
  the numpy package (its dispatch wrappers);
- **repro** -- Python functions of this repository;
- **other** -- the rest (stdlib).

Run from a checkout's root (compare two checkouts by running it in each)::

    PYTHONPATH=src:benchmarks/suite python benchmarks/perf/call_count.py \\
        xbar-uniform-n16 cbr-integrated-n16 stat-matching-n16 [--seed 0]
"""

from __future__ import annotations

import argparse
import cProfile

from harness import Tracer
from workloads import build_workload


def count_calls(name: str, seed: int) -> dict:
    """Call counts of one operation of workload ``name``, by callee group."""
    workload = build_workload(name)
    workload.setup(seed, Tracer(name))
    workload.operate()  # warm-up: imports, caches
    profile = cProfile.Profile()
    profile.enable()
    workload.operate()
    profile.disable()
    groups = {"c": 0, "numpy_py": 0, "repro": 0, "other": 0, "reduce": 0}
    # Raw entries, not pstats: pstats keys by (file, line, name) and so
    # merges every dataclass-generated ``<string>:2(__init__)`` into one.
    for entry in profile.getstats():
        code, calls = entry.code, entry.callcount
        if isinstance(code, str):  # a C-level callee, named by its repr
            groups["c"] += calls
            if "reduce" in code:
                groups["reduce"] += calls
        elif "/numpy/" in code.co_filename:
            groups["numpy_py"] += calls
        elif "/repro/" in code.co_filename:
            groups["repro"] += calls
        else:
            groups["other"] += calls
    return groups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name in args.workloads:
        g = count_calls(name, args.seed)
        print(
            f"{name}: NumPy/builtin {g['c'] + g['numpy_py']} "
            f"(C level {g['c']}, numpy wrappers {g['numpy_py']}, "
            f"ufunc.reduce {g['reduce']}); repro {g['repro']}; other {g['other']}"
        )


if __name__ == "__main__":
    main()
