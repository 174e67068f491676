#!/usr/bin/env python3
"""One command for the simulator's speed: run, verify, print every metric.

Two ways in, one measurement path.

*The whole suite* (what a person types, from the repository root)::

    PYTHONPATH=src python benchmarks/suite/run.py --seed 0 [--workload NAME ...] [--out DIR]

runs every workload twice, each time in a fresh process: once untraced
for the end-to-end metrics and once traced for the per-layer ones;
prints both tables and writes ``results.json`` and ``trace.json`` under
``--out``.  Exit status 1 if any operation failed.

*One run* (what the suite itself and the benchmark driver call)::

    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``)
under the names and units of ``BENCHMARK.json``.

Protocol of an untraced run: build the inputs; one discarded warm-up
repetition; then repetitions of the same seeded operation, each after
``gc.collect()`` + ``gc.freeze()``, until ``--seconds`` of wall are
measured (at least three); every time-based metric is the median over
the repetitions.  Set-up is then timed in five further fresh processes
(interpreter already up, ``import`` to inputs built) and last of all the
workload's oracle runs: verification sits outside every timed region.
An operation *fails* if it raises, if its digest differs from the other
repetitions (at seed 0: from ``golden.json``), or if the oracle diverges.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the suite measures that package")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (first: pins the BLAS/OpenMP pools before NumPy)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
GOLDEN = json.loads((SUITE_DIR / "golden.json").read_text())
SETUP_PROBES = 5
#: Reported in the suite's own tables beside the contract's metrics:
#: ``op_fail_share`` is 0 on a healthy tree, which BENCHMARK.json cannot
#: bound as a share of itself (there it is ``failed / attempted``), and
#: ``sim_p99_fct_slots`` exists on one workload only.
SUITE_ONLY = {
    "op_fail_share": {"unit": "ratio", "better": "lower"},
    "sim_p99_fct_slots": {"unit": "slots", "better": "lower"},
}


@contextlib.contextmanager
def scratch_directory():
    """A directory of this process's own inside the checkout, gone on exit."""
    path = SUITE_DIR / ".work" / str(os.getpid())
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            path.parent.rmdir()


def checked(call, failures: list, what: str):
    """``call()``; a raise becomes one recorded failure and ``None``."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- a diverging oracle is a data point
        failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def setup_probe(name: str, seed: int) -> None:
    """Child of :func:`setup_seconds`: build the inputs, print the time
    from this process's first statement (imports included) to done."""
    with scratch_directory() as scratch:
        workload = workloads.build_workload(name, workdir=scratch)
        workload.setup(seed, harness.Tracer(name))
        print(repr(time.perf_counter() - _PROCESS_START))


def setup_seconds(name: str, seed: int) -> list:
    """Set-up time in :data:`SETUP_PROBES` fresh processes, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """The untraced run of one workload: its end-to-end metrics."""
    with scratch_directory() as scratch:
        workload = workloads.build_workload(name, scale, scratch)
        workload.setup(seed, harness.Tracer(name))
        walls, outcomes, raised = harness.timed_repetitions(
            workload.operate, workload.outcome, seconds
        )
        peak_rss = workload.peak_rss_mb()
        setups = setup_seconds(name, seed)

        failures = [f"repetition raised ({raised} of {len(walls) + raised})"] * raised
        first = outcomes[0]
        # The pinned digest where one applies, else the first repetition's.
        pinned = seed == GOLDEN["seed"] and scale == 1.0
        expected = GOLDEN["digests"][name] if pinned else first.digest
        for index, outcome in enumerate(outcomes):
            if outcome.digest != expected:
                failures.append(
                    f"repetition {index}: digest {outcome.digest[:16]} != {expected[:16]}"
                )
        checked(workload.verify, failures, "verify")
        attempted = len(walls) + raised + 1

        samples = {
            "wall_s": walls,
            "replica_slots_per_s": [first.replica_slots / wall for wall in walls],
            "cells_per_s": [first.cells / wall for wall in walls],
            "setup_s": setups,
        }
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        metrics["peak_rss_mb"] = peak_rss
        metrics["op_fail_share"] = len(failures) / attempted
        metrics.update(first.sim)
        return {
            "workload": name,
            "seed": seed,
            "metrics": metrics,
            "samples": samples,
            "digest": first.digest,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
        }


def trace(name: str, seed: int, scale: float = 1.0) -> dict:
    """The traced run of one workload: its per-layer metrics and spans."""
    with scratch_directory() as scratch:
        workload = workloads.build_workload(name, scale, scratch)
        tracer = harness.Tracer(name)
        failures: list = []
        begin = time.perf_counter()
        with tracer.span(name):
            workload.setup(seed, tracer)
            with tracer.span("obs.reference"):
                walls, _, raised = harness.timed_repetitions(
                    workload.operate, lambda result: None, seconds=0.0
                )
                reference = statistics.median(walls)
            metrics = workload.trace(tracer, reference)
            metrics["obs.trace_overhead_s"] = tracer.total("operation") - reference
            with tracer.span("check.verify"):
                metrics.update(
                    checked(lambda: workload.verify(tracer), failures, "verify") or {}
                )
            with tracer.span("host.calibration"):
                metrics["host.calib_ns_per_elem"] = harness.host_calibration()
        wall = time.perf_counter() - begin
        metrics["host.nproc"] = os.cpu_count()
        metrics["check.verify_s"] = tracer.total("check.verify")
        metrics["obs.trace_coverage"] = tracer.coverage(wall)
        return {
            "workload": name,
            "seed": seed,
            "metrics": metrics,
            "traced_wall_s": wall,
            "reference_wall_s": reference,
            "spans": tracer.dump(),
            "attempted": len(walls) + raised + 2,  # + traced operation, verify
            "failed": len(failures) + raised,
            "failures": failures,
        }


def contract_line(result: dict, catalogue: dict) -> str:
    """The driver's result object: every metric of ``catalogue``, no other.

    A layer the workload bypasses reads 0: no time was spent there.
    """
    unknown = set(result["metrics"]) - set(catalogue) - set(SUITE_ONLY)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"].get(name, 0), "unit": entry["unit"]}
                for name, entry in catalogue.items()
            },
        }
    )


def describe(result: dict, catalogue: dict) -> str:
    """Every metric of one run by name, with unit and, where the metric
    was sampled, min/max/n beside the median."""
    lines = [f"{result['workload']}  seed={result['seed']}"]
    units = {name: entry["unit"] for name, entry in {**catalogue, **SUITE_ONLY}.items()}
    for name, value in result["metrics"].items():
        unit = units[name]
        text = f"  {name:<34} {value:>16,.6g} {unit}"
        values = result.get("samples", {}).get(name)
        if values and len(values) > 1:
            text += f"   [min {min(values):,.6g}  max {max(values):,.6g}  n={len(values)}]"
        lines.append(text)
    lines += [f"  FAILED {failure}" for failure in result["failures"]]
    return "\n".join(lines)


def run_one(args: argparse.Namespace) -> int:
    """One workload, one mode, in this process."""
    (name,) = args.workload
    if args.setup_probe:
        setup_probe(name, args.seed)
        return 0
    if args.trace:
        result, catalogue = trace(name, args.seed), PER_LAYER
    else:
        result, catalogue = measure(name, args.seed, args.seconds), END_TO_END
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(describe(result, catalogue))
    print(contract_line(result, catalogue))
    return 0


def run_suite(args: argparse.Namespace) -> int:
    """Every selected workload, untraced then traced, each in a fresh process."""
    from repro.obs.perf import RunManifest

    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "manifest": RunManifest.collect(
            seed=args.seed, config={"run_seconds": args.seconds, "workloads": names}
        ).to_dict(),
        "host": {},
        "workloads": {},
    }
    spans = []
    failed = 0
    for name in names:
        entry = {}
        for mode, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
            detail = out / f".{name}.{mode}.json"
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(mode),
                 "--detail", str(detail)],
                stdout=subprocess.DEVNULL, check=True,
            )
            result = json.loads(detail.read_text())
            detail.unlink()
            print(describe(result, catalogue), flush=True)
            failed += result["failed"]
            spans += result.pop("spans", [])
            entry["traced" if mode else "untraced"] = result
        layers = entry["traced"]["metrics"]
        results["host"] = {k: v for k, v in layers.items() if k.startswith("host.")}
        results["workloads"][name] = entry
    (out / "results.json").write_text(json.dumps(results, indent=1))
    (out / "trace.json").write_text(json.dumps(spans))
    print(f"\nwrote {out / 'results.json'} and {out / 'trace.json'}; "
          f"{failed} failed operation(s)")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=[w["name"] for w in BENCHMARK["workloads"]],
                        help="workload to run (repeatable; default: all eight)")
    parser.add_argument("--seed", type=int, default=0,
                        help="every input derives from it (default 0, the pinned one)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="wall to measure per untraced run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE workload in this process, untraced (0) or "
                             "traced (1); without it the whole suite runs")
    parser.add_argument("--out", default=str(SUITE_DIR / "out"), metavar="DIR",
                        help="suite mode: where results.json and trace.json go")
    parser.add_argument("--detail", metavar="PATH", default=None,
                        help="one-run mode: also write samples/spans as JSON here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.trace is None and not args.setup_probe:
        return run_suite(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace takes exactly one --workload")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
