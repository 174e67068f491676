"""Shared helpers for the benchmark harness.

Every file in ``benchmarks/`` regenerates one table or figure from the
paper.  Run them with::

    pytest benchmarks/ --benchmark-only

Each bench prints the regenerated rows/series (compare against the
paper, see EXPERIMENTS.md) and asserts the qualitative shape.  Set
``REPRO_FULL=1`` in the environment to use paper-scale sample sizes
(slower, tighter statistics).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.fifo import FIFOScheduler
from repro.core.output_queueing import OutputQueuedSwitch
from repro.core.pim import PIMScheduler
from repro.switch.switch import CrossbarSwitch, FIFOSwitch
from repro.traffic.trace import TraceRecorder

#: Paper-scale statistics when REPRO_FULL=1.
FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Simulation length per load point (slots).
SLOTS = 60_000 if FULL else 12_000
WARMUP = 6_000 if FULL else 1_500

#: The paper's switch size.
PORTS = 16


def trace_probe(tag: str, stride: int = 1):
    """Opt-in telemetry for the benches via the ``REPRO_TRACE`` env var.

    When ``REPRO_TRACE`` names a directory, returns a live
    :class:`repro.obs.probe.Probe` writing JSONL events to
    ``$REPRO_TRACE/<tag>.jsonl`` (the directory is created if needed),
    so a figure/table can be regenerated afterwards straight from its
    trace file with ``repro-an2 trace summarize``.  When unset (the
    default), returns the shared disabled probe -- the benches pay one
    attribute check per emission site and write nothing.

    Callers must ``probe.close()`` when done so the file is flushed.
    """
    from repro.obs import JSONLSink, Probe
    from repro.obs.probe import NULL_PROBE

    directory = os.environ.get("REPRO_TRACE", "")
    if not directory:
        return NULL_PROBE
    os.makedirs(directory, exist_ok=True)
    return Probe(JSONLSink(os.path.join(directory, f"{tag}.jsonl")), stride=stride)


def delay_vs_load(
    loads: Sequence[float],
    traffic_factory: Callable[[float, int], object],
    switch_factories: Dict[str, Callable[[], object]],
    slots: int = None,
    warmup: int = None,
) -> Dict[str, List[Tuple[float, float, float]]]:
    """Sweep offered load; run every switch on identical arrivals.

    Returns ``{name: [(load, mean_delay_slots, carried_per_link)]}``.
    Uses trace record/replay so all switches see byte-identical
    arrivals at each load point (common random numbers).
    """
    slots = slots if slots is not None else SLOTS
    warmup = warmup if warmup is not None else WARMUP
    curves: Dict[str, List[Tuple[float, float, float]]] = {
        name: [] for name in switch_factories
    }
    for index, load in enumerate(loads):
        recorder = TraceRecorder(traffic_factory(load, index))
        first = True
        for name, factory in switch_factories.items():
            traffic = recorder if first else recorder.replay()
            first = False
            result = factory().run(traffic, slots=slots, warmup=warmup)
            curves[name].append((load, result.mean_delay, result.throughput))
    return curves


def standard_switches(ports: int = PORTS) -> Dict[str, Callable[[], object]]:
    """The three Figure 3 algorithms."""
    return {
        "fifo": lambda: FIFOSwitch(ports, FIFOScheduler(policy="random", seed=0)),
        "pim4": lambda: CrossbarSwitch(ports, PIMScheduler(iterations=4, seed=0)),
        "output_queueing": lambda: OutputQueuedSwitch(ports),
    }


def print_curves(
    title: str,
    curves: Dict[str, List[Tuple[float, float, float]]],
    paper_note: str = "",
) -> None:
    """Print delay-vs-load series in the paper's figure format."""
    print(f"\n=== {title} ===")
    if paper_note:
        print(f"    paper: {paper_note}")
    names = list(curves)
    header = "load      " + "".join(f"{name:>22}" for name in names)
    print(header)
    print("          " + "   mean-delay  carried" * 0)
    loads = [point[0] for point in curves[names[0]]]
    for row, load in enumerate(loads):
        line = f"{load:5.2f}  "
        for name in names:
            _, delay, carried = curves[name][row]
            delay_text = f"{delay:9.2f}" if delay < 1e5 else "      sat"
            line += f"{delay_text} ({carried:4.2f})   "
        print(line)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Print a simple aligned table."""
    print(f"\n=== {title} ===")
    print("  ".join(f"{h:>14}" for h in headers))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:14.4f}")
            else:
                cells.append(f"{str(value):>14}")
        print("  ".join(cells))
