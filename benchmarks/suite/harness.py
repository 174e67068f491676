"""Measurement plumbing of the suite: spans, repetitions, digests, host probe.

Nothing here knows a workload.  Importing this module pins the BLAS /
OpenMP thread pools to one thread *before* NumPy loads, so every entry
point (``run.py``, ``test_suite.py``) imports it first.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Any, Callable, Dict, Iterable, List, Tuple  # noqa: E402

import numpy as np  # noqa: E402

__all__ = [
    "Tracer",
    "digest",
    "host_calibration",
    "peak_rss_mb",
    "quiesce",
    "timed_repetitions",
]


class _OpenSpan:
    """Context manager of one live span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> int:
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        index = len(tracer.spans)
        stack.append(index)
        # The clock is read last on entry and first on exit, so the
        # recorder's own bookkeeping lands in the parent, not the span.
        tracer.spans.append([self._name, parent, tracer._clock(), 0.0, 1, False])
        return index

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        now = tracer._clock()
        tracer.spans[tracer._stack.pop()][3] = now


class Tracer:
    """In-memory span recorder for the traced run of one workload.

    A span is ``[name, parent, start, end, calls, aggregate]`` with
    ``parent`` the index of the span that was open when it began (-1
    for the root).  Spans stay in memory; :meth:`dump` renders them for
    ``trace.json`` once the benchmark ends.

    Two kinds of span share the list.  *Real* spans come from
    :meth:`span` around a call the suite makes itself.  *Aggregate*
    spans stand for time measured inside the program by its own
    :class:`repro.obs.perf.PhaseTimer` (per-phase totals, not
    individual intervals): they start with their parent and last their
    inclusive total, so "self time = span minus its children" holds
    for both kinds.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._clock = time.perf_counter
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str) -> _OpenSpan:
        """Time ``name`` as a child of the span now open; ``with ... as
        index`` yields the span's index for :meth:`aggregate`."""
        return _OpenSpan(self, name)

    @property
    def open_span(self) -> int:
        """Index of the innermost span still open."""
        return self._stack[-1]

    def aggregate(self, name: str, seconds: float, calls: int, parent: int) -> int:
        """Record ``seconds`` (inclusive) spent in ``name`` under ``parent``."""
        start = self.spans[parent][2]
        self.spans.append([name, parent, start, start + seconds, calls, True])
        return len(self.spans) - 1

    def seconds(self, index: int) -> float:
        """Duration of the (closed) span at ``index``."""
        return self.spans[index][3] - self.spans[index][2]

    def add_phases(self, timer, parent: int, prefix: str) -> Dict[str, int]:
        """Attach a PhaseTimer's phase tree below span ``parent``; returns
        the span index of every phase path.

        PhaseTimer keeps *self* seconds per slash-joined path; a path's
        inclusive time is its own plus every path below it.
        """
        index: Dict[str, int] = {}
        for path in timer.seconds:
            inclusive = sum(
                secs
                for other, secs in timer.seconds.items()
                if other == path or other.startswith(path + "/")
            )
            above = path.rpartition("/")[0]
            index[path] = self.aggregate(
                prefix + path,
                inclusive,
                calls=timer.calls.get(path, 0),
                parent=index.get(above, parent),
            )
        return index

    def self_seconds(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[3] - span[2]
        return own

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        own = self.self_seconds()
        return sum(own[i] for i, s in enumerate(self.spans) if s[0] == name)

    def calls(self, name: str) -> int:
        """How many times ``name`` ran (aggregates carry their own count)."""
        return sum(s[4] for s in self.spans if s[0] == name)

    def coverage(self, wall: float) -> float:
        """Share of ``wall`` that lies in a named span below the root."""
        own = self.self_seconds()
        return sum(own[i] for i, s in enumerate(self.spans) if s[1] >= 0) / wall

    def dump(self) -> List[Dict[str, Any]]:
        """JSON-friendly span list, times relative to the root's start."""
        if not self.spans:
            return []
        origin = self.spans[0][2]
        own = self.self_seconds()
        return [
            {
                "id": i,
                "name": s[0],
                "parent": s[1],
                "workload": self.workload,
                "start": s[2] - origin,
                "end": s[3] - origin,
                "self": own[i],
                "calls": s[4],
                "aggregate": s[5],
            }
            for i, s in enumerate(self.spans)
        ]


def digest(arrays: Iterable[Any]) -> str:
    """SHA-256 over the integer arrays of a result, shapes included."""
    sha = hashlib.sha256()
    for item in arrays:
        array = np.ascontiguousarray(np.asarray(item, dtype=np.int64))
        sha.update(repr(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def peak_rss_mb() -> float:
    """This process's high-water resident set, from ``/proc/self/status``.

    Not ``getrusage().ru_maxrss``: that never reads below the *parent's*
    resident set at the time it forked, so it would report the size of
    whatever launched the benchmark.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def quiesce() -> None:
    """Collect garbage, then park the survivors out of the collector's
    sight, so a repetition neither pays for its predecessor's cycles
    nor rescans the long-lived inputs."""
    gc.collect()
    gc.freeze()


#: A median needs at least this many repetitions, whatever the budget.
MIN_REPETITIONS = 3


def timed_repetitions(
    operation: Callable[[], Any], summarize: Callable[[Any], Any], seconds: float
) -> Tuple[List[float], List[Any], int]:
    """One discarded warm-up, then repetitions until ``seconds`` are measured.

    Returns ``(walls, summaries, raised)``: the wall time and the
    summary of every repetition that returned, and how many raised.
    ``summarize`` runs outside the timed region and lets the (large)
    result die before the next repetition starts.
    """
    operation()
    walls: List[float] = []
    summaries: List[Any] = []
    raised = 0
    measured = 0.0
    while measured < seconds or len(walls) + raised < MIN_REPETITIONS:
        quiesce()
        start = time.perf_counter()
        try:
            result = operation()
        except Exception:  # noqa: BLE001 -- a failed operation is a data point
            measured += time.perf_counter() - start
            raised += 1
            continue
        wall = time.perf_counter() - start
        measured += wall
        walls.append(wall)
        summaries.append(summarize(result))
        del result
    return walls, summaries, raised


def host_calibration() -> float:
    """ns per element of a fixed draw-and-argmax over (256, 32, 32).

    The shape of one PIM grant step at N=32, B=256; a cross-host
    normaliser only, never a gate.
    """
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        rng.random((256, 32, 32)).argmax(axis=2)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / (256 * 32 * 32) * 1e9
