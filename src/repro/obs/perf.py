"""Phase profiling and run manifests: *where* the slots/sec goes.

The perf story of this repo is sustained scheduling speed -- the
paper's whole argument -- yet a bench number like "14x object" says
nothing about which part of a run earned (or lost) it.  This module
makes the inside of a run observable:

- :class:`PhaseTimer` -- a low-overhead profiler of *nested phases*
  (compile, per-slot arrivals, scheduler kernel, delivery, update).
  Producers wrap code regions in ``with timer.phase("kernel"):``
  spans; the timer attributes every monotonic-clock tick between span
  transitions to the innermost open phase, so **self-times sum exactly
  to the instrumented wall time** (no double counting under nesting,
  no unattributed gaps while a root span is open).  A disabled timer
  (``NULL_PHASE_TIMER``, the default argument throughout the
  simulators) hands back a shared no-op span: the cost is one
  attribute check and an empty context manager per call site, which is
  what keeps the tier-1 overhead test happy.
- :class:`PhaseReport` -- the rendered breakdown: per-phase call
  counts, self seconds, share of wall, plus derived replica-slots/sec
  and cells/sec rates.  Serializable (``to_dict``/``from_dict``) so it
  can ride in the perf-history store and through the JSONL trace sinks
  (see :meth:`repro.obs.probe.Probe.phase_profile`).
- :class:`RunManifest` -- who/where/what of a run: git SHA, platform,
  python/numpy versions, root seed, and a stable hash of the config
  dict.  Attached to every history entry written through
  :func:`repro.obs.store.record_result` and (optionally) stamped into
  JSONL traces, so a perf number can always be traced back to the code
  and machine that produced it.

Phase taxonomy (shared across backends so reports line up):

========== =====================================================
phase       meaning
========== =====================================================
run         root span; its self-time is loop bookkeeping
run/compile one-time table/scheduler/plan construction
run/arrivals per-slot traffic generation (or host injection)
run/delivery per-slot link deliveries landing (network backends)
run/kernel  the scheduler kernel: any registry BatchScheduler
            (pim/islip/lqf/wavefront/qps), the statistical lottery,
            or the per-switch network match
run/update  per-slot counter + statistics updates
========== =====================================================
"""

from __future__ import annotations

import hashlib
import json
import platform as _platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

__all__ = [
    "PhaseTimer",
    "NULL_PHASE_TIMER",
    "PhaseStat",
    "PhaseReport",
    "RunManifest",
    "hash_config",
]


class _NoopSpan:
    """The shared do-nothing span handed out by a disabled timer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: entering/exiting drives the owning timer's stack."""

    __slots__ = ("_timer", "_name")

    def __init__(self, timer: "PhaseTimer", name: str):
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_Span":
        self._timer._enter(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._timer._exit()


class PhaseTimer:
    """Accumulates self-time per (nested) phase on a monotonic clock.

    Phases are identified by their slash-joined path: a ``phase("kernel")``
    opened inside ``phase("run")`` accumulates under ``"run/kernel"``.
    Attribution is *exclusive* (self-time): while a child span is open,
    the parent's clock pauses, and the gaps between children inside a
    parent are attributed to the parent itself.  Hence

    ``sum(timer.seconds.values()) == timer.wall_seconds``

    exactly, whenever every instant between the first root enter and
    the last root exit is inside some span (which holds by construction
    when the run body sits under one root span).

    A timer with ``enabled=False`` records nothing: :meth:`phase`
    returns a shared no-op context manager without touching the clock.
    ``NULL_PHASE_TIMER`` is the shared disabled instance used as the
    default argument throughout the simulators.

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> timer = PhaseTimer(clock=lambda: float(next(ticks)))
    >>> with timer.phase("run"):
    ...     with timer.phase("kernel"):
    ...         pass
    >>> timer.calls["run/kernel"]
    1
    >>> timer.seconds["run/kernel"]
    1.0
    """

    __slots__ = ("enabled", "seconds", "calls", "_clock", "_stack", "_last",
                 "_root_start", "_wall")

    def __init__(self, enabled: bool = True, clock=None):
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        #: Self-seconds per phase path, insertion-ordered (first seen).
        self.seconds: Dict[str, float] = {}
        #: Times each phase path was entered.
        self.calls: Dict[str, int] = {}
        self._stack: List[str] = []
        self._last = 0.0
        self._root_start: Optional[float] = None
        self._wall = 0.0

    def phase(self, name: str):
        """A context manager timing ``name`` (nested under open spans)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    def _enter(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            current = self._stack[-1]
            self.seconds[current] = self.seconds.get(current, 0.0) + (now - self._last)
            path = current + "/" + name
        else:
            self._root_start = now
            path = name
        self._stack.append(path)
        if path not in self.seconds:
            self.seconds[path] = 0.0
        self.calls[path] = self.calls.get(path, 0) + 1
        self._last = now

    def _exit(self) -> None:
        now = self._clock()
        path = self._stack.pop()
        self.seconds[path] += now - self._last
        self._last = now
        if not self._stack and self._root_start is not None:
            self._wall += now - self._root_start
            self._root_start = None

    @property
    def wall_seconds(self) -> float:
        """Total wall time spent inside root spans so far."""
        if self._root_start is not None:
            # A root span is still open; include its elapsed time.
            return self._wall + (self._clock() - self._root_start)
        return self._wall

    def reset(self) -> None:
        """Drop all accumulated phases (keeps the enabled flag)."""
        if self._stack:
            raise RuntimeError("cannot reset a PhaseTimer with open spans")
        self.seconds.clear()
        self.calls.clear()
        self._wall = 0.0
        self._root_start = None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump: per-phase calls/seconds plus the wall."""
        return {
            "phases": {
                path: {"calls": self.calls.get(path, 0), "seconds": secs}
                for path, secs in self.seconds.items()
            },
            "wall_seconds": self.wall_seconds,
        }

    def report(
        self, slots: Optional[int] = None, cells: Optional[int] = None
    ) -> "PhaseReport":
        """Build a :class:`PhaseReport` with optional derived rates.

        ``slots`` should be the *replica-slots* simulated (``B x T``)
        so the slots/sec rate is comparable across batch sizes.
        """
        wall = self.wall_seconds
        phases = [
            PhaseStat(
                path=path,
                calls=self.calls.get(path, 0),
                seconds=secs,
                share=(secs / wall) if wall > 0 else 0.0,
            )
            for path, secs in self.seconds.items()
        ]
        return PhaseReport(phases=phases, wall_seconds=wall, slots=slots, cells=cells)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"PhaseTimer({state}, {len(self.seconds)} phases)"


#: The shared disabled timer; safe as a default argument because a
#: disabled timer never records state.
NULL_PHASE_TIMER = PhaseTimer(enabled=False)


@dataclass(frozen=True)
class PhaseStat:
    """One row of a phase breakdown: self-time of one phase path."""

    path: str
    calls: int
    seconds: float
    share: float  # fraction of the instrumented wall time


@dataclass
class PhaseReport:
    """A rendered phase breakdown with derived throughput rates."""

    phases: List[PhaseStat]
    wall_seconds: float
    slots: Optional[int] = None
    cells: Optional[int] = None

    @property
    def slots_per_sec(self) -> Optional[float]:
        """Replica-slots per wall second, when ``slots`` was supplied."""
        if self.slots is None or self.wall_seconds <= 0:
            return None
        return self.slots / self.wall_seconds

    @property
    def cells_per_sec(self) -> Optional[float]:
        """Carried cells per wall second, when ``cells`` was supplied."""
        if self.cells is None or self.wall_seconds <= 0:
            return None
        return self.cells / self.wall_seconds

    def coverage(self) -> float:
        """Fraction of wall time attributed to some phase (1.0 when the
        whole run body sits under a root span)."""
        if self.wall_seconds <= 0:
            return 0.0
        return sum(stat.seconds for stat in self.phases) / self.wall_seconds

    def render(self) -> str:
        """Aligned text table of the breakdown, widest phases as-is."""
        width = max([len("phase")] + [len(s.path) for s in self.phases])
        lines = [
            f"{'phase':<{width}}  {'calls':>9}  {'seconds':>10}  {'share':>7}"
        ]
        for stat in self.phases:
            lines.append(
                f"{stat.path:<{width}}  {stat.calls:>9}  "
                f"{stat.seconds:>10.4f}  {100.0 * stat.share:>6.1f}%"
            )
        lines.append(
            f"{'total (wall)':<{width}}  {'':>9}  {self.wall_seconds:>10.4f}  "
            f"{100.0 * self.coverage():>6.1f}%"
        )
        if self.slots_per_sec is not None:
            lines.append(f"replica-slots/sec : {self.slots_per_sec:,.0f}")
        if self.cells_per_sec is not None:
            lines.append(f"cells/sec         : {self.cells_per_sec:,.0f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; inverse of :meth:`from_dict`."""
        return {
            "phases": [asdict(stat) for stat in self.phases],
            "wall_seconds": self.wall_seconds,
            "slots": self.slots,
            "cells": self.cells,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "PhaseReport":
        """Rebuild a report written by :meth:`to_dict`."""
        return cls(
            phases=[PhaseStat(**stat) for stat in record["phases"]],
            wall_seconds=record["wall_seconds"],
            slots=record.get("slots"),
            cells=record.get("cells"),
        )


def hash_config(config: Dict[str, Any]) -> str:
    """Stable short hash of a JSON-serializable config dict.

    Key order does not matter; two runs with the same logical config
    hash identically, which is what the history gate keys on.
    """
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run: code, machine, toolchain, seed, config.

    Collected once per bench/trace via :meth:`collect` and serialized
    alongside every perf-history entry, so a recorded number is never
    divorced from the commit and platform that produced it.
    """

    git_sha: str
    platform: str
    python_version: str
    numpy_version: str
    seed: Optional[int]
    config_hash: str
    timestamp: str
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, seed: Optional[int] = None, config: Optional[Dict[str, Any]] = None
    ) -> "RunManifest":
        """Snapshot the current environment.

        ``config`` is the run's logical configuration (grid shape,
        load, iterations ...); it is stored verbatim and hashed into
        ``config_hash`` so entries with matching configurations can be
        compared across time and machines.
        """
        import numpy

        config = dict(config or {})
        return cls(
            git_sha=_git_sha(),
            platform=_platform.platform(),
            python_version=sys.version.split()[0],
            numpy_version=numpy.__version__,
            seed=seed,
            config_hash=hash_config(config),
            timestamp=datetime.now(timezone.utc).isoformat(),
            config=config,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest written by :meth:`to_dict`."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in record.items() if k in known})
