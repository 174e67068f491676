"""Observability: per-slot trace events, metrics, and pluggable sinks.

The paper's headline claims are statements about *per-slot scheduler
internals* -- Table 1 counts matches per PIM iteration, Figure 2 walks
one slot's request/grant/accept anatomy, Figure 8 tallies per-input
grant shares -- yet a simulation run normally reports only end-of-run
aggregates (:class:`repro.switch.results.SwitchResult`,
:class:`repro.sim.fastpath.FastpathResult`).  This package makes the
internals first-class:

- :mod:`repro.obs.events` -- typed per-slot trace events (SlotBegin,
  PimIteration, CrossbarTransfer, CellDeparture, VoqSnapshot),
- :mod:`repro.obs.metrics` -- a registry of named counters, gauges and
  histograms built on :class:`repro.sim.stats.RunningMeanVar`,
- :mod:`repro.obs.sinks` -- where events go: NullSink (default,
  no-op), InMemorySink, JSONLSink, and a CSV summary writer,
- :mod:`repro.obs.probe` -- the :class:`Probe` facade threaded through
  both simulator backends; **zero overhead when disabled** (call sites
  guard on a single attribute read),
- :mod:`repro.obs.perf` -- the phase profiler (:class:`PhaseTimer`)
  and :class:`RunManifest` provenance stamps threaded through every
  backend's ``run``; **zero overhead when disabled**,
- :mod:`repro.obs.store` -- the append-only perf-history store that
  ``fleet run --record`` and ``sched-study --record`` write through,
  and the trajectory gate behind ``repro-an2 fleet gate``.

Quick start::

    from repro.obs import InMemorySink, Probe
    probe = Probe(InMemorySink())
    switch.run(traffic, slots=1000, probe=probe)
    probe.sink.events   # the full per-slot trace

or from the shell: ``repro-an2 delay --trace run.jsonl --metrics``
followed by ``repro-an2 trace summarize run.jsonl``.  The
object-vs-fastpath parity oracles, which diff two backends' traces slot
by slot, live in :mod:`repro.check.differential`.
"""

from repro.obs.events import (
    CbrSlot,
    CellDeparture,
    CrossbarTransfer,
    PhaseProfile,
    PimIteration,
    RunManifestRecord,
    SlotBegin,
    StatRound,
    TraceEvent,
    VoqSnapshot,
    event_from_record,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.perf import (
    NULL_PHASE_TIMER,
    PhaseReport,
    PhaseStat,
    PhaseTimer,
    RunManifest,
    hash_config,
)
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.sinks import (
    InMemorySink,
    JSONLSink,
    NullSink,
    read_events,
    write_csv_summary,
)

__all__ = [
    "TraceEvent",
    "SlotBegin",
    "PimIteration",
    "CrossbarTransfer",
    "CellDeparture",
    "VoqSnapshot",
    "CbrSlot",
    "StatRound",
    "PhaseProfile",
    "RunManifestRecord",
    "event_from_record",
    "PhaseTimer",
    "NULL_PHASE_TIMER",
    "PhaseReport",
    "PhaseStat",
    "RunManifest",
    "hash_config",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSink",
    "InMemorySink",
    "JSONLSink",
    "read_events",
    "write_csv_summary",
    "Probe",
    "NULL_PROBE",
]
