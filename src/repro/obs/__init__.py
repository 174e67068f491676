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

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "TraceEvent": "events",
    "SlotBegin": "events",
    "PimIteration": "events",
    "CrossbarTransfer": "events",
    "CellDeparture": "events",
    "VoqSnapshot": "events",
    "CbrSlot": "events",
    "StatRound": "events",
    "PhaseProfile": "events",
    "RunManifestRecord": "events",
    "event_from_record": "events",
    "PhaseTimer": "perf",
    "NULL_PHASE_TIMER": "perf",
    "PhaseReport": "perf",
    "PhaseStat": "perf",
    "RunManifest": "perf",
    "hash_config": "perf",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "NullSink": "sinks",
    "InMemorySink": "sinks",
    "JSONLSink": "sinks",
    "read_events": "sinks",
    "write_csv_summary": "sinks",
    "Probe": "probe",
    "NULL_PROBE": "probe",
})
