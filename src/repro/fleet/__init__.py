"""Fleet runner: declarative sweep specs, a sharded worker pool, and a
crash-safe resumable results store.

The FireSim-manager move applied to switch simulation: a sweep is a
committed spec file (:mod:`repro.fleet.spec`), execution is a
``multiprocessing`` pool with per-cell derived seeds
(:mod:`repro.fleet.runner`), results are an append-only JSONL store
that resumes across kills (:mod:`repro.fleet.store`), and regression
gating checks a sweep against its recorded trajectory with
:func:`repro.obs.store.gate`.  Exposed on the CLI as
``repro-an2 fleet run|status|report|gate``.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "KINDS": "spec",
    "Cell": "spec",
    "FleetSpec": "spec",
    "SweepOutcome": "runner",
    "SweepStore": "store",
    "aggregate_cells": "report",
    "cell_key": "spec",
    "cell_record": "store",
    "expand_cells": "spec",
    "load_spec": "spec",
    "parse_spec": "spec",
    "record_sweep": "runner",
    "render_report": "report",
    "run_cell": "runner",
    "run_sweep": "runner",
    "sweep_entry": "runner",
    "sweep_status": "report",
})
