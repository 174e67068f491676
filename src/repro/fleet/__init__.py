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

from repro.fleet.report import aggregate_cells, render_report, sweep_status
from repro.fleet.runner import (
    SweepOutcome,
    record_sweep,
    run_cell,
    run_sweep,
    sweep_entry,
)
from repro.fleet.spec import (
    KINDS,
    Cell,
    FleetSpec,
    cell_key,
    expand_cells,
    load_spec,
    parse_spec,
)
from repro.fleet.store import SweepStore, cell_record

__all__ = [
    "KINDS",
    "Cell",
    "FleetSpec",
    "SweepOutcome",
    "SweepStore",
    "aggregate_cells",
    "cell_key",
    "cell_record",
    "expand_cells",
    "load_spec",
    "parse_spec",
    "record_sweep",
    "render_report",
    "run_cell",
    "run_sweep",
    "sweep_entry",
    "sweep_status",
]
