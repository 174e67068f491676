"""Status and report aggregation over a sweep's results store.

``fleet status`` answers "where does this sweep stand" (done / error /
pending counts against the spec's expansion); ``fleet report``
aggregates completed cells into one row per grid point -- the median
across ``repeat`` seed replicas, taken with the store's own
:func:`repro.obs.store._median` so an impossible empty aggregate fails
naming the config it came from -- and renders them through
:mod:`repro.analysis.fleet_tables`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.fct_tables import format_fct_table
from repro.analysis.fleet_tables import fct_rows_from_cells, format_sweep_table
from repro.fleet.spec import FleetSpec, expand_cells
from repro.fleet.store import SweepStore
from repro.obs.store import _median, config_key

__all__ = [
    "DEFAULT_METRICS",
    "sweep_status",
    "aggregate_cells",
    "render_report",
]

#: Metric columns ``fleet report`` shows by default, per spec kind.
#: Timing columns are appended automatically when cells carry them.
DEFAULT_METRICS: Dict[str, List[str]] = {
    "delay": ["mean_delay", "throughput", "offered"],
    "scenario": [
        "flows", "incomplete", "mean_fct", "p99_fct",
        "mean_slowdown", "mean_delay", "throughput",
    ],
    "network": ["delivered", "mean_delay"],
}

#: Timing columns appended (in this order) when present in any cell.
_TIMING_METRICS = ("slots_per_sec",)


def sweep_status(
    spec: FleetSpec,
    store_path: Union[str, Path],
    extra_defaults: Optional[Dict[str, Any]] = None,
) -> str:
    """Human-readable completion status of a sweep against its spec."""
    cells = expand_cells(spec, extra_defaults)
    store = SweepStore(store_path)
    records = store.load()
    completed = store.completed(records)
    errors = {
        record["cell_key"]: record
        for record in records
        if record["status"] == "error"
    }
    done = sum(
        1 for cell in cells if (cell.key, cell.params_hash) in completed
    )
    pending = [
        cell for cell in cells if (cell.key, cell.params_hash) not in completed
    ]
    lines = [
        spec.summary(),
        f"store: {store_path}"
        + ("" if store.exists() else " (not created yet)"),
        f"cells: {done}/{len(cells)} done, {len(pending)} pending",
    ]
    for cell in pending:
        note = ""
        if cell.key in errors:
            first = errors[cell.key].get("error", "").splitlines()[0]
            note = f"  [last attempt errored: {first}]"
        elif any(key == cell.key for key, _ in completed):
            note = "  [stale params; will rerun]"
        lines.append(f"  pending {cell.label()}{note}")
    return "\n".join(lines)


def aggregate_cells(
    records: Sequence[Dict[str, Any]],
    metrics: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """One row per grid point: median of each metric across repeats.

    Cells sharing a config-minus-``rep`` dict pool their seed replicas.
    ``metrics`` defaults to every metric/timing field seen; a metric a
    group never recorded is simply absent from its row (mixed backends
    record different fields).  The median comes from the store's
    guarded ``_median`` so an empty sample list -- impossible unless a
    record was hand-edited -- fails naming the config.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for record in records:
        config = {
            k: v for k, v in record.get("config", {}).items() if k != "rep"
        }
        key = config_key(config)
        if key not in groups:
            groups[key] = {"config": config, "samples": {}}
            order.append(key)
        merged = dict(record.get("metrics", {}))
        merged.update(record.get("timing", {}))
        for name, value in merged.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                groups[key]["samples"].setdefault(name, []).append(float(value))

    if metrics is None:
        seen: List[str] = []
        for key in order:
            for name in groups[key]["samples"]:
                if name not in seen:
                    seen.append(name)
        metrics = seen

    rows: List[Dict[str, Any]] = []
    for key in order:
        group = groups[key]
        row: Dict[str, Any] = {
            "config": group["config"],
            "n": max((len(v) for v in group["samples"].values()), default=0),
        }
        for name in metrics:
            samples = group["samples"].get(name)
            if samples:
                row[name] = _median(
                    samples, what=f"samples of {name} for config {key}"
                )
        rows.append(row)
    return rows


def render_report(
    spec: FleetSpec,
    records: Sequence[Dict[str, Any]],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """The ``fleet report`` text for a sweep's completed cell records."""
    if not records:
        return f"{spec.summary()}\n(no completed cells yet)"
    if metrics is None:
        metrics = list(DEFAULT_METRICS.get(spec.kind, []))
        present = set()
        for record in records:
            present.update(record.get("timing", {}))
            present.update(record.get("metrics", {}))
        metrics = [m for m in metrics if m in present]
        metrics += [m for m in _TIMING_METRICS if m in present]
    rows = aggregate_cells(records, metrics)
    parts = [spec.summary(), "", format_sweep_table(rows, metrics)]
    if spec.kind == "scenario":
        parts += [
            "",
            "per-cell FCT detail:",
            format_fct_table(fct_rows_from_cells(records)),
        ]
    return "\n".join(parts)
