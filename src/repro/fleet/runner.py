"""Execute a fleet spec: shard cells across a worker pool, resumably.

The runner turns an expanded spec (:func:`repro.fleet.spec.expand_cells`)
into completed :mod:`repro.fleet.store` records:

- **Sharding.**  Pending cells go through a process pool
  (``pool=1`` runs inline, which is also the debugger-friendly path).
  Workers append their own records straight to the sweep store -- one
  atomic-append line per cell -- so a killed sweep keeps everything
  that finished.  A worker that dies mid-cell breaks the pool; every
  cell without a record then gets an error record, and the sweep
  returns instead of waiting on the dead worker.
- **Determinism.**  A cell's outputs depend only on its derived seed
  (``derive_seed(spec.seed, cell_key)``) and parameters, never on
  which worker ran it or how many workers there were, so pool sizes 1
  and 4 produce cell-identical ``metrics``.
- **Resume.**  Cells whose ``(cell_key, params_hash)`` already have a
  ``done`` record are skipped; error records rerun.

Cell kinds (the ``kind`` field of the spec):

=========  ==========================================================
kind       one cell runs
=========  ==========================================================
delay      uniform Bernoulli traffic through ``run_fastpath`` or the
           per-cell object ``CrossbarSwitch`` (axes: scheduler, ports,
           replicas, load, backend, ...)
scenario   a named flow-level scenario (``repro.traffic.scenarios``)
           with per-flow FCT metrics on either backend
network    a multi-switch fabric (``repro.network.topologies.build``)
           with random routed flows on either backend
=========  ==========================================================

Every kind accepts ``measure = "run"`` (default: run the configured
backend once) or ``measure = "speedup"`` (time the object backend and
the fast path on the same cell and record ``speedup_vs_object`` --
the ported ``bench_sched_zoo``/``bench_scenarios`` discipline).
Deterministic outputs land in ``metrics``; wall-clock rates land in
``timing`` and are never part of the resume/determinism contract.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.fleet.spec import Cell, FleetSpec, expand_cells
from repro.fleet.store import SweepStore, cell_record
from repro.obs.perf import RunManifest
from repro.obs.store import DEFAULT_HISTORY_DIR, PerfEntry, record_result
from repro.sim.rng import derive_seed

__all__ = ["SweepOutcome", "run_sweep", "run_cell", "sweep_entry", "record_sweep"]


# ---------------------------------------------------------------------------
# Cell execution (one per kind).  Each returns (resolved, metrics, timing):
# ``resolved`` is the cell's parameter dict with runtime defaults filled
# in (a scenario's own ports/load, a topology's geometry), which is what
# spec.config_keys resolves the recorded config against.


def _params(cell: Cell, defaults: Dict[str, Any]) -> Dict[str, Any]:
    unknown = sorted(set(cell.params) - set(defaults))
    if unknown:
        raise ValueError(
            f"cell {cell.label()}: unknown parameter(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(defaults))}"
        )
    merged = dict(defaults)
    merged.update(cell.params)
    return merged


def _check_choice(cell: Cell, name: str, value: Any, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(
            f"cell {cell.label()}: {name} must be one of "
            f"{'/'.join(choices)}, got {value!r}"
        )


def _run_delay_cell(cell: Cell) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Uniform-traffic delay point: fastpath and/or object backend."""
    from repro.core.batch import BATCH_SCHEDULERS, build_object_scheduler
    from repro.sim.fastpath import run_fastpath
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.uniform import UniformTraffic

    p = _params(cell, {
        "scheduler": "pim", "ports": 16, "load": 0.8, "slots": 300,
        "warmup": 0, "iterations": 4, "replicas": 64,
        "backend": "fastpath", "measure": "run",
    })
    _check_choice(cell, "measure", p["measure"], ("run", "speedup"))
    _check_choice(cell, "backend", p["backend"], ("fastpath", "object"))
    _check_choice(cell, "scheduler", p["scheduler"], tuple(BATCH_SCHEDULERS))

    def object_run() -> Tuple[Any, float]:
        scheduler = build_object_scheduler(
            p["scheduler"], iterations=p["iterations"],
            seed=cell.seed, ports=p["ports"],
        )
        switch = CrossbarSwitch(p["ports"], scheduler)
        traffic = UniformTraffic(
            p["ports"], load=p["load"],
            seed=derive_seed(cell.seed, "fleet/delay-traffic"),
        )
        start = time.perf_counter()
        result = switch.run(traffic, slots=p["slots"], warmup=p["warmup"])
        return result, time.perf_counter() - start

    def fastpath_run() -> Tuple[Any, float]:
        start = time.perf_counter()
        result = run_fastpath(
            p["ports"], p["load"], p["slots"], replicas=p["replicas"],
            warmup=p["warmup"], iterations=p["iterations"],
            scheduler=p["scheduler"], seed=cell.seed,
        )
        return result, time.perf_counter() - start

    if p["measure"] == "speedup":
        object_result, object_wall = object_run()
        fast_result, fast_wall = fastpath_run()
        metrics = _delay_metrics(fast_result)
        object_sps = p["slots"] / object_wall
        fast_sps = p["replicas"] * p["slots"] / fast_wall
        timing = {
            "object_slots_per_sec": object_sps,
            "slots_per_sec": fast_sps,
            "speedup_vs_object": fast_sps / object_sps,
        }
    elif p["backend"] == "fastpath":
        result, wall = fastpath_run()
        metrics = _delay_metrics(result)
        timing = {"slots_per_sec": p["replicas"] * p["slots"] / wall}
    else:
        result, wall = object_run()
        metrics = _delay_metrics(result)
        timing = {"slots_per_sec": p["slots"] / wall}
    return p, metrics, timing


def _delay_metrics(result) -> Dict[str, Any]:
    """The backend-agnostic deterministic aggregates of a delay run."""
    return {
        "mean_delay": float(result.mean_delay),
        "throughput": float(result.throughput),
        "offered": float(result.offered),
    }


def _run_scenario_cell(
    cell: Cell,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """One named flow-level scenario with per-flow FCT metrics."""
    from repro.core.batch import BATCH_SCHEDULERS, build_object_scheduler
    from repro.sim.fastpath import run_fastpath
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.flows import WindowedSource
    from repro.traffic.scenarios import get_scenario

    p = _params(cell, {
        "scenario": None, "scheduler": "islip", "ports": None, "load": None,
        "slots": None, "warmup": 0, "drain": None, "iterations": 4,
        "replicas": 1, "backend": "fastpath", "measure": "run",
    })
    if not p["scenario"]:
        raise ValueError(f"cell {cell.label()}: scenario kind needs a 'scenario'")
    _check_choice(cell, "measure", p["measure"], ("run", "speedup"))
    _check_choice(cell, "backend", p["backend"], ("fastpath", "object"))
    _check_choice(cell, "scheduler", p["scheduler"], tuple(BATCH_SCHEDULERS))
    scenario = get_scenario(p["scenario"])
    p["ports"] = p["ports"] if p["ports"] is not None else scenario.ports
    p["load"] = p["load"] if p["load"] is not None else scenario.load
    p["slots"] = p["slots"] if p["slots"] is not None else scenario.slots
    p["drain"] = p["drain"] if p["drain"] is not None else max(600, 2 * p["slots"])
    total = p["slots"] + p["drain"]

    def build_source(replica: int = 0):
        return scenario.build_source(
            derive_seed(cell.seed, f"fleet/scenario-traffic/{replica}"),
            ports=p["ports"],
            load=p["load"],
        )

    def object_run() -> Tuple[Any, float]:
        scheduler = build_object_scheduler(
            p["scheduler"], iterations=p["iterations"],
            seed=cell.seed, ports=p["ports"],
        )
        switch = CrossbarSwitch(p["ports"], scheduler)
        source = WindowedSource(build_source(), p["slots"])
        start = time.perf_counter()
        result = switch.run(source, slots=total, warmup=p["warmup"])
        return result, time.perf_counter() - start

    def fastpath_run() -> Tuple[Any, float]:
        sources = [build_source(b) for b in range(p["replicas"])]
        start = time.perf_counter()
        result = run_fastpath(
            p["ports"], p["load"], p["slots"], replicas=p["replicas"],
            warmup=p["warmup"], iterations=p["iterations"],
            scheduler=p["scheduler"], seed=cell.seed, sources=sources,
            drain_slots=p["drain"], warmup_mode="arrival",
        )
        return result, time.perf_counter() - start

    if p["measure"] == "speedup":
        object_result, object_wall = object_run()
        fast_result, fast_wall = fastpath_run()
        metrics = _scenario_metrics(fast_result)
        object_sps = total / object_wall
        fast_sps = p["replicas"] * total / fast_wall
        timing = {
            "object_slots_per_sec": object_sps,
            "slots_per_sec": fast_sps,
            "speedup_vs_object": fast_sps / object_sps,
        }
    elif p["backend"] == "fastpath":
        result, wall = fastpath_run()
        metrics = _scenario_metrics(result)
        timing = {"slots_per_sec": p["replicas"] * total / wall}
    else:
        result, wall = object_run()
        metrics = _scenario_metrics(result)
        timing = {"slots_per_sec": total / wall}
    return p, metrics, timing


def _scenario_metrics(result) -> Dict[str, Any]:
    """Flow-level + cell-level deterministic aggregates of a run."""
    fct = getattr(result, "fct", None)
    metrics: Dict[str, Any] = {
        "mean_delay": float(result.mean_delay),
        "throughput": float(result.throughput),
    }
    if fct is not None and fct.count:
        metrics.update(
            flows=int(fct.count),
            incomplete=int(fct.incomplete),
            mean_fct=float(fct.mean_fct),
            p99_fct=float(fct.p99_fct),
            mean_slowdown=float(fct.mean_slowdown),
            p99_slowdown=float(fct.p99_slowdown),
        )
    else:
        metrics.update(
            flows=0,
            incomplete=int(fct.incomplete) if fct is not None else 0,
        )
    return metrics


def _run_network_cell(
    cell: Cell,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """A multi-switch fabric with random routed host-to-host flows."""
    import numpy as np

    from repro.network.netsim import FlowSpec, NetworkSimulator
    from repro.network.topologies import TOPOLOGIES, build

    p = _params(cell, {
        "topology": "parking_lot", "size": 3, "latency": 1, "flows": 4,
        "slots": 2000, "warmup": 200, "replicas": 8, "scheduler": "pim",
        "buffer_limit": 0, "backend": "fastpath", "measure": "run",
    })
    _check_choice(cell, "measure", p["measure"], ("run", "speedup"))
    _check_choice(cell, "backend", p["backend"], ("fastpath", "object"))
    _check_choice(cell, "topology", p["topology"], tuple(TOPOLOGIES))

    topo, hosts = build(p["topology"], p["size"], latency=p["latency"])
    if len(hosts) < 2:
        raise ValueError(
            f"cell {cell.label()}: {p['topology']}(size={p['size']}) has "
            f"{len(hosts)} hosts; need at least 2"
        )
    flow_rng = np.random.default_rng(derive_seed(cell.seed, "fleet/network-flows"))
    rates = (1.0, 0.8, 0.5, 0.25)
    flows = []
    for flow_id in range(1, p["flows"] + 1):
        src, dst = flow_rng.choice(len(hosts), size=2, replace=False)
        flows.append(
            FlowSpec(flow_id, hosts[src], hosts[dst], float(flow_rng.choice(rates)))
        )
    limit = p["buffer_limit"] if p["buffer_limit"] else None

    def object_run() -> Tuple[Dict[str, Any], float]:
        sim = NetworkSimulator(topo, seed=cell.seed, buffer_limit=limit)
        for flow in flows:
            sim.add_flow(flow)
        start = time.perf_counter()
        result = sim.run(p["slots"], warmup=p["warmup"])
        wall = time.perf_counter() - start
        delay_sum = delay_cells = 0
        for stats in result.delay.values():
            if stats.count:
                delay_sum += stats.mean * stats.count
                delay_cells += stats.count
        return {
            "delivered": int(sum(result.delivered.values())),
            "mean_delay": (delay_sum / delay_cells) if delay_cells else 0.0,
        }, wall

    def fastpath_run() -> Tuple[Dict[str, Any], float]:
        from repro.sim.fastpath_network import run_fastpath_network

        start = time.perf_counter()
        result = run_fastpath_network(
            topo, flows, p["slots"], replicas=p["replicas"],
            warmup=p["warmup"], scheduler=p["scheduler"], seed=cell.seed,
            buffer_limit=limit,
        )
        wall = time.perf_counter() - start
        delay_cells = int(result.delay_cells.sum())
        return {
            "delivered": int(result.delivered.sum()),
            "mean_delay": (
                float(result.delay_integral.sum()) / delay_cells
                if delay_cells else 0.0
            ),
        }, wall

    if p["measure"] == "speedup":
        object_metrics, object_wall = object_run()
        metrics, fast_wall = fastpath_run()
        object_sps = p["slots"] / object_wall
        fast_sps = p["replicas"] * p["slots"] / fast_wall
        timing = {
            "object_slots_per_sec": object_sps,
            "slots_per_sec": fast_sps,
            "speedup_vs_object": fast_sps / object_sps,
        }
    elif p["backend"] == "fastpath":
        metrics, wall = fastpath_run()
        timing = {"slots_per_sec": p["replicas"] * p["slots"] / wall}
    else:
        metrics, wall = object_run()
        timing = {"slots_per_sec": p["slots"] / wall}
    return p, metrics, timing


_KIND_RUNNERS: Dict[str, Callable[[Cell], Tuple[Dict, Dict, Dict]]] = {
    "delay": _run_delay_cell,
    "scenario": _run_scenario_cell,
    "network": _run_network_cell,
}


def run_cell(
    cell: Cell,
    kind: str,
    config_keys: Optional[List[str]] = None,
    repeats: bool = False,
) -> Dict[str, Any]:
    """Run one cell to a store record (never raises; errors land in
    the record so a bad cell cannot take down the sweep)."""
    start = time.perf_counter()
    try:
        runner = _KIND_RUNNERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown kind {kind!r}; known: {', '.join(_KIND_RUNNERS)}"
        ) from None
    try:
        resolved, metrics, timing = runner(cell)
    except Exception as exc:  # noqa: BLE001 -- any cell failure is data
        return cell_record(
            cell,
            status="error",
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}",
            elapsed=time.perf_counter() - start,
        )
    record = cell_record(
        cell,
        status="done",
        metrics=metrics,
        timing=timing,
        elapsed=time.perf_counter() - start,
    )
    record["config"] = _resolved_config(cell, resolved, config_keys, repeats)
    return record


def _resolved_config(
    cell: Cell,
    resolved: Dict[str, Any],
    config_keys: Optional[List[str]],
    repeats: bool,
) -> Dict[str, Any]:
    """Recompute the recorded config against runtime-resolved params."""
    if config_keys is None:
        config = dict(cell.axes)
    else:
        config = {key: resolved[key] for key in config_keys if key in resolved}
    if repeats:
        config["rep"] = cell.rep
    return config


def _run_and_append(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one cell, append its record, return it."""
    record = run_cell(
        task["cell"],
        task["kind"],
        config_keys=task["config_keys"],
        repeats=task["repeats"],
    )
    SweepStore(task["store"]).append(record)
    return record


@dataclass
class SweepOutcome:
    """What one ``run_sweep`` call did and where the sweep stands."""

    spec: FleetSpec
    store_path: Path
    cells: List[Cell]
    skipped: int  # cells already done before this call
    ran: int  # cells executed by this call
    errors: List[Dict[str, Any]] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)  # done, cell order

    @property
    def ok(self) -> bool:
        """True when every cell of the spec has a ``done`` record."""
        return len(self.records) == len(self.cells)

    @property
    def pending(self) -> int:
        return len(self.cells) - len(self.records)

    def describe(self) -> str:
        status = "complete" if self.ok else f"{self.pending} cells pending"
        lines = [
            f"sweep {self.spec.name}: {len(self.cells)} cells "
            f"({self.skipped} resumed, {self.ran} run, "
            f"{len(self.errors)} errors) -- {status}"
        ]
        for record in self.errors:
            first = record.get("error", "").splitlines()[0]
            lines.append(f"  ERROR {record['cell_key']}: {first}")
        return "\n".join(lines)


def run_sweep(
    spec: FleetSpec,
    store_path: Union[str, Path],
    pool: int = 1,
    extra_defaults: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Run (or resume) a spec's sweep against its results store.

    ``pool`` > 1 shards pending cells over a process pool of the
    default start method; workers append records directly, so killing
    the sweep at any point loses only in-flight cells.  A worker that
    dies mid-cell breaks the pool: each cell left without a record gets
    an error record (appended here), so it reruns on resume.
    Already-``done`` cells are skipped.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    emit = progress if progress is not None else (lambda line: None)
    cells = expand_cells(spec, extra_defaults)
    store = SweepStore(store_path)
    prior = store.load()
    completed = store.completed(prior)
    pending = [cell for cell in cells if (cell.key, cell.params_hash) not in completed]
    skipped = len(cells) - len(pending)
    if skipped:
        emit(f"resume: skipping {skipped} completed cells")

    tasks = [
        {
            "cell": cell,
            "kind": spec.kind,
            "config_keys": spec.config_keys,
            "repeats": spec.repeat > 1,
            "store": str(store_path),
        }
        for cell in pending
    ]
    errors: List[Dict[str, Any]] = []
    if pool == 1 or len(tasks) <= 1:
        for task in tasks:
            record = _run_and_append(task)
            _note(emit, record)
            if record["status"] != "done":
                errors.append(record)
    else:
        with ProcessPoolExecutor(
            max_workers=min(pool, len(tasks)),
            mp_context=multiprocessing.get_context(),
        ) as workers:
            futures = {workers.submit(_run_and_append, task): task for task in tasks}
            for future in as_completed(futures):
                try:
                    record = future.result()
                except BrokenProcessPool as exc:
                    record = cell_record(
                        futures[future]["cell"],
                        status="error",
                        error=f"BrokenProcessPool: {exc}",
                    )
                    store.append(record)
                _note(emit, record)
                if record["status"] != "done":
                    errors.append(record)

    latest = SweepStore(store_path).latest_done()
    by_key = {cell.key: cell for cell in cells}
    records = [
        latest[cell.key] for cell in cells if cell.key in latest
        if latest[cell.key]["params_hash"] == by_key[cell.key].params_hash
    ]
    return SweepOutcome(
        spec=spec,
        store_path=Path(store_path),
        cells=cells,
        skipped=skipped,
        ran=len(tasks),
        errors=errors,
        records=records,
    )


def _note(emit: Callable[[str], None], record: Dict[str, Any]) -> None:
    if record["status"] == "done":
        emit(
            f"done  [{record['index']:>3}] {record['cell_key']} "
            f"({record['elapsed']:.2f}s)"
        )
    else:
        first = record.get("error", "").splitlines()[0]
        emit(f"ERROR [{record['index']:>3}] {record['cell_key']}: {first}")


def sweep_entry(
    spec: FleetSpec,
    records: List[Dict[str, Any]],
    run_id: Optional[str] = None,
) -> PerfEntry:
    """Aggregate a sweep's cell records into one history entry.

    The entry's ``results`` flatten each cell's metrics and timing
    under its recorded config, which is exactly the shape
    :func:`repro.obs.store.gate` keys on -- so a fleet sweep gates
    against any trajectory recorded by the legacy benches, provided
    the spec's ``config_keys`` reproduce their config shape.
    """
    import uuid
    from datetime import datetime, timezone

    manifest = RunManifest.collect(seed=spec.seed, config=_spec_config(spec))
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return PerfEntry(
        run_id=run_id or f"{stamp}-{uuid.uuid4().hex[:8]}",
        bench=spec.bench_name,
        manifest=manifest.to_dict(),
        results=[
            {"config": r["config"], **r["metrics"], **r["timing"]} for r in records
        ],
        extras={"spec": spec.name, "kind": spec.kind, "cells": len(records)},
    )


def record_sweep(
    spec: FleetSpec,
    records: List[Dict[str, Any]],
    history_dir: Optional[Union[str, Path]] = DEFAULT_HISTORY_DIR,
    snapshot: Optional[Union[str, Path]] = None,
) -> PerfEntry:
    """Record a completed sweep through the single perf write path.

    ``history_dir=None`` writes the snapshot only (no history append).
    """
    return record_result(
        spec.bench_name,
        [{"config": r["config"], **r["metrics"], **r["timing"]} for r in records],
        config=_spec_config(spec),
        seed=spec.seed,
        extras={"spec": spec.name, "kind": spec.kind, "cells": len(records)},
        snapshot=snapshot,
        history_dir=history_dir,
    )


def _spec_config(spec: FleetSpec) -> Dict[str, Any]:
    """The manifest-level config describing the whole sweep."""
    return {
        "spec": spec.name,
        "kind": spec.kind,
        "grid": spec.grid,
        "defaults": spec.defaults,
        "repeat": spec.repeat,
    }
