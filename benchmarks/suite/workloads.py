"""The eight workloads of the suite, one class each.

Every workload answers the same five questions for ``run.py``:

``setup(seed, tracer)``
    build every input the operation needs from the seed (timed as
    ``setup_s``; each stage sits in a span named after its layer);
``operate(phase_timer=None)``
    the measured call -- one *operation*;
``outcome(result)``
    replica-slots, carried cells, the simulated (``sim_*``) statistics
    and a digest of the result's integer arrays;
``verify(tracer=None)``
    the matching ``repro.check.differential`` oracle on a short prefix
    of the same configuration (raises on divergence); given a tracer it
    also reports how fast the object oracle ran;
``trace(tracer, reference_wall)``
    the traced run: the operation again under the program's own
    ``PhaseTimer`` plus direct, timed calls into single layers; returns
    the per-layer metrics this workload has something to say about.

Layers are measured from outside, through public functions only:
nothing under ``src/`` knows the suite exists.  ``scale`` shrinks slot
counts for the self-test; every published number uses ``scale=1``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import Tracer, digest, quiesce
from harness import peak_rss_mb as harness_peak_rss_mb

from repro.cbr.reservations import ReservationTable
from repro.check.differential import (
    backend_parity,
    integrated_parity,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.core.batch import build_batch_scheduler, build_object_scheduler
from repro.fleet import SweepStore, expand_cells, load_spec, render_report, run_cell
from repro.network import topologies
from repro.network.netsim import FlowSpec
from repro.network.routing import Router
from repro.obs.perf import PhaseTimer
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink
from repro.sim.fastpath import FastpathCrossbar, run_fastpath
from repro.sim.fastpath_cbr import (
    compile_cbr_pattern,
    compile_frame_schedule,
    run_fastpath_cbr,
)
from repro.sim.fastpath_network import NetworkFastpath, run_fastpath_network
from repro.sim.fastpath_statistical import (
    compile_stat_tables,
    run_fastpath_statistical,
)
from repro.sim.rng import RandomStreams, derive_seed
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.switch.switch import CrossbarSwitch
from repro.traffic.flows import WindowedSource
from repro.traffic.scenarios import get_scenario

__all__ = ["Outcome", "Workload", "WORKLOADS", "build_workload"]

SUITE_DIR = Path(__file__).resolve().parent
SOURCE_DIR = SUITE_DIR.parents[1] / "src"


@dataclass(frozen=True)
class Outcome:
    """What one operation did, reduced to what the metrics need."""

    replica_slots: int
    cells: int
    sim: Dict[str, float]
    digest: str


class Workload:
    """Shared shape of a workload; see the module docstring."""

    name = ""

    def __init__(self, scale: float = 1.0, workdir: Optional[Path] = None):
        self.scale = scale
        #: Scratch directory inside the checkout (only the fleet
        #: workload writes files).
        self.workdir = workdir
        self.seed = 0

    def scaled(self, slots: int, floor: int = 2) -> int:
        """``slots`` at this instance's scale, never below ``floor``."""
        return max(floor, int(slots * self.scale))

    def setup(self, seed: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def operate(self, phase_timer=None) -> Any:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process the operation ran in."""
        return harness_peak_rss_mb()

    def outcome(self, result: Any) -> Outcome:
        raise NotImplementedError

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        raise NotImplementedError

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        raise NotImplementedError

    def traced_operation(self, tracer: Tracer) -> Tuple[Any, PhaseTimer, Dict[str, int]]:
        """The operation under a live PhaseTimer, inside the span every
        traced run calls ``operation``; the timer's phases hang below it.

        Returns ``(result, timer, span index of every phase path)``.
        """
        with tracer.span("obs.quiesce"):
            quiesce()
        timer = PhaseTimer()
        with tracer.span("operation") as index:
            result = self.operate(phase_timer=timer)
        return result, timer, tracer.add_phases(timer, index, "sim.")


def phase_metrics(
    timer: PhaseTimer, cells_generated: int, arrivals_s: Optional[float] = None
) -> Dict[str, float]:
    """The per-layer numbers every PhaseTimer-profiled slot loop yields.

    ``arrivals_s`` overrides the ``run/arrivals`` phase when the suite
    timed the traffic sources themselves; what is left of that phase
    then counts as loop residual, which is where the flow shadow lives.
    """
    phases = timer.seconds
    if arrivals_s is None:
        arrivals_s = phases.get("run/arrivals", 0.0)
    named = sum(
        phases.get(path, 0.0)
        for path in ("run/compile", "run/kernel", "run/update", "run/delivery")
    )
    return {
        "sim.compile_s": phases.get("run/compile", 0.0),
        "sim.account_s": phases.get("run/update", 0.0),
        "sim.loop_residual_s": timer.wall_seconds - named - arrivals_s,
        "traffic.arrivals_s": arrivals_s,
        "traffic.cells_generated": cells_generated,
        "traffic.ns_per_cell": arrivals_s / max(cells_generated, 1) * 1e9,
    }


def fastpath_outcome(result, extra_arrays=(), extra_sim=None) -> Outcome:
    """Outcome of any result with the ``FastpathResult`` aggregate API."""
    sim = {
        "sim_mean_delay_slots": float(result.mean_delay),
        "sim_throughput": float(result.throughput),
    }
    sim.update(extra_sim or {})
    arrays = [
        result.offered_cells,
        result.carried_cells,
        result.backlog_integral,
        result.departures_by_output,
        result.final_backlog,
    ]
    return Outcome(
        replica_slots=result.replicas * (result.slots + result.drain_slots),
        cells=int(result.carried_cells.sum()),
        sim=sim,
        digest=digest(arrays + list(extra_arrays)),
    )


# ---------------------------------------------------------------------------
# 1-3: the crossbar fast path with the PIM kernel, used three ways


class Crossbar(Workload):
    """``run_fastpath`` on Bernoulli/uniform traffic with the PIM kernel."""

    ports = 16
    replicas = 64
    slots = 2000
    warmup = 200
    load = 0.8
    iterations = 4
    #: Drive replica 0 from ``UniformTraffic(seed + 1)`` draw for draw:
    #: the seed-for-seed parity mode of the B=1 workload.
    object_compat = False
    #: Slots of the verify prefix at scale 1.
    verify_slots = 300

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        with tracer.span("sim.arguments"):
            self.kwargs = dict(
                ports=self.ports,
                load=self.load,
                slots=self.scaled(self.slots),
                replicas=self.replicas,
                iterations=self.iterations,
                scheduler="pim",
                warmup=self.scaled(self.warmup, floor=1),
                seed=seed,
            )
            if self.object_compat:
                self.kwargs["arrival_seeds"] = [seed + 1]

    def operate(self, phase_timer=None):
        return run_fastpath(**self.kwargs, phase_timer=phase_timer)

    def outcome(self, result) -> Outcome:
        return fastpath_outcome(result)

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        timer = PhaseTimer(enabled=tracer is not None)
        backend_parity(
            self.ports,
            self.load,
            self.scaled(self.verify_slots, floor=20),
            seed=self.seed,
            iterations=self.iterations,
            scheduler="pim",
            phase_timer=timer,
        )
        if tracer is None:
            return {}
        tracer.add_phases(timer, tracer.open_span, "check.")
        object_s = sum(
            secs
            for path, secs in timer.seconds.items()
            if path.startswith("parity/object")
        )
        return {
            "switch.object_slots_per_s": timer.calls["parity/object/run/kernel"]
            / object_s
        }

    def drive_kernel(self, tracer: Tracer) -> Dict[str, float]:
        """The ``core`` layer on its own: a suite-built PIM kernel stepped
        through ``FastpathCrossbar.step`` over arrivals drawn up front, so
        the loop holds nothing but request formation, ``schedule`` and
        the VOQ update.  Match statistics sit in their own span and so
        stay out of both layers' self times."""
        slots, batch, ports = self.kwargs["slots"], self.replicas, self.ports
        with tracer.span("traffic.pregenerate"):
            streams = RandomStreams(self.seed)
            rng = streams.get("suite/drive-arrivals")
            shape = (slots, batch, ports)
            active = rng.random(shape) < self.load
            dest = rng.integers(0, ports, size=shape)
            arrivals = np.zeros(shape + (ports,), dtype=np.uint8)
            tt, bb, ii = np.nonzero(active)
            arrivals[tt, bb, ii, dest[tt, bb, ii]] = 1
            kernel = build_batch_scheduler(
                "pim",
                replicas=batch,
                ports=ports,
                iterations=self.iterations,
                rng=streams.get("fastpath/pim"),
            )
            switch = FastpathCrossbar(ports, batch, kernel)
            quiesce()

        inner = kernel.schedule
        counts = {"matched": 0, "possible": 0}

        def schedule(requests, occupancy=None):
            with tracer.span("core.schedule"):
                match = inner(requests, occupancy)
            with tracer.span("obs.match_stats"):
                counts["matched"] += int(np.count_nonzero(match >= 0))
                asking = requests.any(axis=2).sum(axis=1)
                asked = requests.any(axis=1).sum(axis=1)
                counts["possible"] += int(np.minimum(asking, asked).sum())
            return match

        kernel.schedule = schedule
        with tracer.span("sim.drive"):
            for slot in range(slots):
                with tracer.span("sim.step"):
                    switch.step(arrivals[slot])

        schedule_s = tracer.total("core.schedule")
        calls = tracer.calls("core.schedule")
        work = batch * ports * ports * self.iterations * calls
        return {
            "core.schedule_s": schedule_s,
            "core.schedule_calls": calls,
            "core.ns_per_cell_iter": schedule_s / work * 1e9,
            "core.matched_cells": counts["matched"],
            "core.match_fill": counts["matched"] / max(counts["possible"], 1),
            "sim.step_self_s": tracer.self_total("sim.step"),
        }

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        result, timer, _ = self.traced_operation(tracer)
        metrics = phase_metrics(timer, int(result.offered_cells.sum()))
        metrics.update(self.drive_kernel(tracer))
        return metrics


class XbarUniformN16(Crossbar):
    name = "xbar-uniform-n16"

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        metrics = super().trace(tracer, reference_wall)
        with tracer.span("obs.quiesce"):
            quiesce()
        with tracer.span("obs.probe_run"):
            run_fastpath(**self.kwargs, probe=Probe(InMemorySink()))
        # Here the traced operation differs from the untraced reference
        # by the PhaseTimer alone, the probe run by the probe alone.
        for metric, span in (
            ("obs.phase_timer_overhead_share", "operation"),
            ("obs.probe_overhead_share", "obs.probe_run"),
        ):
            metrics[metric] = (tracer.total(span) - reference_wall) / reference_wall
        return metrics


class XbarWideN32(Crossbar):
    name = "xbar-wide-n32"
    ports = 32
    replicas = 256
    slots = 160
    warmup = 20
    verify_slots = 100


class XbarSingleB1(Crossbar):
    name = "xbar-single-b1"
    replicas = 1
    slots = 20000
    object_compat = True


# ---------------------------------------------------------------------------
# 4: flow-level scenario sources driving the iSLIP kernel


class ScenarioIncast(Workload):
    name = "scenario-incast"
    scenario = "websearch-incast"
    ports = 8
    replicas = 16
    slots = 4000
    drain_slots = 2000
    warmup = 200
    verify_slots = 300

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.spec = get_scenario(self.scenario)
        with tracer.span("traffic.build"):
            self.sources = [
                self.spec.build_source(
                    derive_seed(seed, f"suite/incast/{replica}"), ports=self.ports
                )
                for replica in range(self.replicas)
            ]

    def operate(self, phase_timer=None):
        return run_fastpath(
            self.ports,
            self.spec.load,
            slots=self.scaled(self.slots, floor=40),
            replicas=self.replicas,
            scheduler="islip",
            drain_slots=self.scaled(self.drain_slots, floor=40),
            warmup=self.scaled(self.warmup, floor=1),
            warmup_mode="arrival",
            sources=self.sources,
            seed=self.seed,
            phase_timer=phase_timer,
        )

    def outcome(self, result) -> Outcome:
        fct = result.fct
        return fastpath_outcome(
            result,
            extra_arrays=[np.array(fct.observations()).reshape(-1, 2), [fct.incomplete]],
            extra_sim={"sim_p99_fct_slots": float(fct.p99_fct)},
        )

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        slots = self.scaled(self.verify_slots, floor=40)
        scenario_parity(
            self.scenario, scheduler="islip", slots=slots, seed=self.seed,
            ports=self.ports,
        )
        if tracer is None:
            return {}
        # ``scenario_parity`` takes no timer: run its object half again.
        total = slots + max(600, 2 * slots)
        switch = CrossbarSwitch(
            self.ports,
            build_object_scheduler(
                "islip", iterations=4, seed=self.seed, ports=self.ports
            ),
        )
        source = WindowedSource(
            self.spec.build_source(
                derive_seed(self.seed, "suite/oracle"), ports=self.ports
            ),
            slots,
        )
        with tracer.span("switch.object_run") as index:
            switch.run(source, slots=total)
        return {"switch.object_slots_per_s": total / tracer.seconds(index)}

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        # Time the sources' own ``arrivals`` from outside: what is left
        # of the run/arrivals phase is the adapter and the flow shadow.
        clock = time.perf_counter
        spent = {"seconds": 0.0, "calls": 0, "cells": 0}

        def timed(inner: Callable) -> Callable:
            def arrivals(slot: int):
                start = clock()
                cells = inner(slot)
                spent["seconds"] += clock() - start
                spent["calls"] += 1
                spent["cells"] += len(cells)
                return cells

            return arrivals

        for source in self.sources:
            source.arrivals = timed(source.arrivals)
        try:
            result, timer, phases = self.traced_operation(tracer)
        finally:
            for source in self.sources:
                del source.arrivals
        tracer.aggregate(
            "traffic.arrivals", spent["seconds"], spent["calls"], phases["run/arrivals"]
        )
        metrics = phase_metrics(timer, spent["cells"], spent["seconds"])
        metrics["traffic.build_s"] = tracer.total("traffic.build")
        metrics["sim_p99_fct_slots"] = float(result.fct.p99_fct)
        return metrics


# ---------------------------------------------------------------------------
# 5: Section 4, the frame-claim stage ahead of masked PIM


def random_allocations(ports: int, units: int, rng, fraction: float) -> np.ndarray:
    """A feasible allocation matrix: ``int(units * fraction)`` random
    permutation matrices summed, so every row and column holds exactly
    that many units."""
    matrix = np.zeros((ports, ports), dtype=np.int64)
    for _ in range(max(1, int(units * fraction))):
        matrix[np.arange(ports), rng.permutation(ports)] += 1
    return matrix


class CbrIntegrated(Workload):
    name = "cbr-integrated-n16"
    ports = 16
    frame_slots = 20
    utilization = 0.5
    vbr_load = 0.6
    replicas = 64
    slots = 2000
    verify_slots = 200

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        with tracer.span("cbr.admit"):
            rng = np.random.default_rng(derive_seed(seed, "suite/cbr-table"))
            matrix = random_allocations(
                self.ports, self.frame_slots, rng, self.utilization
            )
            self.table = ReservationTable(self.ports, self.frame_slots)
            for flow_id, (i, j) in enumerate(np.argwhere(matrix), start=1):
                self.table.admit(
                    Flow(
                        flow_id=flow_id,
                        src=int(i),
                        dst=int(j),
                        service=ServiceClass.CBR,
                        cells_per_frame=int(matrix[i, j]),
                    )
                )

    def operate(self, phase_timer=None):
        return run_fastpath_cbr(
            self.table,
            self.vbr_load,
            self.scaled(self.slots),
            replicas=self.replicas,
            iterations=4,
            seed=self.seed,
            phase_timer=phase_timer,
        )

    def outcome(self, result) -> Outcome:
        arrays = [
            result.offered_cbr,
            result.offered_vbr,
            result.carried_cbr,
            result.carried_vbr,
            result.cbr_backlog_integral,
            result.vbr_backlog_integral,
            result.cbr_slots_used,
            result.cbr_slots_donated,
            result.peak_cbr_buffer,
            result.final_backlog,
        ]
        return Outcome(
            replica_slots=result.replicas * (result.slots + result.drain_slots),
            cells=int(result.carried_cells.sum()),
            sim={
                "sim_mean_delay_slots": float(result.mean_delay),
                "sim_throughput": float(result.throughput),
            },
            digest=digest(arrays),
        )

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        integrated_parity(
            self.ports,
            self.frame_slots,
            self.utilization,
            self.vbr_load,
            self.scaled(self.verify_slots, floor=20),
            seed=self.seed,
        )
        return {}

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        with tracer.span("sim.cbr.compile"):
            compile_frame_schedule(self.table.schedule)
            compile_cbr_pattern(self.ports, self.table.flows(), self.frame_slots)
        result, timer, _ = self.traced_operation(tracer)
        metrics = phase_metrics(timer, int(result.offered_cells.sum()))
        metrics["sim.cbr.compile_s"] = tracer.total("sim.cbr.compile")
        metrics["sim.cbr.kernel_share"] = timer.seconds["run/kernel"] / timer.wall_seconds
        metrics["cbr.admit_s"] = tracer.total("cbr.admit")
        return metrics


# ---------------------------------------------------------------------------
# 6: Section 5, the statistical-matching lottery


class StatMatching(Workload):
    name = "stat-matching-n16"
    ports = 16
    units = 16
    utilization = 0.75
    load = 0.8
    rounds = 2
    replicas = 64
    slots = 1000
    verify_slots = 200

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        with tracer.span("core.allocations"):
            rng = np.random.default_rng(derive_seed(seed, "suite/stat-allocations"))
            self.allocations = random_allocations(
                self.ports, self.units, rng, self.utilization
            )

    def operate(self, phase_timer=None):
        return run_fastpath_statistical(
            self.allocations,
            self.units,
            self.load,
            self.scaled(self.slots),
            rounds=self.rounds,
            fill=True,
            replicas=self.replicas,
            seed=self.seed,
            phase_timer=phase_timer,
        )

    def outcome(self, result) -> Outcome:
        return fastpath_outcome(
            result, extra_arrays=[result.stat_cells, result.fill_cells]
        )

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        statistical_parity(
            self.ports,
            self.units,
            self.utilization,
            self.load,
            self.scaled(self.verify_slots, floor=20),
            seed=self.seed,
            rounds=self.rounds,
            fill=True,
        )
        return {}

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        with tracer.span("sim.stat.compile"):
            compile_stat_tables(self.allocations, self.units)
        result, timer, _ = self.traced_operation(tracer)
        metrics = phase_metrics(timer, int(result.offered_cells.sum()))
        metrics["sim.stat.compile_s"] = tracer.total("sim.stat.compile")
        metrics["sim.stat.kernel_share"] = timer.seconds["run/kernel"] / timer.wall_seconds
        return metrics


# ---------------------------------------------------------------------------
# 7: the whole-fabric fast path, many small kernel calls per slot


class FabricFatTree(Workload):
    name = "fabric-fat-tree-k4"
    size = 4
    replicas = 64
    slots = 500
    warmup = 50
    rates = (1.0, 0.6)
    shift = 3
    verify_slots = 150
    b1_slots = 200

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        with tracer.span("network.build"):
            self.topology, self.hosts = topologies.build("fat_tree", self.size)
            # One flow out of and one into every host, three hosts on:
            # some stay in the pod, most cross the core.  The endpoints
            # are the same at every seed, so the simulated load is too;
            # the seed drives host injection and every switch's matching.
            count = len(self.hosts)
            self.flows = [
                FlowSpec(
                    flow_id=source + 1,
                    src=self.hosts[source],
                    dst=self.hosts[(source + self.shift) % count],
                    rate=self.rates[source % len(self.rates)],
                )
                for source in range(count)
            ]
            router = Router(self.topology)
            for flow in self.flows:
                router.install(flow.flow_id, flow.src, flow.dst)

    def run_kwargs(self) -> Dict[str, Any]:
        return dict(
            slots=self.scaled(self.slots, floor=20),
            warmup=self.scaled(self.warmup, floor=1),
        )

    def operate(self, phase_timer=None):
        return run_fastpath_network(
            self.topology,
            self.flows,
            replicas=self.replicas,
            seed=self.seed,
            phase_timer=phase_timer,
            **self.run_kwargs(),
        )

    def outcome(self, result) -> Outcome:
        delivered = int(result.delivered.sum())
        warm = int(result.delay_cells.sum())
        return Outcome(
            replica_slots=result.replicas * result.slots,
            cells=delivered,
            sim={
                "sim_mean_delay_slots": float(result.delay_integral.sum()) / warm,
                "sim_throughput": delivered
                / (len(self.hosts) * result.replicas * result.window),
            },
            digest=digest(
                [
                    result.delivered,
                    result.injected,
                    result.delay_cells,
                    result.delay_integral,
                    result.final_backlog,
                ]
            ),
        )

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        network_parity(
            "fat_tree",
            self.size,
            n_flows=len(self.flows),
            slots=self.scaled(self.verify_slots, floor=20),
            seed=self.seed,
        )
        return {}

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        # ``run_fastpath_network`` taken apart, so construction and
        # routing (ctor + add_flow) are timed apart from the slot loop.
        with tracer.span("obs.quiesce"):
            quiesce()
        timer = PhaseTimer()
        with tracer.span("operation"):
            with tracer.span("sim.net.compile"):
                fabric = NetworkFastpath(
                    self.topology, replicas=self.replicas, seed=self.seed
                )
                for flow in self.flows:
                    fabric.add_flow(flow)
            with tracer.span("sim.net.run") as run_index:
                result = fabric.run(phase_timer=timer, **self.run_kwargs())
        tracer.add_phases(timer, run_index, "sim.")
        metrics = phase_metrics(timer, int(result.injected.sum()))
        metrics["sim.net.compile_s"] = tracer.total("sim.net.compile")
        metrics["sim.net.delivery_s"] = timer.seconds["run/delivery"]
        metrics["sim.net.kernel_s"] = timer.seconds["run/kernel"]
        metrics["network.build_s"] = tracer.total("network.build")

        # ROADMAP 1d: the fast path at B=1 is slower than the object model.
        slots = self.scaled(self.b1_slots, floor=20)
        with tracer.span("sim.net.b1_run") as index:
            run_fastpath_network(
                self.topology, self.flows, slots, replicas=1, seed=self.seed
            )
        metrics["sim.net.b1_slots_per_s"] = slots / tracer.seconds(index)
        return metrics


# ---------------------------------------------------------------------------
# 8: what a user types -- a fresh ``repro-an2 fleet run`` over a committed spec


def timed_process(arguments: List[str]) -> float:
    """Wall of ``python <arguments>`` from spawn to exit; raises if it fails."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable] + arguments,
        env={**os.environ, "PYTHONPATH": str(SOURCE_DIR)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"python {' '.join(arguments)} exited {done.returncode}:\n{done.stdout}"
        )
    return wall


class FleetSchedZoo(Workload):
    name = "fleet-sched-zoo"
    template = SUITE_DIR / "specs" / "zoo.json"
    pool = 2

    def setup(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.runs = 0
        with tracer.span("fleet.expand"):
            # The committed spec with the run's seed: ``fleet run`` reads
            # the root seed from the file, so the seeded copy is the input.
            document = json.loads(self.template.read_text())
            document["seed"] = seed
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.spec_path = self.workdir / "zoo.json"
            self.spec_path.write_text(json.dumps(document, indent=2))
            self.spec = load_spec(self.spec_path)
            self.extra = (
                {} if self.scale == 1.0 else {"slots": self.scaled(1000, floor=20)}
            )
            self.cells = expand_cells(self.spec, self.extra)

    def operate(self, phase_timer=None, pool: Optional[int] = None):
        """One fresh CLI process; returns the records it stored."""
        self.runs += 1
        results = self.workdir / f"results-{self.runs}.jsonl"
        arguments = [
            "-m", "repro.cli", "fleet", "run", str(self.spec_path),
            "--pool", str(pool or self.pool), "--results", str(results),
        ]
        for key, value in self.extra.items():
            arguments += ["--set", f"{key}={value}"]
        timed_process(arguments)
        records = sorted(SweepStore(results).load(), key=lambda r: r["index"])
        results.unlink()
        if [r["status"] for r in records] != ["done"] * len(self.cells):
            raise RuntimeError(f"fleet run left {records!r}")
        self.records = records
        return records

    def peak_rss_mb(self) -> float:
        # The operation is a child: only its ``ru_maxrss`` is left, which
        # never reads below this process's own size when it spawned the
        # child (see ``harness.peak_rss_mb``) -- about what the CLI imports.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def outcome(self, records) -> Outcome:
        replica_slots = cells = 0
        for record, cell in zip(records, self.cells):
            params = cell.params
            cell_slots = params["replicas"] * params["slots"]
            replica_slots += cell_slots
            cells += round(record["metrics"]["throughput"] * params["ports"] * cell_slots)
        canonical = json.dumps(
            [[r["cell_key"], r["seed"], r["metrics"]] for r in records], sort_keys=True
        )
        return Outcome(
            replica_slots=replica_slots,
            cells=cells,
            sim={
                "sim_mean_delay_slots": statistics.fmean(
                    r["metrics"]["mean_delay"] for r in records
                ),
                "sim_throughput": statistics.fmean(
                    r["metrics"]["throughput"] for r in records
                ),
            },
            digest=digest([np.frombuffer(canonical.encode(), dtype=np.uint8)]),
        )

    def verify(self, tracer: Optional[Tracer] = None) -> Dict[str, float]:
        """Every kernel of the spec against its slot-exact object twin, and
        one cell re-run in this process against what the pool stored."""
        params = self.cells[0].params
        for cell in self.cells:
            backend_parity(
                params["ports"],
                params["load"],
                self.scaled(100, floor=20),
                seed=self.seed,
                iterations=params["iterations"],
                scheduler=cell.params["scheduler"],
            )
        fastest = next(c for c in self.cells if c.params["scheduler"] == "wavefront")
        stored = self.records[fastest.index]["metrics"]
        rerun = run_cell(fastest, self.spec.kind)["metrics"]
        if rerun != stored:
            raise AssertionError(
                f"cell {fastest.label()} re-run in process gave {rerun}, "
                f"the pool stored {stored}"
            )
        return {}

    def trace(self, tracer: Tracer, reference_wall: float) -> Dict[str, float]:
        with tracer.span("cli.import_probe"):
            bare = statistics.median(timed_process(["-c", "pass"]) for _ in range(3))
            imported = statistics.median(
                timed_process(["-c", "import repro.cli"]) for _ in range(3)
            )
        import_s = imported - bare

        # The process cannot be spanned from outside; one worker makes
        # the cells' own ``elapsed`` add up, and what the sum and the
        # import leave of the wall is the runner's overhead.
        with tracer.span("operation") as index:
            records = self.operate(pool=1)
        elapsed = sum(record["elapsed"] for record in records)
        tracer.aggregate("cli.import", import_s, 1, index)
        tracer.aggregate("fleet.cell", elapsed, len(records), index)

        with tracer.span("fleet.append"):
            store = SweepStore(self.workdir / "append.jsonl")
            appends = []
            for _ in range(5):
                for record in records:
                    start = time.perf_counter()
                    store.append(record)
                    appends.append(time.perf_counter() - start)
            store.path.unlink()
        with tracer.span("fleet.report"):
            render_report(self.spec, records)

        metrics = {
            "cli.import_s": import_s,
            "fleet.expand_s": tracer.total("fleet.expand"),
            "fleet.cells": len(records),
            "fleet.cell_elapsed_s": elapsed,
            "fleet.overhead_s": tracer.seconds(index) - elapsed - import_s,
            "fleet.append_s": statistics.median(appends),
            "fleet.report_s": tracer.total("fleet.report"),
        }
        for record, cell in zip(records, self.cells):
            name = f"core.{cell.params['scheduler']}.replica_slots_per_s"
            metrics[name] = record["timing"]["slots_per_sec"]
        return metrics


WORKLOADS = (
    XbarUniformN16,
    XbarWideN32,
    XbarSingleB1,
    ScenarioIncast,
    CbrIntegrated,
    StatMatching,
    FabricFatTree,
    FleetSchedZoo,
)


def build_workload(name: str, scale: float = 1.0, workdir: Optional[Path] = None) -> Workload:
    """Instantiate the workload called ``name``."""
    for cls in WORKLOADS:
        if cls.name == name:
            return cls(scale=scale, workdir=workdir)
    raise ValueError(
        f"unknown workload {name!r}; known: {', '.join(c.name for c in WORKLOADS)}"
    )
