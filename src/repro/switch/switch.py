"""Slot-clocked single-switch models.

:class:`CrossbarSwitch` is the AN2 model: random-access (per-flow VOQ)
input buffers, a pluggable matching scheduler (PIM, iSLIP, wavefront,
maximum matching, statistical matching), and a non-blocking fabric.  It
never drops a cell and never reorders a flow.

:class:`FIFOSwitch` is the Section 2.4 baseline: one FIFO per input,
only head cells contend, head-of-line blocking and all.

Both, and every other single-switch object model (output queueing,
windowed FIFO, the k-replicated switch, the integrated CBR + VBR
switch), run the one slot loop of :class:`SlotSwitch`.

Timing convention (uniform across all models so the Figure 3/4/5 curves
are comparable): arrivals land at the start of a slot, the scheduler
then computes the matching from the post-arrival queue state, matched
cells cross the fabric and depart at the end of the same slot.  A cell
that arrives and is immediately scheduled thus has queueing delay 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.matching import Matching
from repro.obs.perf import NULL_PHASE_TIMER
from repro.sim.stats import DelayStats, FlowStats, ThroughputCounter
from repro.switch.buffers import FIFOInputBuffer, OutputQueue, VOQBuffer
from repro.switch.cell import Cell, ServiceClass
from repro.switch.fabric import CrossbarFabric, Fabric
from repro.switch.results import SwitchResult

__all__ = [
    "MatchScheduler",
    "TrafficSource",
    "reset_traffic",
    "SlotSwitch",
    "CrossbarSwitch",
    "FIFOSwitch",
    "SwitchResult",
]


@runtime_checkable
class MatchScheduler(Protocol):
    """Anything that maps a request matrix to a matching, once per slot."""

    def schedule(self, requests: np.ndarray) -> Matching:
        """Return the matching for this slot."""

    def reset(self) -> None:
        """Clear cross-slot state before a fresh run."""


@runtime_checkable
class TrafficSource(Protocol):
    """A single-switch arrival process.

    Sources that carry cross-slot state (RNG streams, sequence numbers,
    burst/on-off state) also expose ``reset()`` restoring the
    as-constructed state; run entry points call it (when present) so a
    rerun with the same source replays the identical arrival trace --
    the same rerun contract schedulers honour.  Flow-aware sources
    additionally expose ``flow_records()`` (see
    :mod:`repro.traffic.flows`) which switches use to report per-flow
    completion-time statistics.
    """

    ports: int

    def arrivals(self, slot: int) -> List[Tuple[int, Cell]]:
        """Cells arriving in ``slot`` as (input_port, cell) pairs."""


def reset_traffic(traffic) -> None:
    """Rewind a traffic source if it supports the rerun contract."""
    reset = getattr(traffic, "reset", None)
    if callable(reset):
        reset()


class _OrderChecker:
    """Asserts per-flow FIFO order at departure (Section 3.1 guarantee).

    A flow is keyed by ``(service, flow_id)``: CBR flow ids are chosen by
    the caller and may coincide with a VBR source's ids.
    """

    def __init__(self) -> None:
        self._last_seqno: Dict[Tuple[ServiceClass, int], int] = {}
        self.violations = 0

    def observe(self, cell: Cell) -> None:
        key = (cell.service, cell.flow_id)
        last = self._last_seqno.get(key)
        if last is not None and cell.seqno <= last:
            self.violations += 1
        self._last_seqno[key] = cell.seqno


class SlotSwitch:
    """The one slot loop shared by every single-switch object model.

    Every model is the same recursion, Q <- Q + A - S, with its own
    buffers and arbiter.  A subclass validates its configuration in
    ``__init__`` and then calls :meth:`reset`, the only method that
    assigns its mutable state (buffers, queues, counters) and that
    rewinds its scheduler, if it has one.  :meth:`run` starts with
    ``reset()``, so rerunning the same (switch, traffic) pair replays
    the same trajectory by construction.

    A subclass supplies ``ports``, ``step(slot, arrivals)`` returning the
    cells that departed, and ``backlog()``; a traceable one also accepts
    ``step(..., probe=probe)`` and supplies ``occupancy_matrix()``.  A
    lossy switch counts its losses in ``dropped_cells``.
    """

    #: Cells the switch dropped this run; lossless models keep 0.
    dropped_cells = 0

    def reset(self) -> None:
        """Empty the switch and rewind its scheduler."""
        raise NotImplementedError

    def run(
        self,
        traffic,
        slots: int,
        warmup: int = 0,
        probe=None,
        phase_timer=None,
    ) -> SwitchResult:
        """Simulate ``slots`` slots of ``traffic`` and collect statistics.

        ``traffic`` is one :class:`TrafficSource` or a list of them (e.g.
        a CBR source plus a VBR background); each slot's arrivals are
        theirs in list order.  Observations from cells arriving before
        ``warmup`` are discarded, per the paper's transient elimination.
        Raises ``ValueError`` if a source's port count mismatches, and
        ``AssertionError`` if a flow's cells depart out of order (flows
        are keyed by service class and flow id).

        Parameters
        ----------
        probe:
            Optional :class:`repro.obs.probe.Probe` (traceable switches
            only).  When enabled, every slot emits ``SlotBegin``
            (offered arrivals + pre-arrival backlog), the events of the
            switch's ``step`` (``CrossbarTransfer`` at least), and
            per-cell ``CellDeparture`` events; slots the probe samples
            additionally emit the PIM per-iteration anatomy (when the
            scheduler supports ``attach_probe``) and a ``VoqSnapshot``.
            The default disabled probe adds one attribute check per
            slot -- the tier-1 overhead test holds it under 5%.
        phase_timer:
            Optional :class:`repro.obs.perf.PhaseTimer`; profiles the
            run under the shared taxonomy (``run`` root with
            ``run/arrivals``, ``run/kernel`` the per-slot step, and
            ``run/update`` departure accounting).  The disabled default
            costs one attribute read per span.
        """
        sources = list(traffic) if isinstance(traffic, (list, tuple)) else [traffic]
        for source in sources:
            if source.ports != self.ports:
                raise ValueError(
                    f"traffic is for {source.ports} ports, switch has "
                    f"{self.ports} (port mismatch)"
                )
        timer = (
            phase_timer
            if phase_timer is not None and phase_timer.enabled
            else NULL_PHASE_TIMER
        )
        scheduler = getattr(self, "scheduler", None)
        attach = getattr(scheduler, "attach_probe", None)
        with timer.phase("run"):
            self.reset()
            for source in sources:
                reset_traffic(source)
            traced = probe is not None and probe.enabled
            if traced and attach is not None:
                attach(probe)
            delay = DelayStats(warmup=warmup)
            delay_by_service = {
                service: DelayStats(warmup=warmup) for service in ServiceClass
            }
            counter = ThroughputCounter(warmup=warmup)
            connection: Dict[Tuple[int, int], int] = {}
            order = _OrderChecker()
            input_of_cell: Dict[int, int] = {}
            arrivals_by_input = [0] * self.ports
            departures_by_output = [0] * self.ports
            flow_records = [
                source.flow_records
                for source in sources
                if callable(getattr(source, "flow_records", None))
            ]
            departed_of_flow: Dict[int, int] = {}
            last_departure_slot: Dict[int, int] = {}

            for slot in range(slots):
                with timer.phase("arrivals"):
                    arrivals = [
                        pair for source in sources for pair in source.arrivals(slot)
                    ]
                counter.record_arrival(slot, len(arrivals))
                for input_port, cell in arrivals:
                    input_of_cell[cell.uid] = input_port
                    if slot >= warmup:
                        arrivals_by_input[input_port] += 1
                if traced:
                    probe.begin_slot(
                        slot, arrivals=len(arrivals), backlog=self.backlog()
                    )
                with timer.phase("kernel"):
                    if traced:
                        departures = self.step(slot, arrivals, probe=probe)
                    else:
                        departures = self.step(slot, arrivals)
                with timer.phase("update"):
                    counter.record_departure(slot, len(departures))
                    for cell in departures:
                        delay.record(cell.arrival_slot, slot)
                        delay_by_service[cell.service].record(cell.arrival_slot, slot)
                        order.observe(cell)
                        if flow_records:
                            fid = cell.flow_id
                            departed_of_flow[fid] = departed_of_flow.get(fid, 0) + 1
                            last_departure_slot[fid] = slot
                        if slot >= warmup:
                            departures_by_output[cell.output] += 1
                        src = input_of_cell.pop(cell.uid, None)
                        if traced:
                            probe.departure(
                                src if src is not None else -1,
                                cell.output,
                                slot - cell.arrival_slot,
                                flow_id=cell.flow_id,
                            )
                        if src is not None and cell.arrival_slot >= warmup:
                            key = (src, cell.output)
                            connection[key] = connection.get(key, 0) + 1
                if traced and probe.sampling:
                    probe.voq_snapshot(self.occupancy_matrix(), replica=0)

        if traced and attach is not None:
            attach(None)
        if traced and timer.enabled:
            probe.phase_profile(timer, slots=slots)
        if order.violations:
            raise AssertionError(
                f"{order.violations} per-flow order violations -- switch bug"
            )
        fct = None
        if flow_records:
            fct = FlowStats(warmup=warmup)
            for records in flow_records:
                for fid, record in records().items():
                    if departed_of_flow.get(fid, 0) >= record.size:
                        fct.record(
                            record.size, record.start_slot, last_departure_slot[fid]
                        )
                    else:
                        fct.incomplete += 1
        return SwitchResult(
            delay=delay,
            counter=counter,
            ports=self.ports,
            slots=slots,
            connection_cells=connection,
            backlog=self.backlog(),
            dropped=self.dropped_cells,
            arrivals_by_input=tuple(arrivals_by_input),
            departures_by_output=tuple(departures_by_output),
            fct=fct,
            delay_by_service=delay_by_service,
        )


class CrossbarSwitch(SlotSwitch):
    """Input-buffered switch with random-access buffers (the AN2 model).

    Parameters
    ----------
    ports:
        Switch size N.
    scheduler:
        A :class:`MatchScheduler`; typically
        :class:`repro.core.pim.PIMScheduler`.
    fabric:
        Data path; defaults to a crossbar.  Any non-blocking
        :class:`repro.switch.fabric.Fabric` works (Section 2.2).
    speedup:
        Cells the fabric may deliver per output per slot (Section 2.4's
        k-replication).  With ``speedup > 1`` cells pass through output
        queues and depart at one per slot; the scheduler must be
        configured with a matching ``output_capacity``.

    Examples
    --------
    >>> from repro.core.pim import PIMScheduler
    >>> from repro.traffic.uniform import UniformTraffic
    >>> switch = CrossbarSwitch(4, PIMScheduler(seed=0))
    >>> result = switch.run(UniformTraffic(4, load=0.5, seed=1), slots=500)
    >>> result.dropped
    0
    """

    def __init__(
        self,
        ports: int,
        scheduler: MatchScheduler,
        fabric: Optional[Fabric] = None,
        speedup: int = 1,
    ):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        if speedup < 1:
            raise ValueError(f"speedup must be >= 1, got {speedup}")
        self.ports = ports
        self.scheduler = scheduler
        self.fabric = fabric if fabric is not None else CrossbarFabric(ports)
        if self.fabric.ports != ports:
            raise ValueError("fabric size does not match switch size")
        self.speedup = speedup
        self.reset()

    def reset(self) -> None:
        """Empty the input buffers and output queues; rewind the scheduler."""
        self.scheduler.reset()
        self.buffers = [VOQBuffer(self.ports) for _ in range(self.ports)]
        self.output_queues = (
            [OutputQueue() for _ in range(self.ports)] if self.speedup > 1 else None
        )

    def request_matrix(self) -> np.ndarray:
        """Boolean N x N occupancy snapshot the scheduler sees."""
        matrix = np.zeros((self.ports, self.ports), dtype=bool)
        for i, buffer in enumerate(self.buffers):
            matrix[i] = buffer.request_vector()
        return matrix

    def occupancy_matrix(self) -> np.ndarray:
        """Queued-cell counts per (input, output) VOQ.

        Supplied to schedulers that declare ``needs_occupancy`` (e.g.
        :class:`repro.core.lqf.LQFScheduler`); the AN2 schedulers use
        only the boolean request matrix.
        """
        matrix = np.zeros((self.ports, self.ports), dtype=np.int64)
        for i, buffer in enumerate(self.buffers):
            for j in range(self.ports):
                matrix[i, j] = buffer.occupancy_for(j)
        return matrix

    def step(
        self,
        slot: int,
        arrivals: Sequence[Tuple[int, Cell]],
        probe=None,
    ) -> List[Cell]:
        """Advance one slot; returns the cells that departed.

        Arrivals are enqueued first, so a cell can be scheduled in its
        arrival slot (delay 0).  With ``speedup == 1`` the fabric
        delivers straight onto the output links; with ``speedup > 1``
        delivered cells enter output queues and one per output departs.
        When a :class:`repro.obs.probe.Probe` is supplied, the slot
        emits a ``CrossbarTransfer`` event (cells crossing the fabric,
        which with ``speedup > 1`` can exceed the departures returned).
        """
        for input_port, cell in arrivals:
            if not 0 <= input_port < self.ports:
                raise ValueError(f"arrival at invalid input {input_port}")
            cell.arrival_slot = slot
            self.buffers[input_port].enqueue(cell)

        if getattr(self.scheduler, "needs_occupancy", False):
            matching = self.scheduler.schedule(
                self.request_matrix(), self.occupancy_matrix()
            )
        else:
            matching = self.scheduler.schedule(self.request_matrix())
        selected: List[Tuple[int, Cell]] = []
        for i, j in matching:
            # The scheduler may only match requested pairs; dequeue
            # raises if it matched an empty VOQ.
            selected.append((i, self.buffers[i].dequeue(j)))
        delivered = self.fabric.transfer(selected)
        if probe is not None:
            probe.transfer(len(selected))

        if self.output_queues is None:
            return [cells[0] for cells in delivered.values()]
        departures: List[Cell] = []
        for j, queue in enumerate(self.output_queues):
            for cell in delivered.get(j, []):
                queue.enqueue(cell)
            departed = queue.depart()
            if departed is not None:
                departures.append(departed)
        return departures

    def backlog(self) -> int:
        """Cells currently buffered anywhere in the switch."""
        total = sum(len(b) for b in self.buffers)
        if self.output_queues is not None:
            total += sum(len(q) for q in self.output_queues)
        return total


class FIFOSwitch(SlotSwitch):
    """FIFO-input-buffered switch baseline (Section 2.4).

    One FIFO per input; only head cells contend for outputs.  Output
    contention is resolved by the supplied
    :class:`repro.core.fifo.FIFOScheduler` (random or rotating
    priority).  Exhibits head-of-line blocking (Karol's 58.6% uniform
    saturation) and stationary blocking under periodic traffic
    (Figure 1).
    """

    def __init__(self, ports: int, scheduler: "HeadArbiter"):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        self.ports = ports
        self.scheduler = scheduler
        self.fabric = CrossbarFabric(ports)
        self.reset()

    def reset(self) -> None:
        """Empty the input FIFOs and rewind the arbiter."""
        self.scheduler.reset()
        self.buffers = [FIFOInputBuffer() for _ in range(self.ports)]

    def step(self, slot: int, arrivals: Sequence[Tuple[int, Cell]]) -> List[Cell]:
        """Advance one slot; returns departed cells."""
        for input_port, cell in arrivals:
            cell.arrival_slot = slot
            self.buffers[input_port].enqueue(cell)
        heads = np.full(self.ports, -1, dtype=np.int64)
        for i, buffer in enumerate(self.buffers):
            head = buffer.head()
            if head is not None:
                heads[i] = head.output
        matching = self.scheduler.arbitrate(heads)
        selected = [(i, self.buffers[i].pop()) for i, _ in matching]
        delivered = self.fabric.transfer(selected)
        return [cells[0] for cells in delivered.values()]

    def backlog(self) -> int:
        """Cells currently buffered at the inputs."""
        return sum(len(b) for b in self.buffers)


class HeadArbiter(Protocol):
    """Resolves output contention among FIFO head cells."""

    def arbitrate(self, head_destinations: np.ndarray) -> Matching:
        """Given each input's head-cell destination (-1 = empty), match."""

    def reset(self) -> None:
        """Clear cross-slot state."""
