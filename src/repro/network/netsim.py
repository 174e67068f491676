"""Slot-clocked multi-switch network simulation.

Composes host sources, links, and per-switch VOQ+scheduler cores into
one network, advancing everything in lockstep cell slots.  Each switch
runs its own scheduler instance (PIM by default); cells hop from
switch to switch with the link latency, and per-flow end-to-end
statistics are collected at the destination hosts.

This substrate backs the Figure 9 parking-lot unfairness experiment
(flows merging along a chain of switches toward a bottleneck link) and
end-to-end delay checks for CBR/VBR mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pim import PIMScheduler
from repro.network.routing import Router
from repro.obs.perf import NULL_PHASE_TIMER
from repro.network.topology import Topology
from repro.sim.rng import RandomStreams
from repro.sim.stats import DelayStats
from repro.switch.buffers import VOQBuffer
from repro.switch.cell import Cell, ServiceClass
from repro.switch.fabric import CrossbarFabric

__all__ = [
    "FlowSpec",
    "HostSource",
    "NetworkSimulator",
    "NetworkResult",
    "NetworkSlotRecord",
]


@dataclass(frozen=True)
class FlowSpec:
    """A host-to-host flow the simulator should carry.

    ``rate`` is the cells-per-slot injection rate; ``rate >= 1`` makes
    the flow *greedy* (always has a cell ready -- the saturated sources
    of Figure 9), ``inf`` included.  A negative or NaN rate is rejected.
    """

    flow_id: int
    src: str
    dst: str
    rate: float

    def __post_init__(self) -> None:
        if not self.rate >= 0:  # NaN compares false
            raise ValueError(
                f"flow {self.flow_id}: rate must be non-negative, got {self.rate}"
            )


class HostSource:
    """Per-host injection: one cell per slot onto the host's link.

    A host controller drives a single link, so when several of its
    flows have cells ready it injects round-robin among them; greedy
    flows always have a cell ready, stochastic flows accumulate
    Bernoulli arrivals in a pending counter.
    """

    def __init__(self, host: str, flows: List[FlowSpec], rng: np.random.Generator):
        self.host = host
        self.flows = flows
        self._rng = rng
        self._pending = {f.flow_id: 0 for f in flows}
        self._seqno = {f.flow_id: 0 for f in flows}
        self._cursor = 0

    def add_flow(self, flow: FlowSpec) -> None:
        """Register one more flow on this host's link.

        Keeps the pending/sequence counters consistent with the flow
        list so callers never have to reach into them.
        """
        self.flows.append(flow)
        self._pending[flow.flow_id] = 0
        self._seqno[flow.flow_id] = 0

    def reset(self, rng: Optional[np.random.Generator] = None) -> None:
        """Clear injection state (and optionally swap in a fresh stream)
        so the next run starts from the same origin as the first."""
        if rng is not None:
            self._rng = rng
        self._pending = {f.flow_id: 0 for f in self.flows}
        self._seqno = {f.flow_id: 0 for f in self.flows}
        self._cursor = 0

    def emit(self, slot: int) -> Optional[Cell]:
        """The cell this host injects in ``slot``, or None.

        Stochastic flows first accumulate Bernoulli arrivals into their
        pending counters; the link then serves one ready flow.  Service
        rotates over the *stable* flow list, not over the slot's ready
        subset: the cursor marks the flow after the last one served,
        and the first ready flow at or after it is chosen.  (Indexing a
        cursor into the changing ready-subset instead lets a flow be
        served twice in a row -- or be skipped -- whenever another
        flow's readiness flips between slots.)
        """
        for flow in self.flows:
            if flow.rate < 1.0 and self._rng.random() < flow.rate:
                self._pending[flow.flow_id] += 1
        chosen = None
        for offset in range(len(self.flows)):
            candidate = self.flows[(self._cursor + offset) % len(self.flows)]
            if candidate.rate >= 1.0 or self._pending[candidate.flow_id] > 0:
                chosen = candidate
                self._cursor = (self._cursor + offset + 1) % len(self.flows)
                break
        if chosen is None:
            return None
        if chosen.rate < 1.0:
            self._pending[chosen.flow_id] -= 1
        seq = self._seqno[chosen.flow_id]
        self._seqno[chosen.flow_id] = seq + 1
        return Cell(
            flow_id=chosen.flow_id,
            output=-1,  # resolved per switch from the routing table
            service=ServiceClass.VBR,
            seqno=seq,
            injected_slot=slot,
        )


@dataclass(frozen=True)
class NetworkSlotRecord:
    """One slot's observable network state, for differential checks.

    Handed to the optional ``observer`` callback of
    :meth:`NetworkSimulator.run` at the end of every slot.  The fields
    are exactly what the vectorized network fast path
    (:mod:`repro.sim.fastpath_network`) reproduces, so a slot-exact
    comparison of the two backends reduces to comparing these records
    (see :func:`repro.check.differential.network_parity`).
    """

    slot: int
    injected: Dict[int, int]  # flow_id -> cells injected this slot
    delivered: Dict[int, int]  # flow_id -> cells delivered this slot
    transfers: Dict[str, int]  # switch -> cells crossing its fabric
    backlog: Dict[str, int]  # switch -> buffered cells at slot end


@dataclass
class NetworkResult:
    """Per-flow end-to-end statistics from a network run."""

    delivered: Dict[int, int] = field(default_factory=dict)
    delay: Dict[int, DelayStats] = field(default_factory=dict)
    slots: int = 0
    warmup: int = 0

    def throughput(self, flow_id: int) -> float:
        """Delivered cells per slot for one flow (post-warm-up)."""
        window = self.slots - self.warmup
        if window <= 0:
            return 0.0
        return self.delivered.get(flow_id, 0) / window

    def shares(self) -> Dict[int, float]:
        """Each flow's fraction of all delivered cells."""
        total = sum(self.delivered.values())
        if total == 0:
            return {flow_id: 0.0 for flow_id in self.delivered}
        return {flow_id: count / total for flow_id, count in self.delivered.items()}


class _SwitchCore:
    """One switch's buffers + scheduler + fabric inside the network."""

    def __init__(self, name: str, ports: int, scheduler):
        self.name = name
        self.ports = ports
        self.scheduler = scheduler
        self.buffers = [VOQBuffer(ports) for _ in range(ports)]
        self.fabric = CrossbarFabric(ports)

    def reset(self) -> None:
        """Empty the VOQ buffers and restore the scheduler's state."""
        self.buffers = [VOQBuffer(self.ports) for _ in range(self.ports)]
        if hasattr(self.scheduler, "reset"):
            self.scheduler.reset()

    def accept(self, port: int, cell: Cell, slot: int) -> None:
        cell.arrival_slot = slot
        self.buffers[port].enqueue(cell)

    def schedule_and_transfer(
        self, blocked_outputs: Optional[set] = None
    ) -> List[Tuple[int, Cell]]:
        """Run the scheduler; returns (output_port, cell) departures.

        ``blocked_outputs`` are output ports whose downstream buffer
        has no credit (link-level flow control); their request columns
        are masked so the scheduler gives the slots to other traffic.
        """
        requests = np.zeros((self.ports, self.ports), dtype=bool)
        for i, buffer in enumerate(self.buffers):
            requests[i] = buffer.request_vector()
        if blocked_outputs:
            for j in blocked_outputs:
                requests[:, j] = False
        matching = self.scheduler.schedule(requests)
        selected = [(i, self.buffers[i].dequeue(j)) for i, j in matching]
        delivered = self.fabric.transfer(selected)
        return [(j, cells[0]) for j, cells in delivered.items()]

    def input_occupancy(self, port: int) -> int:
        return len(self.buffers[port])

    def backlog(self) -> int:
        return sum(len(b) for b in self.buffers)


class NetworkSimulator:
    """Drive a topology of switches and host sources slot by slot.

    Parameters
    ----------
    topology:
        The network graph.
    scheduler_factory:
        Called once per switch as ``factory(switch_name, ports)``;
        defaults to fresh 4-iteration PIM schedulers with per-switch
        derived seeds.
    seed:
        Root seed for all randomness (host sources, schedulers).
    buffer_limit:
        Optional per-input-port VBR buffer size in cells.  When set,
        link-level flow control engages: a sender (switch or host)
        must not transmit onto a link whose far-end input buffer has
        no credit -- the Section 4 note that "VBR cells use a
        different set of buffers, which are subject to flow control".
        Because a cell can already be in flight when credit runs out,
        occupancy may overshoot by up to the link latency; the limit
        plus that slack is a hard bound (asserted in tests).
    """

    def __init__(
        self,
        topology: Topology,
        scheduler_factory: Optional[Callable[[str, int], object]] = None,
        seed: Optional[int] = None,
        buffer_limit: Optional[int] = None,
    ):
        if buffer_limit is not None and buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        self.buffer_limit = buffer_limit
        self.topology = topology
        self.router = Router(topology)
        self._streams = RandomStreams(seed)
        if scheduler_factory is None:
            def scheduler_factory(name: str, ports: int):
                return PIMScheduler(seed=int(self._streams.get(f"sched:{name}").integers(2**31)))
        self._switches: Dict[str, _SwitchCore] = {
            node.name: _SwitchCore(node.name, node.ports, scheduler_factory(node.name, node.ports))
            for node in topology.switches()
        }
        self._sources: Dict[str, HostSource] = {}
        self._flows: Dict[int, FlowSpec] = {}
        # Cells in flight: arrival_slot -> list of (node, port, cell).
        self._in_transit: Dict[int, List[Tuple[str, int, Cell]]] = {}

    def add_flow(self, flow: FlowSpec, path: Optional[List[str]] = None) -> None:
        """Register a flow: install its route and its host source."""
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        self.router.install(flow.flow_id, flow.src, flow.dst, path)
        self._flows[flow.flow_id] = flow
        if flow.src not in self._sources:
            self._sources[flow.src] = HostSource(
                flow.src, [], self._streams.get(f"host:{flow.src}")
            )
        self._sources[flow.src].add_flow(flow)

    def _ship(self, node: str, port: int, cell: Cell, slot: int) -> Optional[Tuple[str, int]]:
        """Put a cell on the link leaving (node, port)."""
        link = self.topology.link_at(node, port)
        if link is None:
            raise AssertionError(f"cell departed unconnected port {port} of {node}")
        peer, peer_port = link.endpoint(node)
        self._in_transit.setdefault(slot + link.latency, []).append((peer, peer_port, cell))
        return peer, peer_port

    def _reset_run_state(self) -> None:
        """Restore the network to its as-built state before a run.

        ``run`` restarts its slot clock at 0, so any state keyed by or
        accumulated over absolute slots -- cells in flight (keyed by
        arrival slot), switch VOQ buffers, host pending/sequence
        counters, and every random stream -- must be rewound with it.
        Without this, a second ``run()`` revives stale in-flight cells
        from the first (their arrival slots land inside the new clock)
        and records nonsense (even negative) delays against them.
        Resetting rather than carrying a continuous clock makes a rerun
        of the same simulator replay the first run draw for draw, the
        same contract the schedulers' ``reset()`` honors.
        """
        self._in_transit.clear()
        for core in self._switches.values():
            core.reset()
        for host, source in self._sources.items():
            source.reset(self._streams.restart(f"host:{host}"))

    def run(
        self,
        slots: int,
        warmup: int = 0,
        observer: Optional[Callable[[NetworkSlotRecord], None]] = None,
        phase_timer=None,
    ) -> NetworkResult:
        """Simulate ``slots`` slots; returns per-flow statistics.

        Each call is an independent replay from slot 0: all network
        state (in-flight cells, buffers, counters, random streams) is
        reset first, so two ``run()`` calls on the same simulator
        produce identical results.

        ``observer``, when given, is called at the end of every slot
        with a :class:`NetworkSlotRecord` of that slot's injections,
        deliveries, per-switch transfer counts, and per-switch backlog
        (unfiltered by ``warmup``).  It costs nothing when omitted.

        ``phase_timer``, when given an enabled
        :class:`repro.obs.perf.PhaseTimer`, profiles the run under the
        shared taxonomy: ``run`` root, ``run/delivery`` link deliveries
        landing, ``run/arrivals`` host injection, ``run/kernel``
        per-switch scheduling and transfer, ``run/update`` observer
        bookkeeping.
        """
        timer = (
            phase_timer
            if phase_timer is not None and phase_timer.enabled
            else NULL_PHASE_TIMER
        )
        with timer.phase("run"):
            self._reset_run_state()
            result = NetworkResult(slots=slots, warmup=warmup)
            for flow_id in self._flows:
                result.delivered[flow_id] = 0
                result.delay[flow_id] = DelayStats(warmup=warmup)

            for slot in range(slots):
                injected_now: Dict[int, int] = {}
                delivered_now: Dict[int, int] = {}
                transfers_now: Dict[str, int] = {}
                # 1. Link deliveries land: at switches they are buffered;
                #    at hosts the cell has arrived end-to-end.
                with timer.phase("delivery"):
                    for node, port, cell in self._in_transit.pop(slot, []):
                        spec = self.topology.node(node)
                        if spec.is_switch:
                            cell.output = self.router.output_port(
                                node, cell.flow_id
                            )
                            self._switches[node].accept(port, cell, slot)
                        else:
                            route = self.router.route(cell.flow_id)
                            if route.dst != node:
                                raise AssertionError(
                                    f"flow {cell.flow_id} delivered to {node}, "
                                    f"expected {route.dst}"
                                )
                            # Throughput counts deliveries in the
                            # measurement window; with saturated sources a
                            # cell's injection slot can precede the window
                            # by an unbounded queueing backlog, so
                            # filtering on injection would silently
                            # discard slow flows entirely.
                            if slot >= warmup:
                                result.delivered[cell.flow_id] += 1
                            if cell.injected_slot >= warmup:
                                result.delay[cell.flow_id].record(
                                    cell.injected_slot, slot
                                )
                            if observer is not None:
                                delivered_now[cell.flow_id] = (
                                    delivered_now.get(cell.flow_id, 0) + 1
                                )
                # 2. Hosts inject one cell each onto their links (holding
                #    back when the far-end buffer has no credit).
                with timer.phase("arrivals"):
                    for host, source in self._sources.items():
                        if not self._has_credit(host, 0):
                            continue
                        cell = source.emit(slot)
                        if cell is not None:
                            self._ship(host, 0, cell, slot)
                            if observer is not None:
                                injected_now[cell.flow_id] = (
                                    injected_now.get(cell.flow_id, 0) + 1
                                )
                # 3. Switches schedule and transfer; departures enter
                #    links.
                with timer.phase("kernel"):
                    for core in self._switches.values():
                        blocked = self._blocked_outputs(core)
                        departures = core.schedule_and_transfer(blocked)
                        for out_port, cell in departures:
                            self._ship(core.name, out_port, cell, slot)
                        if observer is not None:
                            transfers_now[core.name] = len(departures)
                if observer is not None:
                    with timer.phase("update"):
                        observer(
                            NetworkSlotRecord(
                                slot=slot,
                                injected=injected_now,
                                delivered=delivered_now,
                                transfers=transfers_now,
                                backlog={
                                    name: core.backlog()
                                    for name, core in self._switches.items()
                                },
                            )
                        )
        return result

    def _has_credit(self, node: str, port: int) -> bool:
        """True when the link at (node, port) may carry a cell now."""
        if self.buffer_limit is None:
            return True
        peer = self.topology.peer(node, port)
        if peer is None:
            return True
        peer_name, peer_port = peer
        if not self.topology.node(peer_name).is_switch:
            return True  # hosts sink at link rate; no credit needed
        occupancy = self._switches[peer_name].input_occupancy(peer_port)
        return occupancy < self.buffer_limit

    def _blocked_outputs(self, core: _SwitchCore) -> Optional[set]:
        if self.buffer_limit is None:
            return None
        return {
            port for port in range(core.ports) if not self._has_credit(core.name, port)
        }

    def backlog(self) -> int:
        """Cells buffered across all switches (excludes cells in flight)."""
        return sum(core.backlog() for core in self._switches.values())
