"""Lossy k-replicated output-buffered switch (Section 2.4's alternative).

"It is more common for switches to be built with some small k chosen
as the replication factor.  If more than k cells arrive during a slot
for a given output, not all of them can be forwarded immediately.
Typically, the excess cells are simply dropped.  While studies have
shown that few cells are dropped with a uniform workload, local area
network traffic is rarely uniform ... a common pattern is
client-server communication, where a large fraction of incoming cells
tend to be destined for the same output port."

This is the Knockout/Sunshine-style design the AN2 argues against.
:class:`ReplicatedOutputSwitch` delivers up to k cells per output per
slot and drops the excess (optionally shunting up to r of them into a
re-circulating queue that competes with fresh arrivals next slot, as
in Starlite/Sunshine).  The loss-rate bench contrasts uniform vs
client-server drop rates -- the paper's argument for lossless
random-access input buffering.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.switch.buffers import OutputQueue
from repro.switch.cell import Cell
from repro.switch.switch import SlotSwitch

__all__ = ["ReplicatedOutputSwitch"]


class ReplicatedOutputSwitch(SlotSwitch):
    """Output-buffered switch with fabric replication factor k.

    Parameters
    ----------
    ports:
        Switch size N.
    replication:
        k, cells deliverable to one output per slot.  k = N is perfect
        output queueing; small k drops cells under hot-spot traffic.
    recirculation_ports:
        Capacity r of the re-circulating queue (0 disables it).  Up to
        r cells that lost the knockout are fed back and contend again
        next slot alongside fresh arrivals; cells losing with a full
        re-circulation queue are dropped.  Knockout losers are chosen
        by arrival order, as in the hardware's fixed concentrator tree;
        ``result.dropped`` counts the run's losses.
    """

    def __init__(self, ports: int, replication: int, recirculation_ports: int = 0):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if recirculation_ports < 0:
            raise ValueError("recirculation_ports must be non-negative")
        self.ports = ports
        self.replication = replication
        self.recirculation_ports = recirculation_ports
        self.reset()

    def reset(self) -> None:
        """Empty the output and re-circulating queues; zero the drops."""
        self.queues = [OutputQueue() for _ in range(self.ports)]
        self._recirculating: List[Cell] = []
        self.dropped_cells = 0

    def step(self, slot: int, arrivals: Sequence[Tuple[int, Cell]]) -> List[Cell]:
        """Advance one slot; returns departures (drops are counted)."""
        contenders: Dict[int, List[Cell]] = {}
        # Re-circulated cells contend first (they are older).
        for cell in self._recirculating:
            contenders.setdefault(cell.output, []).append(cell)
        self._recirculating.clear()
        for _, cell in arrivals:
            if not 0 <= cell.output < self.ports:
                raise ValueError(f"cell output {cell.output} out of range")
            cell.arrival_slot = slot
            contenders.setdefault(cell.output, []).append(cell)

        for output, cells in contenders.items():
            for cell in cells[: self.replication]:
                self.queues[output].enqueue(cell)
            for cell in cells[self.replication :]:
                if len(self._recirculating) < self.recirculation_ports:
                    self._recirculating.append(cell)
                else:
                    self.dropped_cells += 1

        departures = []
        for queue in self.queues:
            cell = queue.depart()
            if cell is not None:
                departures.append(cell)
        return departures

    def backlog(self) -> int:
        """Cells in output queues plus the re-circulating queue."""
        return sum(len(q) for q in self.queues) + len(self._recirculating)
