"""Perfect output queueing -- the optimal-performance baseline.

Section 2.4: with enough internal bandwidth to deliver all N inputs'
cells to a single output in one slot, no input buffering is needed and
"cells are only delayed due to contention for limited output link
bandwidth, never due to contention internal to the switch".  It is
infeasible hardware at gigabit speeds, but it bounds what any scheduler
can achieve -- the upper curve of Figures 3 and 4.

:class:`OutputQueuedSwitch` implements it directly: every arriving cell
goes straight into its output's FIFO queue; each output sends one cell
per slot.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.switch.buffers import OutputQueue
from repro.switch.cell import Cell
from repro.switch.switch import SlotSwitch

__all__ = ["OutputQueuedSwitch"]


class OutputQueuedSwitch(SlotSwitch):
    """The perfect-output-queueing switch model.

    Runs the same slot loop as
    :class:`repro.switch.switch.CrossbarSwitch`, so benches can sweep
    the three Figure-3 algorithms with identical driver code.
    """

    def __init__(self, ports: int):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        self.ports = ports
        self.reset()

    def reset(self) -> None:
        """Empty the output queues."""
        self.queues = [OutputQueue() for _ in range(self.ports)]

    def step(self, slot: int, arrivals: Sequence[Tuple[int, Cell]]) -> List[Cell]:
        """Deliver all arrivals to their output queues, depart one each."""
        for _, cell in arrivals:
            if not 0 <= cell.output < self.ports:
                raise ValueError(f"cell output {cell.output} out of range")
            cell.arrival_slot = slot
            self.queues[cell.output].enqueue(cell)
        departures = []
        for queue in self.queues:
            cell = queue.depart()
            if cell is not None:
                departures.append(cell)
        return departures

    def backlog(self) -> int:
        """Cells currently waiting in output queues."""
        return sum(len(q) for q in self.queues)
