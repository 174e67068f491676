"""Windowed FIFO scheduling -- the Hui/Arthurs + Karol iterative scheme.

Section 2.4 describes the pre-PIM state of the art for input-buffered
switches: "At first, only the header for the first queued cell at each
input port is sent through the batcher network; an acknowledgement is
returned ... Karol et al. suggest that iteration can be used to
increase switch throughput.  In this approach, an input that loses the
first round of the competition sends the header for the second cell in
its queue on the second round, and so on.  After some number of
iterations k ... this reduces the impact of head-of-line blocking but
does not eliminate it, since only the first k cells in each queue are
eligible for transmission."

:class:`WindowedFIFOScheduler` implements exactly that contention
protocol over FIFO input buffers; the ablation bench sweeps the window
size w to show throughput improving with w yet staying below VOQ+PIM
(the "does not eliminate it" claim).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import replay_generator, resolve_generator
from repro.switch.buffers import FIFOInputBuffer
from repro.switch.cell import Cell
from repro.switch.fabric import CrossbarFabric
from repro.switch.switch import SlotSwitch

__all__ = ["WindowedFIFOScheduler", "WindowedFIFOSwitch"]


class WindowedFIFOScheduler:
    """Iterative contention over the first w cells of each FIFO queue.

    Round r (r = 0..w-1): every unmatched input whose r-th queued cell
    exists and whose cell's output is unmatched bids for that output;
    each contended output picks one bidder uniformly at random.  Note
    the crucial difference from PIM: an input bids for the *single*
    output of its r-th cell, not for every queued destination, and an
    input that wins in round r sends its *r-th* cell, so a win deeper
    in the window skips over blocked cells (limited reordering across
    flows, as in Karol's scheme).

    Parameters
    ----------
    window:
        w, the number of queue positions eligible per slot (w = 1 is
        plain FIFO).
    seed:
        Seed for the tie-break draws.
    """

    name = "windowed_fifo"

    def __init__(self, window: int = 2, seed: Optional[int] = None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        # Deterministic seed=None fallback (repro.sim.rng default-seed
        # policy); the token lets reset() rewind the stream.
        self._rng, self._rng_token = resolve_generator(seed, None, "windowed_fifo")

    def arbitrate(self, windows: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
        """Match inputs to outputs over the window.

        ``windows[i]`` lists the destinations of input i's first w
        queued cells (possibly shorter).  Returns a list of
        ``(input, queue_position, output)`` triples forming a legal
        matching on inputs and outputs.
        """
        n = len(windows)
        input_matched = set()
        output_matched = set()
        winners: List[Tuple[int, int, int]] = []
        for position in range(self.window):
            bids: dict = {}
            for i in range(n):
                if i in input_matched or position >= len(windows[i]):
                    continue
                j = windows[i][position]
                if j in output_matched:
                    continue
                bids.setdefault(j, []).append(i)
            for j, bidders in bids.items():
                winner = int(self._rng.choice(bidders))
                winners.append((winner, position, j))
                input_matched.add(winner)
                output_matched.add(j)
        return winners

    def reset(self) -> None:
        """Rewind the tie-break RNG to its as-constructed state.

        Regression note (reset-contract sweep): this used to be a no-op
        "no cross-slot state" stub, but the tie-break stream kept
        advancing across ``reset()``, so a second ``run`` on the same
        scheduler diverged from the first.
        """
        self._rng = replay_generator(self._rng, self._rng_token)


class WindowedFIFOSwitch(SlotSwitch):
    """FIFO-input switch scheduled by the windowed contention protocol.

    The winning cell may sit behind blocked cells in its queue; it is
    removed from its position (random access limited to the first w
    positions -- the hardware the scheme assumes).
    """

    def __init__(self, ports: int, scheduler: WindowedFIFOScheduler):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        self.ports = ports
        self.scheduler = scheduler
        self.fabric = CrossbarFabric(ports)
        self.reset()

    def reset(self) -> None:
        """Empty the input FIFOs and rewind the tie-break stream."""
        self.scheduler.reset()
        self.buffers = [FIFOInputBuffer() for _ in range(self.ports)]

    def step(self, slot: int, arrivals: Sequence[Tuple[int, Cell]]) -> List[Cell]:
        """Advance one slot; returns departed cells."""
        for input_port, cell in arrivals:
            cell.arrival_slot = slot
            self.buffers[input_port].enqueue(cell)
        windows = [
            [cell.output for cell in buffer.head_window(self.scheduler.window)]
            if len(buffer)
            else []
            for buffer in self.buffers
        ]
        winners = self.scheduler.arbitrate(windows)
        selected: List[Tuple[int, Cell]] = []
        for i, position, j in winners:
            cell = self.buffers[i].pop_at(position)
            assert cell.output == j
            selected.append((i, cell))
        delivered = self.fabric.transfer(selected)
        return [cells[0] for cells in delivered.values()]

    def backlog(self) -> int:
        """Cells currently buffered."""
        return sum(len(b) for b in self.buffers)
