"""Array round-robin rings of eligible flows.

A :class:`repro.switch.buffers.VOQBuffer` serves the flows that share
one (input, output) queue round-robin: a flow joins the back of the
queue's *eligible* list when its first cell arrives, the flow at the
front is served, and a served flow that still has cells goes to the
back again.  The count-based fast paths forget cell identity, so they
replay that discipline to attribute each departure to its flow.
:class:`FlowRing` holds every such list of a run in three arrays, so a
slot's enqueues (:meth:`~FlowRing.append`), services
(:meth:`~FlowRing.pop`) and rotations (:meth:`~FlowRing.rejoin`) are a
handful of fancy-indexed updates whatever the number of cells.

One ring per *row*; a row is whatever the caller queues flows by -- the
crossbar scenario shadow uses one row per (replica, input, output), the
network fast path one per (shared VOQ, replica).  The rings live in one
flat array, row r at ``r * width``, so every update is a 1-D gather or
scatter.  Every call takes an array of rows that **must not repeat**
(see :class:`FlowRing`), which is what makes plain fancy indexing safe.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["EmptyRing", "FlowRing"]


class EmptyRing(IndexError):
    """A flow was popped from a ring that lists none; ``row`` says which."""

    def __init__(self, row: int):
        super().__init__(f"pop from an empty flow ring (row {row})")
        self.row = row


class FlowRing:
    """``rows`` rings of flows, all of one width, in one flat array.

    A flow is whatever int the caller names it by: the scenario shadow
    lists run-wide flow numbers, the network fast path the flat index of
    the flow's queue at the switch.

    Row r lists ``ring[r * width + k % width]`` for k in ``head[r] ..
    tail[r] - 1``, front first; ``head`` and ``tail`` only ever grow.  A
    ring that would overflow makes :meth:`append` re-lay all of them at
    twice the width, so a caller that knows its longest list (the network
    fast path: the flows routed through a VOQ) sizes the rings once and
    never pays for that, and one that does not (the scenario shadow)
    starts small.

    Calling contract: within one :meth:`append`, :meth:`pop` or
    :meth:`rejoin` call no row repeats.  Nothing here checks it (a
    repeated row would lose an update silently); the callers guarantee
    it.  A crossbar serves a VOQ at most once a slot, so departures
    (``pop``, then ``rejoin`` of a subset) never repeat a row.  For
    ``append``, the scenario shadow enqueues a slot's cells one per VOQ
    at a time (by rank), and in the network fast path a link carries one
    cell a slot, so a (switch, replica, input) -- hence a shared VOQ's
    row -- gains at most one arrival.
    """

    def __init__(self, rows: int, width: int):
        self.width = max(1, width)
        self.ring = np.zeros(rows * self.width, dtype=np.int64)
        self.head = np.zeros(rows, dtype=np.int64)
        self.tail = np.zeros(rows, dtype=np.int64)

    def append(self, rows: np.ndarray, flows: np.ndarray) -> None:
        """Put ``flows[k]`` at the back of ring ``rows[k]``; no row twice."""
        tail = self.tail.take(rows)
        if (tail - self.head.take(rows) >= self.width).any():
            self.widen()
        self.ring[rows * self.width + tail % self.width] = flows
        self.tail[rows] = tail + 1

    def pop(self, rows: np.ndarray) -> np.ndarray:
        """Take the flow at the front of each listed ring; no row twice.

        Raises :class:`EmptyRing` naming the first listed ring that is
        empty, before any ring is changed.
        """
        head = self.head.take(rows)
        empty = head >= self.tail.take(rows)
        if empty.any():
            raise EmptyRing(int(rows[empty][0]))
        self.head[rows] = head + 1
        return self.ring.take(rows * self.width + head % self.width)

    def rejoin(self, rows: np.ndarray, flows: np.ndarray) -> None:
        """:meth:`append` for flows just popped from these very rings.

        The place each vacated guarantees room, so nothing is checked.
        """
        tail = self.tail.take(rows)
        self.ring[rows * self.width + tail % self.width] = flows
        self.tail[rows] = tail + 1

    def widen(self) -> None:
        """Re-lay every ring out at twice the width.

        Positions are counters modulo the width, so entries move; the
        unused ones carry their garbage across.
        """
        width = self.width
        row = np.arange(self.head.size)[:, None]
        position = self.head[:, None] + np.arange(width)
        wider = np.zeros(2 * self.ring.size, dtype=np.int64)
        wider[row * 2 * width + position % (2 * width)] = self.ring[
            row * width + position % width
        ]
        self.ring, self.width = wider, 2 * width

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(row, flow)`` of every listed flow, rows ascending, front first.

        Raises AssertionError unless ``head <= tail <= head + width``
        holds everywhere (the checkers and tests read this, not the slot
        loop).
        """
        length = self.tail - self.head
        bad = (length < 0) | (length > self.width)
        if bad.any():
            row = int(bad.argmax())
            raise AssertionError(
                f"flow ring {row}: head {int(self.head[row])}, tail "
                f"{int(self.tail[row])}, width {self.width}"
            )
        row, offset = np.nonzero(np.arange(self.width) < length[:, None])
        position = (self.head.take(row) + offset) % self.width
        return row, self.ring.take(row * self.width + position)
