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
network fast path one per (shared VOQ, replica).  Every call takes an
array of rows that **must not repeat**: a crossbar serves a queue at
most once a slot, which is what makes plain fancy indexing safe.
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
    """``rows`` rings of flow numbers, all of one width.

    Row r lists ``ring[r, k % width]`` for k in ``head[r] .. tail[r] - 1``,
    front first; ``head`` and ``tail`` only ever grow.  A ring that would
    overflow makes :meth:`append` re-lay all of them at twice the width,
    so a caller that knows its longest list (the network fast path: the
    flows routed through a VOQ) sizes the rings once and never pays for
    that, and one that does not (the scenario shadow) starts small.
    """

    def __init__(self, rows: int, width: int):
        self.ring = np.zeros((rows, max(1, width)), dtype=np.int64)
        self.head = np.zeros(rows, dtype=np.int64)
        self.tail = np.zeros(rows, dtype=np.int64)

    @property
    def width(self) -> int:
        return self.ring.shape[1]

    def append(self, rows: np.ndarray, flows: np.ndarray) -> None:
        """Put ``flows[k]`` at the back of ring ``rows[k]``."""
        tail = self.tail[rows]
        if (tail - self.head[rows] >= self.ring.shape[1]).any():
            self.widen()
        self.ring[rows, tail % self.ring.shape[1]] = flows
        self.tail[rows] = tail + 1

    def pop(self, rows: np.ndarray) -> np.ndarray:
        """Take the flow at the front of each listed ring.

        Raises :class:`EmptyRing` naming the first listed ring that is
        empty, before any ring is changed.
        """
        head = self.head[rows]
        empty = head >= self.tail[rows]
        if empty.any():
            raise EmptyRing(int(rows[empty][0]))
        self.head[rows] = head + 1
        return self.ring[rows, head % self.ring.shape[1]]

    def rejoin(self, rows: np.ndarray, flows: np.ndarray) -> None:
        """:meth:`append` for flows just popped from these very rings.

        The place each vacated guarantees room, so nothing is checked.
        """
        tail = self.tail[rows]
        self.ring[rows, tail % self.ring.shape[1]] = flows
        self.tail[rows] = tail + 1

    def widen(self) -> None:
        """Re-lay every ring out at twice the width.

        Positions are counters modulo the width, so entries move; the
        unused ones carry their garbage across.
        """
        rows, width = self.ring.shape
        row = np.arange(rows)[:, None]
        position = self.head[:, None] + np.arange(width)
        wider = np.zeros((rows, 2 * width), dtype=np.int64)
        wider[row, position % (2 * width)] = self.ring[row, position % width]
        self.ring = wider

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
        return row, self.ring[row, (self.head[row] + offset) % self.width]
