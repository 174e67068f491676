"""FlowRing replays VOQBuffer's round-robin flow service in arrays.

The reference is a :class:`repro.switch.buffers.VOQBuffer` per replica;
ring row ``b * OUTPUTS + j`` shadows replica b's eligible list toward
output j.  The driver keeps the per-flow queued counts the way both
fast paths do: a flow joins its ring on its first cell, and goes to the
back again when served with cells left.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flowring import EmptyRing, FlowRing
from repro.switch.buffers import VOQBuffer
from repro.switch.cell import Cell

REPLICAS, OUTPUTS, FLOWS = 3, 2, 6
ROWS = REPLICAS * OUTPUTS

# One step: at most one operation per row (the rings' calling contract),
# each an arrival of one of the row's FLOWS flows or a service.
steps = st.lists(
    st.tuples(st.integers(0, ROWS - 1), st.booleans(), st.integers(0, FLOWS - 1)),
    max_size=ROWS,
    unique_by=lambda operation: operation[0],
)


def _listed(ring):
    """Each row's flows, front first, from ``entries()``."""
    listed = [[] for _ in range(ROWS)]
    for row, flow in zip(*(column.tolist() for column in ring.entries())):
        listed[row].append(flow)
    return listed


class TestAgainstVOQBuffer:
    @given(st.lists(steps, min_size=1, max_size=60), st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_random_traces(self, trace, width):
        ring = FlowRing(ROWS, width)
        buffers = [VOQBuffer(OUTPUTS) for _ in range(REPLICAS)]
        queued = np.zeros((ROWS, FLOWS), dtype=np.int64)
        for step in trace:
            # Arrivals: flow ids are unique across rows, as a flow
            # belongs to one VOQ.
            rows = np.array([row for row, arrives, _ in step if arrives], dtype=np.int64)
            flows = np.array([flow for _, arrives, flow in step if arrives], dtype=np.int64)
            for row, flow in zip(rows.tolist(), flows.tolist()):
                buffers[row // OUTPUTS].enqueue(
                    Cell(flow_id=row * FLOWS + flow, output=row % OUTPUTS)
                )
            joins = queued[rows, flows] == 0
            queued[rows, flows] += 1
            ring.append(rows[joins], rows[joins] * FLOWS + flows[joins])

            # Services: a row with nothing queued must raise, naming the
            # first such row, and leave every ring as it was.
            rows = np.array([row for row, arrives, _ in step if not arrives], dtype=np.int64)
            backed = np.array(
                [buffers[row // OUTPUTS].has_cell_for(row % OUTPUTS) for row in rows.tolist()],
                dtype=bool,
            )
            if not backed.all():
                before = _listed(ring)
                with pytest.raises(EmptyRing) as raised:
                    ring.pop(rows)
                assert raised.value.row == rows[~backed][0]
                assert _listed(ring) == before
                rows = rows[backed]
            served = ring.pop(rows)
            expected = [
                buffers[row // OUTPUTS].dequeue(row % OUTPUTS).flow_id
                for row in rows.tolist()
            ]
            assert served.tolist() == expected
            queued[rows, served % FLOWS] -= 1
            stays = queued[rows, served % FLOWS] > 0
            ring.rejoin(rows[stays], served[stays])

            assert _listed(ring) == [
                buffers[row // OUTPUTS].eligible_flows(row % OUTPUTS)
                for row in range(ROWS)
            ]
        assert ring.width >= (queued > 0).sum(axis=1).max()


class TestWidth:
    def test_a_crowded_row_widens_every_ring(self):
        ring = FlowRing(2, 2)
        ring.append(np.array([1]), np.array([70]))
        for flow in range(5):
            ring.append(np.array([0]), np.array([flow]))
        assert ring.width == 8
        assert ring.pop(np.array([0, 1])).tolist() == [0, 70]
        assert ring.entries()[1].tolist() == [1, 2, 3, 4]

    def test_a_ring_sized_for_its_flows_never_widens(self):
        """Serve-and-rotate at full occupancy reuses the vacated slot."""
        ring = FlowRing(1, 3)
        row = np.array([0])
        for flow in range(3):
            ring.append(row, np.array([flow]))
        for turn in range(10):
            served = ring.pop(row)
            assert served.tolist() == [turn % 3]
            ring.rejoin(row, served)
        assert ring.width == 3

    def test_entries_rejects_counters_out_of_range(self):
        ring = FlowRing(2, 2)
        ring.tail[1] = 3
        with pytest.raises(AssertionError, match="flow ring 1"):
            ring.entries()
