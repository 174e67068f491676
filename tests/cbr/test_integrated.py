"""Tests for the integrated CBR + VBR switch."""

import numpy as np
import pytest

from repro.cbr.integrated import (
    CBRBufferOverflow,
    IntegratedSwitch,
    derive_cbr_buffer_bound,
    resolve_cbr_buffer_bound,
)
from repro.cbr.reservations import ReservationTable
from repro.core.pim import PIMScheduler
from repro.switch.cell import Cell, ServiceClass
from repro.switch.flow import Flow
from repro.traffic.cbr_source import CBRSource
from repro.traffic.uniform import UniformTraffic


def cbr_flow(flow_id, src, dst, cells):
    return Flow(
        flow_id=flow_id, src=src, dst=dst, service=ServiceClass.CBR, cells_per_frame=cells
    )


def build_switch(ports=4, frame=10, flows=()):
    table = ReservationTable(ports, frame)
    for flow in flows:
        table.admit(flow)
    return IntegratedSwitch(table, scheduler=PIMScheduler(seed=0)), table


class TestIntegratedSwitch:
    def test_cbr_cell_served_in_reserved_slot(self):
        flow = cbr_flow(1, 0, 2, 10)  # every slot reserved
        switch, _ = build_switch(flows=[flow])
        cell = Cell(flow_id=1, output=2, service=ServiceClass.CBR)
        departures = switch.step(0, [(0, cell)])
        assert len(departures) == 1
        assert switch.cbr_slots_used == 1

    def test_idle_reservation_donated_to_vbr(self):
        """A reserved slot with no CBR cell carries a VBR cell instead."""
        flow = cbr_flow(1, 0, 2, 10)
        switch, _ = build_switch(flows=[flow])
        vbr = Cell(flow_id=99, output=2, service=ServiceClass.VBR)
        departures = switch.step(0, [(0, vbr)])
        assert len(departures) == 1
        assert departures[0].service is ServiceClass.VBR
        assert switch.cbr_slots_donated == 1

    def test_cbr_guarantee_under_vbr_overload(self):
        """CBR throughput and delay guarantees hold at 100% VBR load
        (Section 4: 'CBR performance guarantees are met no matter how
        high the load of VBR traffic')."""
        frame = 10
        flows = [cbr_flow(100 + i, i, (i + 1) % 4, 5) for i in range(4)]
        switch, table = build_switch(ports=4, frame=frame, flows=flows)
        cbr_source = CBRSource(4, flows, frame_slots=frame)
        vbr_source = UniformTraffic(4, load=1.0, seed=7)
        result = switch.run([cbr_source, vbr_source], slots=2000, warmup=200)
        # Every CBR cell injected must have departed promptly: one frame
        # of cells per flow in flight at most (no drift in this model).
        assert result.cbr_delay.count > 0
        assert result.cbr_delay.max <= 2 * frame
        # CBR carried exactly its reservation: 4 flows x 5 cells / 10 slots.
        cbr_rate = result.cbr_delay.count / (2000 - 200)
        assert cbr_rate == pytest.approx(4 * 5 / frame, rel=0.05)

    def test_vbr_uses_leftover_capacity(self):
        flows = [cbr_flow(1, 0, 1, 5)]
        switch, _ = build_switch(ports=4, frame=10, flows=flows)
        cbr_source = CBRSource(4, flows, frame_slots=10)
        vbr_source = UniformTraffic(4, load=0.5, seed=3)
        result = switch.run([cbr_source, vbr_source], slots=2000, warmup=200)
        assert result.vbr_delay.count > 0
        # Nothing lost anywhere.
        assert result.dropped == 0

    def test_peak_cbr_buffer_tracked(self):
        flows = [cbr_flow(1, 0, 2, 1)]
        switch, _ = build_switch(ports=4, frame=10, flows=flows)
        source = CBRSource(4, flows, frame_slots=10)
        switch.run(source, slots=100)
        assert switch.peak_cbr_buffer >= 1

    def test_fabric_size_mismatch_rejected(self):
        from repro.switch.fabric import CrossbarFabric

        table = ReservationTable(4, 10)
        with pytest.raises(ValueError, match="fabric size"):
            IntegratedSwitch(table, fabric=CrossbarFabric(8))

    def test_port_mismatch_rejected(self):
        switch, _ = build_switch(ports=4)
        with pytest.raises(ValueError, match="port mismatch"):
            switch.run(UniformTraffic(8, load=0.1, seed=0), slots=10)

    def test_separate_buffer_pools(self):
        """CBR and VBR cells occupy different buffers (Section 4)."""
        flow = cbr_flow(1, 0, 2, 1)
        switch, _ = build_switch(ports=4, frame=10, flows=[flow])
        switch.step(5, [
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR)),
            (0, Cell(flow_id=50, output=3, service=ServiceClass.VBR)),
        ])
        # The reserved slot for (0, 2) is slot 0 of each frame; at slot
        # 5 the CBR cell waits while VBR was free to go.
        assert sum(len(b) for b in switch.cbr_buffers) + sum(
            len(b) for b in switch.vbr_buffers
        ) == switch.backlog()


class TestRunStateReset:
    """Regression: back-to-back ``run()`` calls must start clean.

    Before the fix, ``cbr_slots_used``/``cbr_slots_donated``,
    ``peak_cbr_buffer`` and the per-port buffer pools all persisted
    across ``run()`` invocations, so a second identical run reported
    accumulated counters and inherited the first run's backlog.
    """

    @staticmethod
    def _flows():
        return [cbr_flow(1, 0, 2, 3), cbr_flow(2, 1, 3, 2)]

    def _run(self, switch):
        # CBR-only traffic: PIM sees empty VBR request matrices, so the
        # outcome is independent of scheduler RNG state and two
        # identical runs must match exactly.
        return switch.run(CBRSource(4, self._flows(), frame_slots=10), slots=25)

    def test_counters_do_not_accumulate_across_runs(self):
        switch, _ = build_switch(flows=self._flows())
        first = self._run(switch)
        used = switch.cbr_slots_used
        donated = switch.cbr_slots_donated
        peak = switch.peak_cbr_buffer
        assert used > 0
        second = self._run(switch)
        assert switch.cbr_slots_used == used
        assert switch.cbr_slots_donated == donated
        assert switch.peak_cbr_buffer == peak
        assert second.cbr_slots_used == first.cbr_slots_used
        assert second.cbr_delay.count == first.cbr_delay.count
        assert second.throughput == first.throughput

    def test_vbr_counters_do_not_accumulate_across_runs(self):
        """With VBR cells the PIM stream matters: run() rewinds it too."""
        switch = IntegratedSwitch(
            build_switch(flows=self._flows())[1], scheduler=PIMScheduler(seed=3)
        )

        def run():
            return switch.run(
                [CBRSource(4, self._flows(), frame_slots=10),
                 UniformTraffic(4, load=0.6, seed=1)],
                slots=400,
            )

        first, second = run(), run()
        assert first.vbr_delay.count > 0
        for result in (first, second):
            assert result.backlog > 0
        assert second.counter.carried == first.counter.carried
        assert second.cbr_slots_used == first.cbr_slots_used
        assert second.cbr_slots_donated == first.cbr_slots_donated
        assert second.peak_cbr_buffer == first.peak_cbr_buffer
        assert second.cbr_delay.mean == first.cbr_delay.mean
        assert second.vbr_delay.mean == first.vbr_delay.mean

    def test_reset_discards_queued_cells_and_counters(self):
        switch, _ = build_switch(flows=[cbr_flow(1, 0, 2, 10)])
        # Two cells in one slot: one departs (every slot is reserved for
        # this flow), the other stays queued.
        switch.step(0, [
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR)),
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR)),
        ])
        assert switch.backlog() > 0
        assert switch.cbr_slots_used > 0
        switch.reset()
        assert switch.backlog() == 0
        assert switch.cbr_slots_used == 0
        assert switch.cbr_slots_donated == 0
        assert switch.peak_cbr_buffer == 0


class TestCbrBufferBound:
    """Appendix B: CBR buffering is statically bounded and enforced."""

    def test_over_committed_burst_raises(self):
        # 2 cells/frame reserved at input 0 -> auto bound 2 x 2 = 4.
        switch, _ = build_switch(flows=[cbr_flow(1, 0, 2, 2)])
        burst = [
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR))
            for _ in range(5)
        ]
        with pytest.raises(CBRBufferOverflow) as excinfo:
            switch.step(0, burst)
        err = excinfo.value
        assert err.input_port == 0
        assert err.occupancy == 5
        assert err.bound == 4

    def test_occupancy_at_bound_is_conforming(self):
        """Exactly 2R queued cells is the drift-free worst case, not an
        overflow -- a conforming jittered source can reach it."""
        switch, _ = build_switch(flows=[cbr_flow(1, 0, 2, 2)])
        burst = [
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR))
            for _ in range(4)
        ]
        switch.step(0, burst)

    def test_bound_surfaced_on_result(self):
        flows = [cbr_flow(1, 0, 2, 3)]
        switch, _ = build_switch(flows=flows)
        result = switch.run(CBRSource(4, flows, frame_slots=10), slots=50)
        assert result.cbr_buffer_bound == (6, 0, 0, 0)

    def test_explicit_zero_bound_raises_on_first_arrival(self):
        table = ReservationTable(4, 10)
        table.admit(cbr_flow(1, 0, 2, 1))
        switch = IntegratedSwitch(
            table, scheduler=PIMScheduler(seed=0), cbr_buffer_bound=0
        )
        with pytest.raises(CBRBufferOverflow):
            switch.step(
                0, [(0, Cell(flow_id=1, output=2, service=ServiceClass.CBR))]
            )

    def test_none_disables_enforcement(self):
        table = ReservationTable(4, 10)
        table.admit(cbr_flow(1, 0, 2, 1))
        switch = IntegratedSwitch(
            table, scheduler=PIMScheduler(seed=0), cbr_buffer_bound=None
        )
        burst = [
            (0, Cell(flow_id=1, output=2, service=ServiceClass.CBR))
            for _ in range(50)
        ]
        switch.step(0, burst)
        assert sum(len(b) for b in switch.cbr_buffers) >= 49

    def test_derive_bound_is_two_row_sums(self):
        matrix = np.array([[1, 2], [0, 3]])
        assert derive_cbr_buffer_bound(matrix).tolist() == [6, 6]

    def test_bound_spec_validation(self):
        matrix = np.zeros((4, 4), dtype=np.int64)
        assert resolve_cbr_buffer_bound(None, matrix) is None
        assert resolve_cbr_buffer_bound(7, matrix).tolist() == [7, 7, 7, 7]
        with pytest.raises(ValueError, match="unknown cbr_buffer_bound"):
            resolve_cbr_buffer_bound("bogus", matrix)
        with pytest.raises(ValueError, match=">= 0"):
            resolve_cbr_buffer_bound(-1, matrix)
        with pytest.raises(ValueError, match="shape"):
            resolve_cbr_buffer_bound([1, 2], matrix)
