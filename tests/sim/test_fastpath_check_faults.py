"""Every ``check=True`` assertion of the crossbar-family fast paths fires.

The three backends share one slot loop; what each asserts under
``check=True`` lives in its switch (``FastpathCrossbar.step``,
``IntegratedFastpath.step``) or, for the lottery/fill port split, in
the statistical kernel.  Each test injects the fault the assertion
names -- corrupt arrivals, corrupt state, or a misbehaving kernel
substituted for the real one -- and expects that assertion, not a
later one.
"""

import numpy as np
import pytest

from repro.core import statistical
from repro.core.batch import BatchScheduler
from repro.sim.fastpath import FastpathCrossbar
from repro.sim.fastpath_cbr import IntegratedFastpath, run_fastpath_cbr
from repro.sim.fastpath_statistical import (
    BatchStatisticalMatcher,
    run_fastpath_statistical,
)

B, N = 3, 4
FULL = np.ones((B, N, N), dtype=np.int64)


class _Identity(BatchScheduler):
    """Matches input i to output i everywhere, whatever was requested."""

    def __init__(self, replicas=B, ports=N, **_):
        super().__init__(replicas, ports)

    def schedule(self, requests, occupancy=None):
        return np.tile(np.arange(self.ports), (self.replicas, 1))

    def reset(self):
        pass


class _Idle(_Identity):
    def schedule(self, requests, occupancy=None):
        return np.full((self.replicas, self.ports), -1, dtype=np.int64)


class _Unmasked(_Identity):
    """Identity wherever a cell is queued: reads the depths, not the mask."""

    def schedule(self, requests, occupancy=None):
        queued = occupancy.diagonal(axis1=1, axis2=2) > 0
        return np.where(queued, super().schedule(requests), -1)


class TestCrossbar:
    def test_negative_arrivals(self):
        switch = FastpathCrossbar(N, B, _Idle())
        with pytest.raises(ValueError, match="negative arrival counts"):
            switch.step(-FULL, check=True)

    def test_match_on_an_empty_voq(self):
        switch = FastpathCrossbar(N, B, _Identity())
        with pytest.raises(AssertionError, match="matched an empty VOQ"):
            switch.step(None, check=True)

    def test_negative_occupancy(self):
        switch = FastpathCrossbar(N, B, _Idle())
        switch.occupancy[1, 2, 3] = -1
        with pytest.raises(AssertionError, match="negative VOQ occupancy"):
            switch.step(None, check=True)

    def test_unchecked_step_lets_them_through(self):
        switch = FastpathCrossbar(N, B, _Identity())
        switch.step(None)
        assert (switch.occupancy.diagonal(axis1=1, axis2=2) == -1).all()


def _integrated(kernel):
    """Input 0 holds output 0 in frame position 0, input 1 output 2 in 1."""
    reserved = np.full((2, N), -1, dtype=np.int64)
    reserved[0, 0] = 0
    reserved[1, 1] = 2
    return IntegratedFastpath(N, B, 2, reserved, kernel)


class TestIntegrated:
    def test_negative_arrivals_of_either_class(self):
        with pytest.raises(ValueError, match="negative CBR arrival counts"):
            _integrated(_Idle()).step(0, -FULL, None, check=True)
        with pytest.raises(ValueError, match="negative VBR arrival counts"):
            _integrated(_Idle()).step(0, None, -FULL, check=True)

    def test_match_on_an_empty_vbr_voq(self):
        with pytest.raises(AssertionError, match="matched an empty VBR VOQ"):
            _integrated(_Identity()).step(0, None, None, check=True)

    def test_vbr_fill_on_a_claimed_input(self):
        """Position 0 claims input 0 / output 0; the rogue kernel ignores
        the mask and matches (0, 0) for VBR as well."""
        switch = _integrated(_Identity())
        with pytest.raises(AssertionError, match="collided with a CBR claim"):
            switch.step(0, FULL, FULL, check=True)

    def test_vbr_fill_on_a_claimed_output_only(self):
        """Position 1 claims input 1 / output 2; a kernel that keeps off
        input 1 but sends input 2 to output 2 collides on the output."""

        class _OutputOnly(_Idle):
            def schedule(self, requests, occupancy=None):
                match = super().schedule(requests)
                match[:, 2] = 2
                return match

        switch = _integrated(_OutputOnly())
        with pytest.raises(AssertionError, match="collided with a CBR claim"):
            switch.step(1, FULL, FULL, check=True)

    def test_idle_reservation_is_no_collision(self):
        """No CBR cell queued: the reservation is donated and the same
        VBR match is legal."""
        (bb_c, _, _), (bb_v, _, _) = _integrated(_Identity()).step(
            0, None, FULL, check=True
        )
        assert bb_c.size == 0 and bb_v.size == B * N

    def test_negative_occupancy(self):
        switch = _integrated(_Idle())
        switch.vbr[0, 1, 1] = -1
        with pytest.raises(AssertionError, match="negative VOQ occupancy"):
            switch.step(0, None, None, check=True)

    def test_run_threads_check_to_the_switch(self, monkeypatch):
        from repro.cbr.reservations import ReservationTable
        from repro.sim import fastpath_cbr
        from repro.switch.cell import ServiceClass
        from repro.switch.flow import Flow

        table = ReservationTable(N, 4)
        table.admit(
            Flow(flow_id=1, src=0, dst=0, service=ServiceClass.CBR, cells_per_frame=4)
        )
        monkeypatch.setattr(
            fastpath_cbr, "build_batch_scheduler",
            lambda name, replicas, ports, **_: _Unmasked(replicas, ports),
        )
        with pytest.raises(AssertionError, match="collided with a CBR claim"):
            run_fastpath_cbr(table, 1.0, 50, replicas=B, check=True)


ALLOC = np.array([[2, 1, 0, 1], [0, 2, 2, 0], [1, 0, 2, 1], [1, 1, 0, 2]])


class _TakenOutputs(_Idle):
    """Keeps off every masked row, but sends the first live input of a
    replica to an output whose whole column is masked."""

    def schedule(self, requests, occupancy=None):
        match = super().schedule(requests)
        for b in range(self.replicas):
            live = np.flatnonzero(requests[b].any(axis=1))
            masked = np.flatnonzero(~requests[b].any(axis=0))
            if live.size and masked.size:
                match[b, live[0]] = masked[0]
        return match


def _matcher(fill_kernel, check=True):
    matcher = BatchStatisticalMatcher(ALLOC, 4, replicas=B, seed=1, fill=True)
    matcher._fill = fill_kernel
    matcher.check = check
    return matcher


class TestStatisticalKernel:
    """All VOQs requested, so every lottery match is backed and a masked
    row or column can only be a lottery-taken port."""

    def test_fill_on_a_lottery_taken_input(self):
        matcher = _matcher(_Identity())
        with pytest.raises(AssertionError, match="statistical-taken input"):
            for _ in range(10):
                matcher.schedule(FULL > 0)

    def test_fill_on_a_lottery_taken_output_only(self):
        matcher = _matcher(_TakenOutputs())
        with pytest.raises(AssertionError, match="statistical-taken output"):
            for _ in range(10):
                matcher.schedule(FULL > 0)

    def test_unchecked_kernel_lets_them_through(self):
        matcher = _matcher(_Identity(), check=False)
        for _ in range(10):
            assert (matcher.schedule(FULL > 0) >= 0).all()

    def test_zero_allocation_grant(self):
        matcher = BatchStatisticalMatcher(ALLOC, 4, replicas=B, seed=1)
        matcher.check = True
        matcher.tables.virtual_row[:] = -1  # as if nothing were allocated
        with pytest.raises(AssertionError, match="zero-allocation pair"):
            matcher.match()

    def test_run_threads_check_to_the_kernel(self, monkeypatch):
        monkeypatch.setattr(statistical, "BatchPIMScheduler", _Identity)
        with pytest.raises(AssertionError, match="statistical-taken"):
            run_fastpath_statistical(ALLOC, 4, 1.0, 50, replicas=B, check=True)
        # Unchecked, the kernel's own assertions stay quiet.
        assert not BatchStatisticalMatcher(ALLOC, 4, fill=True).check
