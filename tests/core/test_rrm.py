"""Tests for round-robin matching (RRM)."""

import numpy as np
import pytest

from repro.core.rrm import RRMScheduler
from repro.core.islip import ISLIPScheduler
from repro.switch.switch import CrossbarSwitch
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic


class TestRrmMatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            RRMScheduler(iterations=0)

    def test_negative_entries_are_not_requests(self):
        """A negative count must not cast to a request (it did: the
        -1 cell was matched)."""
        with pytest.raises(ValueError, match="non-negative"):
            RRMScheduler().schedule(np.array([[-1, 1], [1, 0]]))

    def test_legal_matching(self, rng):
        scheduler = RRMScheduler()
        for _ in range(50):
            requests = rng.random((8, 8)) < 0.5
            matching = scheduler.schedule(requests)
            assert matching.respects(requests)

    def test_pointers_advance_even_unaccepted(self):
        """The RRM bug: a granted-but-rejected output still advances."""
        n = 4
        scheduler = RRMScheduler()
        requests = np.zeros((n, n), dtype=bool)
        requests[0, 0] = requests[0, 1] = True
        scheduler.schedule(requests)
        grant_ptr = scheduler._grant_pointers[0]
        # Both outputs granted input 0; only one was accepted, but both
        # pointers moved to 1.
        assert grant_ptr[0] == 1 and grant_ptr[1] == 1

    def test_pointer_synchronization_collapses_throughput(self):
        """Under full uniform demand the grant pointers lock step and
        RRM-1 throughput sits near 1 - 1/e, not 1.0 -- the pathology
        iSLIP's update rule repairs."""
        n = 8
        scheduler = RRMScheduler()
        requests = np.ones((n, n), dtype=bool)
        sizes = [len(scheduler.schedule(requests)) for _ in range(200)]
        steady = np.mean(sizes[50:])
        assert steady < 0.8 * n  # far from the perfect matching
        # Grant pointers synchronized: all equal in steady state.
        assert len(set(scheduler._grant_pointers[0].tolist())) == 1


class TestRrmVsIslip:
    def test_islip_beats_rrm_at_saturation(self):
        recorder = TraceRecorder(UniformTraffic(16, load=1.0, seed=5))
        rrm = CrossbarSwitch(16, RRMScheduler()).run(
            recorder, slots=6000, warmup=1000
        )
        islip = CrossbarSwitch(16, ISLIPScheduler()).run(
            recorder.replay(), slots=6000, warmup=1000
        )
        assert islip.throughput > 0.95
        assert rrm.throughput < 0.8
        assert islip.throughput > rrm.throughput + 0.15

    def test_reset(self):
        scheduler = RRMScheduler()
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert scheduler._grant_pointers.any()
        scheduler.reset()
        assert not scheduler._grant_pointers.any()
        assert not scheduler._accept_pointers.any()
