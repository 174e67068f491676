"""Tests for the wavefront arbiter."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.matching import is_maximal
from repro.core.wavefront import WavefrontScheduler
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

from tests.conftest import request_matrices


class TestWavefrontMatch:
    def test_identity_full_match(self):
        matching = WavefrontScheduler().schedule(np.eye(4, dtype=bool))
        assert len(matching) == 4

    @given(request_matrices(), st.integers(0, 7))
    def test_always_maximal(self, requests, start):
        """Maximal from every start diagonal: slot k starts on diagonal k."""
        scheduler = WavefrontScheduler()
        for _ in range(start + 1):
            matching = scheduler.schedule(requests)
            assert matching.respects(requests)
            assert is_maximal(matching, requests)

    def test_priority_diagonal_decides_ties(self):
        requests = np.ones((2, 2), dtype=bool)
        scheduler = WavefrontScheduler()
        # Diagonal 0 holds (0,0) and (1,1); diagonal 1 holds (0,1),(1,0).
        assert set(scheduler.schedule(requests).pairs) == {(0, 0), (1, 1)}
        assert set(scheduler.schedule(requests).pairs) == {(0, 1), (1, 0)}

    def test_empty(self):
        assert len(WavefrontScheduler().schedule(np.zeros((3, 3), dtype=bool))) == 0

    def test_validation(self):
        """Regression: matches ``lqf_match``'s input validation -- a
        negative occupancy entry used to bool-cast to a *true*
        request, silently inventing traffic."""
        with pytest.raises(ValueError, match="square"):
            WavefrontScheduler().schedule(np.zeros((2, 3), dtype=bool))
        with pytest.raises(ValueError, match="non-negative"):
            WavefrontScheduler().schedule(np.array([[0, -1], [0, 0]]))


class TestWavefrontScheduler:
    def test_rotation_gives_long_run_fairness(self):
        """Rotating the start diagonal serves every pair of a full
        request matrix equally over N slots."""
        scheduler = WavefrontScheduler()
        requests = np.ones((4, 4), dtype=bool)
        counts = {}
        for _ in range(4 * 100):
            for pair in scheduler.schedule(requests):
                counts[pair] = counts.get(pair, 0) + 1
        values = list(counts.values())
        assert max(values) == min(values)

    def test_carries_high_uniform_load(self):
        switch = CrossbarSwitch(16, WavefrontScheduler())
        result = switch.run(UniformTraffic(16, load=0.9, seed=1), slots=6000, warmup=1000)
        assert result.throughput == pytest.approx(result.offered, rel=0.03)

    def test_reset(self):
        scheduler = WavefrontScheduler()
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert scheduler._start == 1
        scheduler.reset()
        assert scheduler._start == 0
