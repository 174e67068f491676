"""Tests for queue-proportional sampling (QPS-r)."""

import numpy as np
import pytest

from repro.core.qps import QPSScheduler, qps_match
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic


class TestQpsMatch:
    def test_validation(self, rng):
        with pytest.raises(ValueError, match="square"):
            qps_match(np.zeros((2, 3)), rng)
        with pytest.raises(ValueError, match="non-negative"):
            qps_match(np.array([[-1]]), rng)
        with pytest.raises(ValueError, match="rounds"):
            qps_match(np.zeros((2, 2)), rng, rounds=0)

    def test_empty(self, rng):
        assert len(qps_match(np.zeros((4, 4), dtype=int), rng)) == 0

    def test_valid_matching(self, rng):
        for _ in range(50):
            occupancy = rng.integers(0, 5, size=(6, 6))
            matching = qps_match(occupancy, rng, rounds=2)
            assert matching.respects(occupancy > 0)

    def test_proposals_proportional_to_occupancy(self, rng):
        """Input 0 splits 9:1 between outputs; the sampled proposal
        frequencies must track the queue depths."""
        occupancy = np.array([[9, 1], [0, 0]])
        wins = {0: 0, 1: 0}
        for _ in range(2000):
            for i, j in qps_match(occupancy, rng).pairs:
                wins[j] += 1
        total = wins[0] + wins[1]
        assert total == 2000  # input 0 always proposes somewhere
        assert wins[0] / total == pytest.approx(0.9, abs=0.03)

    def test_not_maximal_single_round(self):
        """One proposal per input per round: when both inputs sample
        the same output, the loser stays unmatched even though its
        other request was grantable -- QPS-r trades maximality for
        O(1) work, unlike lqf/wavefront."""
        occupancy = np.array([[5, 1], [5, 0]])
        saw_non_maximal = False
        rng = np.random.default_rng(0)
        for _ in range(200):
            if len(qps_match(occupancy, rng, rounds=1)) == 1:
                saw_non_maximal = True
                break
        assert saw_non_maximal

    def test_more_rounds_fill_the_match(self, rng):
        occupancy = np.eye(8, dtype=int) * 3
        matching = qps_match(occupancy, rng, rounds=8)
        assert len(matching) == 8


class TestQPSScheduler:
    def test_switch_integration(self):
        """The switch feeds occupancy to a needs_occupancy scheduler,
        and QPS-r carries a high uniform load."""
        switch = CrossbarSwitch(8, QPSScheduler(rounds=2, seed=0))
        result = switch.run(
            UniformTraffic(8, load=0.85, seed=1), slots=4000, warmup=500
        )
        assert result.throughput == pytest.approx(result.offered, rel=0.05)
        assert result.dropped == 0

    def test_checked_under_invariants(self):
        """Every matching survives CheckingScheduler's validity checks
        (and QPS-r is correctly *not* held to maximality)."""
        from repro.check.invariants import CheckingScheduler

        switch = CrossbarSwitch(6, CheckingScheduler(QPSScheduler(seed=3)))
        switch.run(UniformTraffic(6, load=0.9, seed=4), slots=500)

    def test_round_robin_accept_pointer_advances(self):
        scheduler = QPSScheduler(seed=0)
        occupancy = np.array([[2, 0], [0, 0]])
        scheduler.schedule(occupancy > 0, occupancy)
        # Input 0 won output 0; the accept pointer moves past it.
        assert scheduler._pointers[0, 0] == 1

    def test_reset_replays_sampling_stream(self):
        scheduler = QPSScheduler(rounds=2, seed=7)
        rng = np.random.default_rng(1)
        slots = [rng.integers(0, 4, size=(5, 5)) for _ in range(60)]

        def run():
            return [
                sorted(scheduler.schedule(occ > 0, occ).pairs) for occ in slots
            ]

        first = run()
        scheduler.reset()
        assert first == run()

    def test_degrades_without_occupancy(self, rng):
        scheduler = QPSScheduler(seed=0)
        requests = rng.random((4, 4)) < 0.5
        matching = scheduler.schedule(requests)
        assert matching.respects(requests)
