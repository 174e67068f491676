"""Tests for statistical matching (Section 5, Appendix C)."""

import math

import numpy as np
import pytest

from repro.analysis.statistical_theory import single_round_fraction
from repro.core.statistical import StatisticalMatcher, virtual_grant_pmf


class TestVirtualGrantPmf:
    def test_is_a_distribution(self):
        for x_ij, x in [(1, 4), (3, 8), (8, 8), (5, 100)]:
            pmf = virtual_grant_pmf(x_ij, x)
            assert pmf.shape == (x_ij + 1,)
            assert (pmf >= 0).all()
            assert pmf.sum() == pytest.approx(1.0)

    def test_unconditional_matches_binomial(self):
        """grant_prob * conditional == Binomial(x_ij, 1/X) for m >= 1."""
        x_ij, x = 4, 10
        pmf = virtual_grant_pmf(x_ij, x)
        grant_prob = x_ij / x
        for m in range(1, x_ij + 1):
            binomial = (
                math.comb(x_ij, m) * (1 / x) ** m * ((x - 1) / x) ** (x_ij - m)
            )
            assert grant_prob * pmf[m] == pytest.approx(binomial)

    def test_validation(self):
        with pytest.raises(ValueError, match="x_ij must be >= 1"):
            virtual_grant_pmf(0, 4)
        with pytest.raises(ValueError, match="x_total"):
            virtual_grant_pmf(5, 4)


class TestConstruction:
    def test_row_over_allocation_rejected(self):
        alloc = np.zeros((3, 3), dtype=int)
        alloc[0] = [4, 4, 4]
        with pytest.raises(ValueError, match="input 0 over-allocated"):
            StatisticalMatcher(alloc, units=10)

    def test_column_over_allocation_rejected(self):
        alloc = np.zeros((3, 3), dtype=int)
        alloc[:, 1] = 4
        with pytest.raises(ValueError, match="output 1 over-allocated"):
            StatisticalMatcher(alloc, units=10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StatisticalMatcher(np.array([[-1]]), units=4)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            StatisticalMatcher(np.zeros((2, 3), dtype=int), units=4)

    def test_parameter_validation(self):
        alloc = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError, match="units"):
            StatisticalMatcher(alloc, units=0)
        with pytest.raises(ValueError, match="rounds"):
            StatisticalMatcher(alloc, units=4, rounds=0)


class TestMatching:
    def test_match_is_legal(self):
        alloc = np.full((4, 4), 2, dtype=int)
        matcher = StatisticalMatcher(alloc, units=8, seed=0)
        for _ in range(100):
            matching = matcher.match()
            inputs = [i for i, _ in matching.pairs]
            outputs = [j for _, j in matching.pairs]
            assert len(set(inputs)) == len(inputs)
            assert len(set(outputs)) == len(outputs)

    def test_zero_allocation_pairs_never_matched(self):
        alloc = np.diag([4, 4, 4, 4])
        matcher = StatisticalMatcher(alloc, units=4, seed=0)
        for _ in range(200):
            for i, j in matcher.match():
                assert i == j

    def test_single_round_rate_matches_theory(self):
        """Empirical per-connection rate equals X_ij/X * (1 - ((X-1)/X)^X)."""
        n, x = 4, 8
        alloc = np.full((n, n), 2, dtype=int)
        matcher = StatisticalMatcher(alloc, units=x, rounds=1, seed=1)
        trials = 8000
        counts = np.zeros((n, n))
        for _ in range(trials):
            for i, j in matcher.match():
                counts[i, j] += 1
        expected = (2 / x) * single_round_fraction(x)
        np.testing.assert_allclose(counts / trials, expected, rtol=0.12)

    def test_two_rounds_strictly_better(self):
        n, x = 4, 8
        alloc = np.full((n, n), 2, dtype=int)
        trials = 4000

        def measure(rounds, seed):
            matcher = StatisticalMatcher(alloc, units=x, rounds=rounds, seed=seed)
            return sum(len(matcher.match()) for _ in range(trials)) / trials

        assert measure(2, 0) > measure(1, 1) * 1.05

    def test_partial_allocation_imaginary_ports(self):
        """Under-reserved switch still matches proportionally and legally."""
        alloc = np.zeros((4, 4), dtype=int)
        alloc[0, 1] = 3  # only one connection reserved; everything else slack
        matcher = StatisticalMatcher(alloc, units=12, seed=2)
        seen = 0
        for _ in range(2000):
            matching = matcher.match()
            for i, j in matching:
                assert (i, j) == (0, 1)
                seen += 1
        assert seen > 0


class TestSetAllocation:
    def test_rate_change_applies(self):
        alloc = np.zeros((2, 2), dtype=int)
        matcher = StatisticalMatcher(alloc, units=4, seed=0)
        matcher.set_allocation(0, 1, 4)
        assert matcher.allocations[0, 1] == 4
        seen = any(matcher.match().pairs for _ in range(100))
        assert seen

    def test_infeasible_change_rejected_and_rolled_back(self):
        alloc = np.array([[2, 0], [0, 2]])
        matcher = StatisticalMatcher(alloc, units=4, seed=0)
        with pytest.raises(ValueError, match="over-allocated"):
            matcher.set_allocation(0, 1, 3)  # row 0 would be 5 > 4
        assert matcher.allocations[0, 1] == 0

    def test_negative_rejected(self):
        matcher = StatisticalMatcher(np.zeros((2, 2), dtype=int), units=4)
        with pytest.raises(ValueError, match="non-negative"):
            matcher.set_allocation(0, 0, -1)


class TestSchedule:
    def test_unbacked_matches_dropped(self):
        alloc = np.diag([4, 4])
        matcher = StatisticalMatcher(alloc, units=4, seed=0)
        requests = np.zeros((2, 2), dtype=bool)  # nothing queued
        for _ in range(50):
            assert len(matcher.schedule(requests)) == 0

    def test_fill_uses_remaining_ports(self):
        """With fill on, an idle reservation's ports carry VBR traffic."""
        alloc = np.diag([4, 4, 4, 4])
        matcher = StatisticalMatcher(alloc, units=4, seed=0, fill=True)
        requests = np.zeros((4, 4), dtype=bool)
        requests[0, 1] = True  # off-allocation VBR demand
        matched = sum(
            (0, 1) in matcher.schedule(requests).pairs for _ in range(50)
        )
        assert matched == 50  # PIM fill always finds the lone request

    def test_size_mismatch_rejected(self):
        matcher = StatisticalMatcher(np.zeros((2, 2), dtype=int), units=4)
        with pytest.raises(ValueError, match="sized for 2 ports"):
            matcher.schedule(np.zeros((3, 3), dtype=bool))

    def test_scheduler_protocol(self):
        matcher = StatisticalMatcher(np.zeros((2, 2), dtype=int), units=4)
        matcher.reset()
        assert "StatisticalMatcher" in repr(matcher)


class TestReset:
    """Regression: ``reset()`` used to be a no-op while ``_rng`` and
    ``_fill_rng`` advanced, so a rerun of the same matcher diverged
    from the first run (unlike PIM/iSLIP, whose ``reset()`` restores
    all cross-slot state)."""

    ALLOC = np.array(
        [[2, 1, 0, 1], [0, 2, 2, 0], [1, 0, 2, 1], [1, 1, 0, 2]], dtype=int
    )

    def test_reset_replays_match_sequence(self):
        matcher = StatisticalMatcher(self.ALLOC, units=8, rounds=2, seed=3)
        first = [sorted(matcher.match().pairs) for _ in range(60)]
        matcher.reset()
        second = [sorted(matcher.match().pairs) for _ in range(60)]
        assert first == second

    def test_reset_replays_fill_stream(self):
        matcher = StatisticalMatcher(
            self.ALLOC, units=8, rounds=2, seed=3, fill=True
        )
        requests = np.ones((4, 4), dtype=bool)
        first = [sorted(matcher.schedule(requests).pairs) for _ in range(60)]
        matcher.reset()
        second = [sorted(matcher.schedule(requests).pairs) for _ in range(60)]
        assert first == second

    def test_switch_rerun_is_trace_identical(self):
        """Two ``CrossbarSwitch.run`` calls (run() itself resets the
        scheduler) on same-seeded traffic must replay the same trace."""
        from repro.obs import InMemorySink, Probe
        from repro.switch.switch import CrossbarSwitch
        from repro.traffic.uniform import UniformTraffic

        matcher = StatisticalMatcher(
            self.ALLOC, units=8, rounds=2, seed=5, fill=True
        )

        def run_once():
            probe = Probe(InMemorySink())
            traffic = UniformTraffic(4, load=0.8, seed=11)
            result = CrossbarSwitch(4, matcher).run(
                traffic, slots=150, probe=probe
            )
            return (
                [e.to_record() for e in probe.sink.events],
                result.counter.carried,
            )

        first_trace, first_carried = run_once()
        second_trace, second_carried = run_once()
        assert first_carried == second_carried
        assert first_trace == second_trace
