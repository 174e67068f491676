"""Tests for the batched stateful PIM scheduler."""

import numpy as np
import pytest

from repro.core.matching import Matching, is_maximal
from repro.core.pim import AN2_ITERATIONS, BatchPIMScheduler, pim_match


def legal(match, requests, output_capacity=1):
    """Every matched pair is requested; port constraints respected."""
    b, n = match.shape
    for rep in range(b):
        outputs = [int(j) for j in match[rep] if j >= 0]
        if len(set(outputs)) != len(outputs) and output_capacity == 1:
            return False
        for j in set(outputs):
            if outputs.count(j) > output_capacity:
                return False
        for i in range(n):
            j = int(match[rep, i])
            if j >= 0 and not requests[rep, i, j]:
                return False
    return True


class TestBatchPIMScheduler:
    def test_full_matrices_perfect_match(self):
        sched = BatchPIMScheduler(replicas=5, ports=8, iterations=None, seed=0)
        match = sched.schedule(np.ones((5, 8, 8), dtype=bool))
        assert (match >= 0).all()
        for rep in range(5):
            assert sorted(int(j) for j in match[rep]) == list(range(8))

    def test_matches_are_legal(self, rng):
        sched = BatchPIMScheduler(replicas=16, ports=8, seed=1)
        for _ in range(10):
            requests = rng.random((16, 8, 8)) < 0.4
            match = sched.schedule(requests)
            assert legal(match, requests)

    def test_run_to_completion_is_maximal_per_replica(self, rng):
        sched = BatchPIMScheduler(replicas=32, ports=8, iterations=None, seed=2)
        requests = rng.random((32, 8, 8)) < 0.5
        match = sched.schedule(requests)
        assert sched.last_completed.all()
        for rep in range(32):
            pairs = [(i, int(j)) for i, j in enumerate(match[rep]) if j >= 0]
            assert is_maximal(Matching.from_pairs(pairs), requests[rep])

    def test_iteration_budget_respected(self, rng):
        sched = BatchPIMScheduler(replicas=4, ports=16, iterations=1, seed=3)
        sched.schedule(np.ones((4, 16, 16), dtype=bool))
        assert sched.last_cumulative_sizes.shape[1] == 1

    def test_empty_requests_run_zero_iterations(self):
        sched = BatchPIMScheduler(replicas=3, ports=4, seed=4)
        match = sched.schedule(np.zeros((3, 4, 4), dtype=bool))
        assert (match == -1).all()
        assert (sched.last_cumulative_sizes == 0).all()
        assert sched.last_completed.all()

    def test_output_capacity_two(self):
        requests = np.zeros((2, 4, 4), dtype=bool)
        requests[:, 0, 1] = requests[:, 2, 1] = True
        sched = BatchPIMScheduler(
            replicas=2, ports=4, iterations=None, output_capacity=2, seed=5
        )
        match = sched.schedule(requests)
        assert legal(match, requests, output_capacity=2)
        for rep in range(2):
            assert int(match[rep, 0]) == 1 and int(match[rep, 2]) == 1

    def test_round_robin_pointers_carry_across_slots(self):
        """With a full request matrix and one granted output per input,
        round-robin accept pointers advance every slot."""
        sched = BatchPIMScheduler(
            replicas=2, ports=4, accept="round_robin", iterations=None, seed=6
        )
        sched.schedule(np.ones((2, 4, 4), dtype=bool))
        first = sched._pointers.copy()
        sched.schedule(np.ones((2, 4, 4), dtype=bool))
        assert (sched._pointers != first).any()
        sched.reset()
        assert (sched._pointers == 0).all()

    def test_round_robin_accept_honors_pointer(self):
        """An input granted every output accepts the one at its pointer."""
        sched = BatchPIMScheduler(
            replicas=1, ports=4, accept="round_robin", iterations=1, seed=7
        )
        sched._pointers[0, 0] = 2
        # Only input 0 requests, so it receives every grant it asks for.
        requests = np.zeros((1, 4, 4), dtype=bool)
        requests[0, 0, :] = True
        match = sched.schedule(requests)
        assert int(match[0, 0]) == 2
        assert int(sched._pointers[0, 0]) == 3

    def test_matches_pim_match_in_distribution(self, rng):
        """B=1 batch maximal sizes agree with pim_match run to completion."""
        requests = rng.random((300, 8, 8)) < 0.5
        sched = BatchPIMScheduler(replicas=300, ports=8, iterations=None, seed=8)
        match = sched.schedule(requests)
        batch_mean = (match >= 0).sum(axis=1).mean()
        singles = np.mean(
            [len(pim_match(m, rng, iterations=None).matching) for m in requests]
        )
        assert batch_mean == pytest.approx(singles, rel=0.05)

    def test_shape_validation(self):
        sched = BatchPIMScheduler(replicas=2, ports=4, seed=9)
        with pytest.raises(ValueError, match="B, N, N"):
            sched.schedule(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="expected"):
            sched.schedule(np.ones((3, 4, 4), dtype=bool))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            BatchPIMScheduler(replicas=0, ports=4)
        with pytest.raises(ValueError, match="iterations"):
            BatchPIMScheduler(replicas=1, ports=4, iterations=0)
        with pytest.raises(ValueError, match="output_capacity"):
            BatchPIMScheduler(replicas=1, ports=4, output_capacity=0)
        with pytest.raises(ValueError, match="accept"):
            BatchPIMScheduler(replicas=1, ports=4, accept="bogus")

    def test_track_sizes_off_skips_diagnostics(self):
        sched = BatchPIMScheduler(replicas=2, ports=4, seed=10, track_sizes=False)
        sched.schedule(np.ones((2, 4, 4), dtype=bool))
        assert sched.last_cumulative_sizes is None
        assert sched.last_completed is None

    def test_default_is_an2_configuration(self):
        assert BatchPIMScheduler(replicas=1, ports=4).iterations == AN2_ITERATIONS


class TestPimMatchBatchWrapper:
    """The one-shot Table 1 read-out: one run-to-completion slot on an
    injected generator, then ``last_cumulative_sizes``."""

    def test_deterministic_given_same_rng_seed(self):
        batch = np.random.default_rng(0).random((50, 8, 8)) < 0.5
        sizes = []
        for _ in range(2):
            sched = BatchPIMScheduler(50, 8, iterations=None, rng=np.random.default_rng(42))
            sched.schedule(batch)
            sizes.append(sched.last_cumulative_sizes)
        assert (sizes[0] == sizes[1]).all()

    def test_last_column_is_maximal_size(self, rng):
        batch = rng.random((64, 8, 8)) < 0.5
        sched = BatchPIMScheduler(replicas=64, ports=8, iterations=None, rng=rng)
        match = sched.schedule(batch)
        assert sched.last_completed.all()
        assert (sched.last_cumulative_sizes[:, -1] == (match >= 0).sum(axis=1)).all()
