"""Tests for parallel iterative matching."""

import numpy as np
import pytest

from repro.core.matching import is_maximal
from repro.core.pim import AN2_ITERATIONS, BatchPIMScheduler, PIMScheduler, pim_match
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink


def figure2_requests():
    """The 4x4 request pattern of Figure 2.

    Input 0 requests outputs {0, 1}; input 1 requests {0, 1};
    input 2 requests {0}; input 3 requests {3}... the figure shows five
    requests total with the (3, 3) request resolving on iteration 2.
    We encode: in0 -> {0,1}, in1 -> {1}, in2 -> {1}, in3 -> {1,3}.
    """
    requests = np.zeros((4, 4), dtype=bool)
    requests[0, 0] = requests[0, 1] = True
    requests[1, 1] = True
    requests[2, 1] = True
    requests[3, 1] = requests[3, 3] = True
    return requests


class TestPimMatch:
    def test_full_matrix_perfect_match(self, rng):
        result = pim_match(np.ones((8, 8), dtype=bool), rng, iterations=None)
        assert len(result.matching) == 8
        assert result.completed

    def test_empty_matrix(self, rng):
        result = pim_match(np.zeros((4, 4), dtype=bool), rng)
        assert len(result.matching) == 0
        assert result.completed
        assert result.cumulative_sizes == (0,)

    def test_empty_matrix_runs_zero_iterations(self, rng):
        """No active requests means no iteration executes; the single
        ``cumulative_sizes`` entry is a sentinel, not a real round."""
        result = pim_match(np.zeros((4, 4), dtype=bool), rng)
        assert result.iterations == 0
        assert result.iterations_run == 0

    def test_nonempty_matrix_reports_executed_iterations(self, rng):
        result = pim_match(np.eye(4, dtype=bool), rng, iterations=None)
        assert result.iterations == 1
        assert result.iterations == len(result.cumulative_sizes)

    def test_wide_sparse_matrix_is_legal_and_maximal(self, rng):
        """N = 64, sparse requests: late rounds read only a few keys of
        their cube; legality and maximality hold."""
        requests = rng.random((64, 64)) < 0.05
        result = pim_match(requests, rng, iterations=None)
        assert result.matching.respects(requests)
        assert result.completed
        assert is_maximal(result.matching, requests)

    def test_diagonal_one_iteration(self, rng):
        """With no contention every pair matches in iteration 1."""
        result = pim_match(np.eye(8, dtype=bool), rng, iterations=None)
        assert result.cumulative_sizes[0] == 8

    def test_run_to_completion_is_maximal(self, rng):
        for _ in range(50):
            requests = rng.random((8, 8)) < rng.uniform(0.05, 1.0)
            result = pim_match(requests, rng, iterations=None)
            assert result.completed
            assert is_maximal(result.matching, requests)

    def test_matching_respects_requests(self, rng):
        for _ in range(50):
            requests = rng.random((6, 6)) < 0.4
            result = pim_match(requests, rng, iterations=2)
            assert result.matching.respects(requests)

    def test_cumulative_sizes_monotone(self, rng):
        requests = rng.random((16, 16)) < 0.8
        result = pim_match(requests, rng, iterations=None)
        sizes = result.cumulative_sizes
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == len(result.matching)

    def test_iteration_budget_respected(self, rng):
        requests = np.ones((16, 16), dtype=bool)
        result = pim_match(requests, rng, iterations=1)
        assert result.iterations == 1

    def test_single_column_worst_case(self, rng):
        """All inputs want one output: exactly one match, one iteration."""
        requests = np.zeros((8, 8), dtype=bool)
        requests[:, 3] = True
        result = pim_match(requests, rng, iterations=None)
        assert len(result.matching) == 1
        assert result.matching.pairs[0][1] == 3

    def test_invalid_iterations(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            pim_match(np.ones((2, 2), dtype=bool), rng, iterations=0)

    def test_invalid_accept_policy(self, rng):
        with pytest.raises(ValueError, match="unknown accept policy"):
            pim_match(np.ones((2, 2), dtype=bool), rng, accept="bogus")

    def test_trace_records_iterations(self):
        """A probed scheduler emits one PimIteration per executed round."""
        requests = figure2_requests()
        probe = Probe(InMemorySink())
        scheduler = PIMScheduler(iterations=None, seed=0)
        scheduler.attach_probe(probe)
        probe.begin_slot(0)
        scheduler.schedule(requests)
        events = probe.sink.of_kind("pim_iteration")
        result = scheduler.last_result
        assert [e.iteration for e in events] == list(range(1, result.iterations + 1))
        assert [e.matched for e in events] == list(result.cumulative_sizes)
        first = events[0]
        # Iteration 1 sees all six requests; grants: at most one per
        # output that has a request (outputs 0, 1 and 3).
        assert first.requests == requests.sum()
        assert first.accepts <= first.grants <= 3

    def test_round_robin_accept_uses_pointers(self, rng):
        pointers = np.zeros(4, dtype=np.int64)
        requests = np.ones((4, 4), dtype=bool)
        pim_match(requests, rng, iterations=None, accept="round_robin",
                  accept_pointers=pointers)
        # Pointers moved for the inputs that accepted.
        assert (pointers != 0).any()

    def test_output_capacity_two(self, rng):
        """k-grant generalization: an output may take two cells."""
        requests = np.zeros((4, 4), dtype=bool)
        requests[0, 1] = requests[2, 1] = True
        result = pim_match(requests, rng, iterations=None, output_capacity=2)
        outputs = [j for _, j in result.matching.pairs]
        assert outputs == [1, 1]

    def test_output_capacity_validation(self, rng):
        with pytest.raises(ValueError, match="output_capacity"):
            pim_match(np.ones((2, 2), dtype=bool), rng, output_capacity=0)


def cumulative_sizes(batch, rng):
    """(B, K) cumulative match sizes of one run-to-completion slot of
    ``batch`` on the batched kernel (the Table 1 read-out)."""
    kernel = BatchPIMScheduler(*batch.shape[:2], iterations=None, rng=rng)
    kernel.schedule(batch)
    return kernel.last_cumulative_sizes


class TestPimMatchBatch:
    def test_shapes(self, rng):
        batch = rng.random((10, 8, 8)) < 0.5
        cumulative = cumulative_sizes(batch, rng)
        assert cumulative.shape[0] == 10
        assert (np.diff(cumulative, axis=1) >= 0).all()

    def test_batch_final_sizes_are_maximal_sizes(self, rng):
        """Batch completion sizes match per-matrix run-to-completion runs
        in distribution (same mean within tolerance)."""
        batch = (rng.random((300, 8, 8)) < 0.5)
        batch_final = cumulative_sizes(batch, rng)[:, -1].mean()
        singles = np.mean([
            len(pim_match(m, rng, iterations=None).matching) for m in batch[:300]
        ])
        assert batch_final == pytest.approx(singles, rel=0.05)

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError, match="B, N, N"):
            BatchPIMScheduler(4, 4, rng=rng).schedule(np.ones((4, 4), dtype=bool))

    def test_empty_batch_matrices(self, rng):
        cumulative = cumulative_sizes(np.zeros((5, 4, 4), dtype=bool), rng)
        assert (cumulative == 0).all()


class TestPIMScheduler:
    def test_default_is_an2_configuration(self):
        scheduler = PIMScheduler()
        assert scheduler.iterations == AN2_ITERATIONS

    def test_schedule_returns_legal_matching(self, rng):
        scheduler = PIMScheduler(seed=1)
        for _ in range(20):
            requests = rng.random((8, 8)) < 0.5
            matching = scheduler.schedule(requests)
            assert matching.respects(requests)

    def test_deterministic_given_seed(self, rng):
        requests = rng.random((8, 8)) < 0.5
        a = PIMScheduler(seed=42).schedule(requests)
        b = PIMScheduler(seed=42).schedule(requests)
        assert a.pairs == b.pairs

    def test_reset_clears_pointers(self):
        scheduler = PIMScheduler(accept="round_robin", seed=0)
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert scheduler._pointers is not None
        scheduler.reset()
        assert scheduler._pointers is None

    def test_repr_shows_infinity(self):
        assert "inf" in repr(PIMScheduler(iterations=None))

    def test_last_result_exposed(self):
        scheduler = PIMScheduler(seed=0)
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert scheduler.last_result is not None
        assert scheduler.last_result.iterations >= 1


class TestStarvationFreedom:
    def test_every_connection_eventually_served(self, rng):
        """Section 3.4: PIM does not starve; maximum matching does.

        On the Figure 2 pattern, PIM serves (0, 0)-style dominated
        connections with positive frequency.
        """
        requests = figure2_requests()
        scheduler = PIMScheduler(iterations=4, seed=7)
        served = set()
        for _ in range(500):
            for pair in scheduler.schedule(requests):
                served.add(pair)
        # Every requested pair is served at least once over 500 slots.
        expected = {(i, j) for i in range(4) for j in range(4) if requests[i, j]}
        assert served == expected
