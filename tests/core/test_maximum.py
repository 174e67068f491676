"""Tests for Hopcroft-Karp maximum matching and its scheduler."""

import itertools

import numpy as np
import pytest
from hypothesis import given

from repro.core.maximum import MaximumMatchingScheduler, hopcroft_karp

from tests.conftest import request_matrices


def brute_force_maximum(requests):
    """Exponential reference: try all subsets of edges (tiny n only).

    A matching has at most ``n`` edges (pigeonhole on the inputs), so
    the search starts at ``min(n, len(edges))``; no larger subset can
    be one.
    """
    n = requests.shape[0]
    edges = [(i, j) for i in range(n) for j in range(n) if requests[i, j]]
    best = 0
    for k in range(min(n, len(edges)), 0, -1):
        if k <= best:
            break
        for subset in itertools.combinations(edges, k):
            ins = [i for i, _ in subset]
            outs = [j for _, j in subset]
            if len(set(ins)) == k and len(set(outs)) == k:
                best = k
                break
    return best


class TestHopcroftKarp:
    def test_identity(self):
        assert len(hopcroft_karp(np.eye(5, dtype=bool))) == 5

    def test_empty(self):
        assert len(hopcroft_karp(np.zeros((4, 4), dtype=bool))) == 0

    def test_full(self):
        assert len(hopcroft_karp(np.ones((6, 6), dtype=bool))) == 6

    def test_needs_augmenting_path(self):
        """A pattern where greedy first-fit is suboptimal."""
        requests = np.array(
            [
                [True, True],
                [True, False],
            ]
        )
        # Greedy gives (0,0) then input 1 is stuck; maximum pairs both.
        assert len(hopcroft_karp(requests)) == 2

    def test_single_column(self):
        requests = np.zeros((5, 5), dtype=bool)
        requests[:, 2] = True
        assert len(hopcroft_karp(requests)) == 1

    @given(request_matrices(max_ports=5))
    def test_matches_brute_force(self, requests):
        assert len(hopcroft_karp(requests)) == brute_force_maximum(requests)

    @given(request_matrices())
    def test_result_is_legal(self, requests):
        matching = hopcroft_karp(requests)
        assert matching.respects(requests)

    def test_deterministic(self, rng):
        requests = rng.random((8, 8)) < 0.5
        assert hopcroft_karp(requests).pairs == hopcroft_karp(requests).pairs


class TestMaximumMatchingScheduler:
    def test_scheduler_protocol(self, rng):
        scheduler = MaximumMatchingScheduler()
        requests = rng.random((6, 6)) < 0.5
        matching = scheduler.schedule(requests)
        assert matching.respects(requests)
        assert scheduler.slots_scheduled == 1
        scheduler.reset()
        assert scheduler.slots_scheduled == 0

    def test_starves_dominated_connection(self):
        """Section 3.4: maximum matching can starve.

        With inputs {0, 1} and outputs {0, 1} where input 0 requests
        both outputs, input 1 requests output 0 only, and output 1 is
        requested only by input 0: the unique maximum matching is
        {(0, 1), (1, 0)}, so the (0, 0) connection is NEVER served.
        """
        requests = np.array(
            [
                [True, True],
                [True, False],
            ]
        )
        scheduler = MaximumMatchingScheduler()
        for _ in range(100):
            matching = scheduler.schedule(requests)
            assert (0, 0) not in matching.pairs
