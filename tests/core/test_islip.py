"""Tests for the iSLIP scheduler."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.islip import ISLIPScheduler
from repro.core.matching import is_maximal
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

from tests.conftest import request_matrices


def pointers(scheduler):
    """The (grant, accept) pointer rows of a one-replica iSLIP kernel,
    as views (the kernel updates them in place)."""
    return scheduler._grant_pointers[0], scheduler._accept_pointers[0]


class TestIslipMatch:
    def test_uncontended_full_match(self):
        n = 4
        matching = ISLIPScheduler(ports=n).schedule(np.eye(n, dtype=bool))
        assert len(matching) == n

    def test_pointer_update_rule(self):
        """Pointers advance one past the accepted ports, iteration 1 only."""
        n = 4
        scheduler = ISLIPScheduler(ports=n)
        grant_ptr, accept_ptr = pointers(scheduler)
        requests = np.zeros((n, n), dtype=bool)
        requests[2, 3] = True
        matching = scheduler.schedule(requests)
        assert matching.pairs == ((2, 3),)
        assert grant_ptr[3] == 3  # (input 2 + 1) % 4
        assert accept_ptr[2] == 0  # (output 3 + 1) % 4

    def test_unaccepted_grant_does_not_move_pointer(self):
        """The no-starvation property hinges on this rule."""
        n = 4
        scheduler = ISLIPScheduler(iterations=1, ports=n)
        grant_ptr, _ = pointers(scheduler)
        # Input 0 requests outputs 0 and 1; both outputs grant to
        # input 0 (their pointers are at 0); input 0 accepts output 0.
        requests = np.zeros((n, n), dtype=bool)
        requests[0, 0] = requests[0, 1] = True
        scheduler.schedule(requests)
        assert grant_ptr[0] == 1  # accepted
        assert grant_ptr[1] == 0  # granted but not accepted: unchanged

    def test_desynchronization_reaches_full_throughput(self):
        """Under persistent full demand, pointers desynchronize and the
        switch settles into perfect (size-N) matchings -- iSLIP's
        signature behaviour with a single iteration."""
        n = 8
        scheduler = ISLIPScheduler(iterations=1)
        requests = np.ones((n, n), dtype=bool)
        sizes = [len(scheduler.schedule(requests)) for _ in range(50)]
        assert all(size == n for size in sizes[-10:])

    def test_iterations_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            ISLIPScheduler(iterations=0).schedule(np.ones((2, 2), dtype=bool))

    @given(request_matrices(), st.integers(1, 4))
    def test_always_legal(self, requests, iterations):
        matching = ISLIPScheduler(iterations=iterations).schedule(requests)
        assert matching.respects(requests)

    @given(request_matrices())
    def test_n_iterations_maximal(self, requests):
        """With N iterations iSLIP always reaches a maximal match."""
        n = requests.shape[0]
        matching = ISLIPScheduler(iterations=n).schedule(requests)
        assert is_maximal(matching, requests)


class TestISLIPScheduler:
    def test_carries_high_uniform_load(self):
        switch = CrossbarSwitch(16, ISLIPScheduler(iterations=1))
        result = switch.run(UniformTraffic(16, load=0.9, seed=1), slots=6000, warmup=1000)
        assert result.throughput == pytest.approx(result.offered, rel=0.03)

    def test_reset(self):
        scheduler = ISLIPScheduler(ports=4)
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert pointers(scheduler)[0].any()
        scheduler.reset()
        assert not any(p.any() for p in pointers(scheduler))

    def test_invalid_iterations(self):
        with pytest.raises(ValueError, match=">= 1"):
            ISLIPScheduler(iterations=0)

    def test_rejects_mid_run_size_change(self):
        scheduler = ISLIPScheduler()
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="reset"):
            scheduler.schedule(np.ones((8, 8), dtype=bool))
        scheduler.reset()
        scheduler.schedule(np.ones((8, 8), dtype=bool))
        assert scheduler._grant_pointers.shape == (1, 8)
