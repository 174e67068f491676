"""Focused tests for iSLIP's iteration-1-only pointer update rule."""

import numpy as np
import pytest

from repro.core.islip import ISLIPScheduler


def scheduler_and_pointers(n=4, iterations=1):
    """A one-replica iSLIP scheduler and views of its (grant, accept)
    pointer rows, which the kernel updates in place."""
    scheduler = ISLIPScheduler(iterations=iterations, ports=n)
    return scheduler, scheduler._grant_pointers[0], scheduler._accept_pointers[0]


class TestIterationOnePointerRule:
    def test_second_iteration_accept_does_not_move_pointers(self):
        """A match added in iteration 2 must leave pointers untouched.

        Input 0 requests outputs 0 and 1; input 1 requests output 0
        only.  Iteration 1: both outputs grant input 0 (pointers at 0);
        input 0 accepts output 0.  Iteration 2: output 1 grants... no,
        output 1's only requester was input 0 (now matched).  Build a
        case where iteration 2 adds (1, 1): input 1 requests {0, 1}.
        Iteration 1: outputs 0 and 1 both grant input 0; input 0
        accepts output 0; input 1 got nothing.  Iteration 2: output 1
        grants input 1; accepted.  That match is second-iteration, so
        grant_pointers[1] must stay at 0 (not 2).
        """
        scheduler, grant_ptr, accept_ptr = scheduler_and_pointers(iterations=2)
        requests = np.zeros((4, 4), dtype=bool)
        requests[0, 0] = requests[0, 1] = True
        requests[1, 0] = requests[1, 1] = True
        matching = scheduler.schedule(requests)
        assert set(matching.pairs) == {(0, 0), (1, 1)}
        # Iteration-1 accept: (0, 0) -> grant_ptr[0] = 1, accept_ptr[0] = 1.
        assert grant_ptr[0] == 1
        assert accept_ptr[0] == 1
        # Iteration-2 accept: (1, 1) -> pointers unchanged.
        assert grant_ptr[1] == 0
        assert accept_ptr[1] == 0

    def test_pointer_wraparound(self):
        scheduler, grant_ptr, accept_ptr = scheduler_and_pointers()
        grant_ptr[2] = 3
        requests = np.zeros((4, 4), dtype=bool)
        requests[3, 2] = True
        requests[0, 2] = True
        matching = scheduler.schedule(requests)
        # Pointer at 3: input 3 is the first requester at/after it.
        assert (3, 2) in matching.pairs
        assert grant_ptr[2] == 0  # (3 + 1) % 4

    def test_pointers_give_priority_order(self):
        scheduler, grant_ptr, accept_ptr = scheduler_and_pointers()
        grant_ptr[0] = 2
        requests = np.zeros((4, 4), dtype=bool)
        requests[1, 0] = requests[3, 0] = True
        matching = scheduler.schedule(requests)
        # From pointer 2, the first requester is input 3 (not 1).
        assert (3, 0) in matching.pairs

    def test_accept_pointer_prefers_lower_offset_output(self):
        scheduler, grant_ptr, accept_ptr = scheduler_and_pointers()
        accept_ptr[0] = 2
        requests = np.zeros((4, 4), dtype=bool)
        requests[0, 1] = requests[0, 3] = True
        matching = scheduler.schedule(requests)
        # Both outputs grant input 0; from pointer 2, output 3 wins.
        assert (0, 3) in matching.pairs


class TestSchedulerSizeChange:
    def test_islip_scheduler_raises_on_size_change(self):
        scheduler = ISLIPScheduler()
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        before = scheduler._grant_pointers.copy()
        with pytest.raises(ValueError, match="reset"):
            scheduler.schedule(np.ones((6, 6), dtype=bool))
        # The failed call must not have clobbered the pointer state.
        assert (scheduler._grant_pointers == before).all()

    def test_rrm_scheduler_raises_on_size_change(self):
        from repro.core.rrm import RRMScheduler

        scheduler = RRMScheduler()
        scheduler.schedule(np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="reset"):
            scheduler.schedule(np.ones((2, 2), dtype=bool))
        scheduler.reset()
        scheduler.schedule(np.ones((2, 2), dtype=bool))
