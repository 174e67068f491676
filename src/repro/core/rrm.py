"""Round-Robin Matching (RRM) -- the deterministic strawman.

The obvious way to remove PIM's randomness is to replace both random
choices with round-robin pointers that advance every slot: each output
grants the first requester at/after its pointer, each input accepts
the first grant at/after its pointer, and *all pointers advance one
past their choice unconditionally*.  This is RRM, the known-flawed
precursor to iSLIP: under uniform saturated traffic the grant pointers
synchronize -- every output points at the same input, exactly the
pathology Appendix A's randomness argument guards against -- and the
throughput collapses to roughly PIM-1's 1 - 1/e rather than 100%.

iSLIP (:mod:`repro.core.islip`) differs only in updating pointers when
a grant is *accepted, in the first iteration*; the arbiter-policy
ablation puts the three side by side, making the paper's "randomness
de-synchronizes decisions made by a large number of agents" (Section
1) quantitative.  So the kernel here is iSLIP's pick over the shared
round loop of :mod:`repro.core.batch` with RRM's pointer rule as its
commit hook, and :class:`RRMScheduler` is its B = 1 call.  It draws
nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import ObjectScheduler
from repro.core.islip import BatchISLIPScheduler

__all__ = ["BatchRRMScheduler", "RRMScheduler"]


class BatchRRMScheduler(BatchISLIPScheduler):
    """RRM vectorized over B replicas: iSLIP's pick, RRM's pointers.

    Each output's grant pointer moves one past the input it granted in
    the first iteration, accepted or not; each input's accept pointer
    moves one past every grant it accepts.  The moves past rejected
    grants are what keep the grant pointers marching in lockstep under
    symmetric load -- the synchronization bug iSLIP fixed.

    The grant pointers move in round 1, not at the end of the slot,
    and later rounds see the same grants either way: an output's
    round-1 grantee is now matched, and no input between its old
    pointer and that grantee requested it, so the first unmatched
    requester at/after either pointer is the same input.
    """

    name = "rrm_batch"

    def _commit(self, rounds, edges, grants, accepts, match) -> None:
        n = self.ports
        if rounds == 1:
            self._grant_pointers.reshape(-1)[grants[2]] = (grants[1] + 1) % n
        self._accept_pointers.reshape(-1)[accepts[1]] = (accepts[0] + 1) % n


class RRMScheduler(ObjectScheduler):
    """Stateful RRM scheduler (the synchronization-prone strawman).

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchRRMScheduler` with ``iterations`` rounds per slot
    (``None``: to convergence), under the adapter's size rule.
    """

    def __init__(self, iterations: Optional[int] = 1):
        super().__init__(
            "rrm", kernel=lambda ports: BatchRRMScheduler(1, ports, iterations)
        )
