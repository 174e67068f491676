"""QPS-r: queue-proportional sampling with round-robin accept.

Gong, Xu, Liu and Maguluri's QPS-r (arxiv 1905.05392, named in
PAPERS.md as a direct descendant of this paper's scheduling problem)
replaces PIM's uniform request broadcast with *one* queue-proportional
sample per input per round:

1. **Propose.**  Every still-unmatched input with queued cells toward
   a still-available output samples exactly one such output, with
   probability proportional to the VOQ occupancy (longer queues
   propose more often -- the "queue-proportional sampling" that gives
   the algorithm its throughput guarantees with r = 1 round).
2. **Accept.**  Every proposed-to output accepts the first proposing
   input at/after its round-robin pointer and advances the pointer one
   past the accepted input (the starvation-freedom device this paper
   prescribes for accept choices in Section 3.4).

r rounds run per slot (``rounds``); unmatched inputs re-sample among
the outputs still free.  Unlike PIM/iSLIP a round costs each input one
sample instead of a broadcast, and unlike LQF no global sort is
needed; the price is that the matching is not maximal in general (an
input's single sample can land on an output that rejects it while
another free output goes idle), so
:func:`repro.check.invariants._maximality_guaranteed` does not claim
maximality for it.

One kernel, :class:`BatchQPSScheduler`, implements it; the object
:class:`QPSScheduler` is its B = 1 call.  It is a pick rule over the
round loop of :mod:`repro.core.batch`, which walks the request graph's
edge list with the weights alongside, so a round is O(1) array work per
unresolved request: one running sum of the edge weights, one binary
search per proposing input, one round-robin winner per output line.
**Stream contract**: the sampling uniforms are drawn as one
``(B, N)`` block per round for **all** inputs, proposers or not, so the
random-stream consumption is a pure function of (N, rounds); with a
shared seed the two are bit-identical, which is what the slot-exact
differential parity checks rely on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    ObjectScheduler,
    line_winners,
    replay_generator,
)
from repro.core.matching import Matching

__all__ = ["BatchQPSScheduler", "QPSScheduler", "qps_match"]


def qps_match(occupancy: np.ndarray, rng, rounds: int = 1) -> Matching:
    """One slot of QPS-r on a single occupancy matrix.

    ``occupancy[i, j]`` is the number of queued cells for (i, j);
    sampling weight is the occupancy itself.  One slot of a fresh
    :class:`QPSScheduler` on ``rng``: the accept pointers start at zero.
    """
    return QPSScheduler(rounds, rng=rng).schedule(np.asarray(occupancy) > 0, occupancy)


class QPSScheduler(ObjectScheduler):
    """Stateful QPS-r scheduler for :class:`CrossbarSwitch`.

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchQPSScheduler`.  ``needs_occupancy`` is set so the
    switch passes queue depths (the sampling weights).  The accept
    pointers are sized by the first request matrix seen; a mid-run size
    change raises ``ValueError`` like iSLIP/RRM/wavefront (call
    :meth:`reset` when intended).

    Parameters
    ----------
    rounds:
        Propose/accept rounds r per slot (the paper's r; r = 1 already
        carries QPS-r's throughput guarantees).  ``None`` runs N
        rounds per slot.
    seed / rng:
        Private sampling stream (``rng`` wins when both given);
        ``seed=None`` falls back to the deterministic per-component
        stream of the :mod:`repro.sim.rng` default-seed policy.
    """

    def __init__(
        self, rounds: Optional[int] = 1, seed: Optional[int] = None, rng=None
    ):
        super().__init__("qps", iterations=rounds, seed=seed, rng=rng)


class BatchQPSScheduler(BatchScheduler):
    """QPS-r vectorized over B independent switch replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    with per-(replica, output) accept pointers over the request graph's
    edge list: a round is one running sum of the edge weights, one
    binary search per proposing input and one round-robin winner per
    output line.  At B = 1 it is :class:`QPSScheduler`; with a shared
    seed the two are bit-identical (see the module docstring's stream
    contract).
    """

    name = "qps_batch"
    needs_occupancy = True

    def __init__(
        self,
        replicas: int,
        ports: int,
        rounds: Optional[int] = 1,
        seed: Optional[int] = None,
        rng=None,
        output_capacity: int = 1,
    ):
        super().__init__(replicas, ports, output_capacity=output_capacity)
        if rounds is not None and rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self._resolve_streams(seed, rng, "qps")
        self._pointers = np.zeros((replicas, ports), dtype=np.int64)

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas.

        One ``(B, N)`` uniform block is drawn per round regardless of
        who can propose -- see the module docstring's stream contract.
        """
        budget = self.rounds if self.rounds is not None else self.ports
        match, rounds, _ = self._rounds(
            requests, occupancy, self._pick, budget, self._commit, self._arm
        )
        for _ in range(budget - rounds):  # the rounds after the edges ran out
            self._rng.random((self.replicas, self.ports))
        return match

    def _arm(self, edges, weights):
        if self._bank is not None:
            self._bank.arm(edges[0])
        return weights

    def _pick(self, rounds, edges, weights):
        n = self.ports
        u = self._rng.random((self.replicas, n))
        # C order keeps an input's edges contiguous, so one running sum
        # of the weights holds every input's CDF: its segment ends at
        # its last edge and starts where the previous proposer's ended.
        cum = np.cumsum(weights)
        lines = edges[1]
        last = np.concatenate(((lines[1:] != lines[:-1]).nonzero()[0], [-1]))
        end = cum.take(last)
        start = np.concatenate(([0], end[:-1]))
        # Inverse-CDF sample: the first edge whose cumulative weight
        # exceeds u * total -- the sums are integers, so floor(u * total).
        draws = u.reshape(-1).take(lines.take(last))
        target = start + (draws * (end - start)).astype(np.int64)
        proposals = edges.take(cum.searchsorted(target, side="right"), axis=1)
        # Accept: first proposer at/after the output's pointer.
        keys = n - (proposals[1] - self._pointers.reshape(-1)[proposals[2]]) % n
        winners = line_winners(proposals[2], keys, self.replicas * n)
        return proposals, proposals.take(winners, axis=1)

    def _commit(self, rounds, edges, proposals, accepts, match) -> None:
        self._pointers.reshape(-1)[accepts[2]] = (accepts[1] + 1) % self.ports

    def reset(self) -> None:
        """Restore pointers and rewind the sampling stream."""
        self._pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)
        self._rng = replay_generator(self._rng, self._rng_token)

    def __repr__(self) -> str:
        r = "N" if self.rounds is None else self.rounds
        return (
            f"BatchQPSScheduler(replicas={self.replicas}, "
            f"ports={self.ports}, rounds={r})"
        )
