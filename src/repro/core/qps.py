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

Both implementations -- the object :class:`QPSScheduler` and the
batched :class:`BatchQPSScheduler` -- drive the *same* kernel
(:func:`_qps_rounds`), the object one at B = 1.  It walks the request
graph's edge list (:mod:`repro.core.batch`), so a round is O(1) array
work per unresolved request: one running sum of the edge weights, one
binary search per proposing input, one round-robin winner per output
line.  **Stream contract**: the sampling uniforms are drawn as one
``(B, N)`` block per round for **all** inputs, proposers or not, so the
random-stream consumption is a pure function of (N, rounds); with a
shared seed the two are bit-identical, which is what the slot-exact
differential parity checks rely on.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    line_winners,
    occupancy_edges,
    replay_generator,
    resolve_generator,
)
from repro.core.matching import Matching, as_request_matrix

__all__ = ["BatchQPSScheduler", "QPSScheduler", "qps_match"]


def _qps_rounds(
    edges: np.ndarray,
    weights: np.ndarray,
    rng,
    accept_pointers: np.ndarray,
    rounds: int,
    output_capacity: int,
) -> Tuple[np.ndarray, int]:
    """The shared QPS-r kernel over a batch's request graph.

    ``edges`` / ``weights`` come from
    :func:`repro.core.batch.occupancy_edges`; ``accept_pointers`` is
    (B, N) int64 and mutated in place (the round-robin accept state).
    Returns ``(match, proposal_rounds)``: the (B, N) match array and the
    number of rounds in which at least one input proposed.

    One ``(B, N)`` uniform block is drawn per round regardless of who
    can propose -- see the module docstring's stream contract.
    """
    b, n = accept_pointers.shape
    match = np.full(b * n, -1, dtype=np.int64)
    slots = np.full(b * n, output_capacity, dtype=np.int64)
    pointers = accept_pointers.reshape(-1)
    proposal_rounds = 0
    for _ in range(rounds):
        u = rng.random((b, n))
        if not edges.shape[1]:
            continue
        proposal_rounds += 1
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
        keys = n - (proposals[1] - pointers[proposals[2]]) % n
        accepts = proposals.take(line_winners(proposals[2], keys, b * n), axis=1)
        match[accepts[1]] = accepts[0] % n
        slots[accepts[2]] -= 1
        pointers[accepts[2]] = (accepts[1] + 1) % n
        unresolved = np.logical_and(match[lines] < 0, slots[edges[2]]).nonzero()[0]
        edges = edges.take(unresolved, axis=1)
        weights = weights.take(unresolved)
    return match.reshape(b, n), proposal_rounds


def qps_match(
    occupancy: np.ndarray,
    rng,
    rounds: int = 1,
    accept_pointers: Optional[np.ndarray] = None,
) -> Matching:
    """One slot of QPS-r on a single occupancy matrix.

    ``occupancy[i, j]`` is the number of queued cells for (i, j);
    sampling weight is the occupancy itself.  ``accept_pointers``
    (shape ``(N,)`` int64) is mutated in place when given, so a
    stateful caller carries the round-robin accept state across slots;
    fresh zeros are used otherwise.
    """
    matrix = np.asarray(occupancy)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"occupancy must be square, got shape {matrix.shape}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n = matrix.shape[0]
    if accept_pointers is None:
        pointers = np.zeros((1, n), dtype=np.int64)
    else:
        if accept_pointers.shape != (n,) or accept_pointers.dtype != np.int64:
            raise ValueError(
                f"accept_pointers must be int64 of shape ({n},), got "
                f"{accept_pointers.dtype} {accept_pointers.shape}"
            )
        pointers = accept_pointers[None, :]  # view: in-place mutation flows back
    edges, weights = occupancy_edges((matrix > 0)[None], matrix[None])
    match, _ = _qps_rounds(edges, weights, rng, pointers, rounds, 1)
    return Matching.from_match_array(match[0])


class QPSScheduler:
    """Stateful QPS-r scheduler for :class:`CrossbarSwitch`.

    ``needs_occupancy`` is set so the switch passes queue depths (the
    sampling weights).  The accept pointers are sized by the first
    request matrix seen; a mid-run size change raises ``ValueError``
    like iSLIP/RRM/wavefront (call :meth:`reset` when intended).

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

    name = "qps"
    needs_occupancy = True

    def __init__(
        self, rounds: Optional[int] = 1, seed: Optional[int] = None, rng=None
    ):
        if rounds is not None and rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self._rng, self._rng_token = resolve_generator(seed, rng, "qps")
        self._pointers: Optional[np.ndarray] = None
        self._probe = None

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` (None detaches)."""
        self._probe = probe

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> Matching:
        """Return this slot's matching from the occupancy matrix."""
        matrix = as_request_matrix(requests)
        n = matrix.shape[0]
        edges, weights = occupancy_edges(
            matrix[None], None if occupancy is None else np.asarray(occupancy)[None]
        )
        if self._pointers is None:
            self._pointers = np.zeros((1, n), dtype=np.int64)
        elif self._pointers.shape[1] != n:
            raise ValueError(
                f"request matrix is {n}x{n} but pointers were sized for "
                f"{self._pointers.shape[1]} ports; a mid-run size change "
                f"would silently reset QPS-r's accept pointers -- call "
                f"reset() first if the change is intended"
            )
        rounds = self.rounds if self.rounds is not None else n
        match, executed = _qps_rounds(
            edges, weights, self._rng, self._pointers, rounds, 1
        )
        if self._probe is not None:
            self._probe.slot_iterations(executed)
        return Matching.from_match_array(match[0])

    def reset(self) -> None:
        """Restore pointers and rewind the sampling stream."""
        self._pointers = None
        self._rng = replay_generator(self._rng, self._rng_token)

    def __repr__(self) -> str:
        r = "N" if self.rounds is None else self.rounds
        return f"QPSScheduler(rounds={r})"


class BatchQPSScheduler(BatchScheduler):
    """QPS-r vectorized over B independent switch replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    with per-(replica, output) accept pointers; drives the same
    :func:`_qps_rounds` kernel as :class:`QPSScheduler`, so B = 1 with
    a shared seed is bit-identical to the object scheduler (see the
    module docstring's stream-parity convention).
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
        """Compute one slot's matchings for all replicas."""
        batch = self._validate_batch(requests)
        edges, weights = occupancy_edges(batch, occupancy)
        if self._bank is not None:
            self._bank.arm(edges[0])
        rounds = self.rounds if self.rounds is not None else self.ports
        match, executed = _qps_rounds(
            edges, weights, self._rng, self._pointers, rounds, self.output_capacity
        )
        if self._probe is not None:
            self._probe.slot_iterations(executed)
        return match

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
