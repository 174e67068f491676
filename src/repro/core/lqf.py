"""Longest-queue-first matching -- an occupancy-aware baseline.

The paper's schedulers see only *which* VOQs are occupied; a natural
"more sophisticated algorithm" (Section 3.4's phrase) also uses *how*
occupied they are.  Longest-queue-first greedily serves the fullest
VOQ among those whose input and output are still free -- McKeown's
iLQF in its centralized greedy form.  It is a maximal matching, tends
to equalize queue lengths (good for delay tails), but, like maximum
matching, can starve a short queue that always faces a longer rival;
the test suite demonstrates both properties.

Included as an extension baseline: it quantifies how much the AN2
forgoes by keeping the scheduler occupancy-blind (almost nothing on
the paper's workloads), which supports the paper's choice of the
simpler request wire per VOQ.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    line_winners,
    occupancy_edges,
    replay_generator,
    resolve_generator,
)
from repro.core.matching import Matching, as_request_matrix

__all__ = ["BatchLQFScheduler", "LQFScheduler", "lqf_match"]


def lqf_match(occupancy: np.ndarray, rng: np.random.Generator) -> Matching:
    """Greedy longest-queue-first maximal matching.

    ``occupancy[i, j]`` is the number of queued cells for (i, j); ties
    are broken uniformly at random (equal keys, which only a coarse
    ``rng`` produces, go to the first cell).  The result is maximal
    over the positive-occupancy pairs.  The B = 1 call of
    :class:`BatchLQFScheduler`: ``rng`` moves by one ``(1, N, N)`` cube.
    """
    matrix = np.asarray(occupancy)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"occupancy must be square, got shape {matrix.shape}")
    if matrix.shape[0] == 0:  # no ports (the kernel needs N >= 1)
        return Matching.empty()
    return _lqf_slot(BatchLQFScheduler(1, matrix.shape[0], rng=rng), matrix)


def _lqf_slot(kernel: BatchLQFScheduler, occupancy: np.ndarray) -> Matching:
    """One slot of a one-replica ``kernel`` on an N x N ``occupancy``
    (the kernel rejects negative counts)."""
    match = kernel.schedule(occupancy[None] > 0, occupancy[None])
    return Matching.from_match_array(match[0])


class LQFScheduler:
    """Occupancy-aware scheduler for :class:`CrossbarSwitch`.

    Each slot is one call of a one-replica :class:`BatchLQFScheduler`
    drawing from this scheduler's stream.  Sets ``needs_occupancy`` so the switch passes the cell counts per
    VOQ instead of just the boolean request matrix.
    """

    name = "lqf"
    needs_occupancy = True

    def __init__(self, seed: Optional[int] = None, rng=None):
        # Deterministic seed=None fallback (repro.sim.rng default-seed
        # policy); the token lets reset() rewind the stream.
        self._rng, self._rng_token = resolve_generator(seed, rng, "lqf")
        # The one-replica kernel on ``_rng``, built at the first slot
        # (that fixes N) and again after reset() or a change of N.
        self._kernel: Optional[BatchLQFScheduler] = None

    def schedule(self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None) -> Matching:
        """Return this slot's matching from the occupancy matrix."""
        if occupancy is None:
            # Degrade gracefully to boolean occupancy (plain maximal).
            occupancy = as_request_matrix(requests).astype(np.int64)
        matrix = np.asarray(occupancy)
        if self._kernel is None or self._kernel.ports != len(matrix):
            self._kernel = BatchLQFScheduler(1, len(matrix), rng=self._rng)
        return _lqf_slot(self._kernel, matrix)

    def reset(self) -> None:
        """Rewind the tie-break RNG to its as-constructed state.

        Regression note: this used to be a no-op on the grounds of "no
        cross-slot state", but the tie-break stream *is* cross-slot
        state -- it kept advancing across ``reset()``, so a rerun of
        the same scheduler (``CrossbarSwitch.run`` resets at the top)
        diverged from the first run, violating the reset/rerun
        contract of PRs 4-5.
        """
        self._rng = replay_generator(self._rng, self._rng_token)
        self._kernel = None

    def __repr__(self) -> str:
        return "LQFScheduler()"


class BatchLQFScheduler(BatchScheduler):
    """Longest-queue-first vectorized over B independent replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    over the request graph's edge list.  Instead of a flat sort and a
    sequential greedy scan, the kernel repeatedly selects every
    **locally dominant** edge -- the winner of both its input line and
    its output line among the unresolved edges
    (:func:`repro.core.batch.line_winners`, key ``occupancy + jitter``)
    -- and drops the edges of matched inputs and exhausted outputs.
    This computes exactly the matching of sequential greedy in (key
    descending, cell ascending) order, because the first remaining edge
    of that order is always locally dominant and greedy decisions
    commute when they share no row or column.  Ties (possible with a coarse injected ``rng``) therefore
    go to the first cell and the result stays maximal.  At most N
    rounds run.

    **Stream contract**: the tie-break uniforms are the keys at the
    edges of one *full* ``(B, N, N)`` cube per slot
    (:meth:`~repro.core.batch.BatchScheduler._cube_keys`).  At B = 1
    the kernel is :func:`lqf_match`, which :class:`LQFScheduler` calls
    each slot.

    ``needs_occupancy``: the fast paths pass queue-depth counts along
    with the request mask; entries outside the mask get zero weight
    (and are never matched), which is what keeps the CBR gap-fill and
    blocked-output maskings correct.
    """

    name = "lqf_batch"
    needs_occupancy = True

    def __init__(
        self,
        replicas: int,
        ports: int,
        seed: Optional[int] = None,
        rng=None,
        output_capacity: int = 1,
    ):
        super().__init__(replicas, ports, output_capacity=output_capacity)
        self._resolve_streams(seed, rng, "lqf")

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas."""
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        edges, weights = occupancy_edges(batch, occupancy)
        # The stream moves by one whole cube per slot.
        keys = weights + self._cube_keys(edges[0])
        match = np.full(b * n, -1, dtype=np.int64)
        slots = np.full(b * n, self.output_capacity, dtype=np.int64)
        while edges.shape[1]:
            # Locally dominant: the winner of its input line *and* of its
            # output line (at least each replica's largest key is one).
            rows = np.zeros(edges.shape[1], dtype=bool)
            rows[line_winners(edges[1], keys, b * n)] = True
            cols = line_winners(edges[2], keys, b * n)
            chosen = edges.take(cols.compress(rows.take(cols)), axis=1)
            match[chosen[1]] = chosen[0] % n
            slots[chosen[2]] -= 1
            unresolved = np.logical_and(match[edges[1]] < 0, slots[edges[2]]).nonzero()[0]
            edges = edges.take(unresolved, axis=1)
            keys = keys.take(unresolved)
        return match.reshape(b, n)

    def reset(self) -> None:
        """Rewind the tie-break RNG to its as-constructed state."""
        self._rng = replay_generator(self._rng, self._rng_token)

    def __repr__(self) -> str:
        return (
            f"BatchLQFScheduler(replicas={self.replicas}, ports={self.ports})"
        )
