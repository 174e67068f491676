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
    ObjectScheduler,
    line_winners,
    replay_generator,
)
from repro.core.matching import Matching

__all__ = ["BatchLQFScheduler", "LQFScheduler", "lqf_match"]


def lqf_match(occupancy: np.ndarray, rng: np.random.Generator) -> Matching:
    """Greedy longest-queue-first maximal matching.

    ``occupancy[i, j]`` is the number of queued cells for (i, j); ties
    are broken uniformly at random (equal keys, which only a coarse
    ``rng`` produces, go to the first cell).  The result is maximal
    over the positive-occupancy pairs.  One slot of a fresh
    :class:`LQFScheduler` on ``rng``, which moves by one ``(1, N, N)``
    cube.
    """
    return LQFScheduler(rng=rng).schedule(np.asarray(occupancy) > 0, occupancy)


class LQFScheduler(ObjectScheduler):
    """Occupancy-aware scheduler for :class:`CrossbarSwitch`.

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchLQFScheduler` drawing its tie-breaks from this
    scheduler's stream (``seed=None``: the ``"lqf"`` default seed).
    ``needs_occupancy`` is set, so the switch passes the cell counts
    per VOQ along with the boolean request matrix; without them it
    degrades to boolean occupancy (plain maximal).
    """

    def __init__(self, seed: Optional[int] = None, rng=None):
        super().__init__("lqf", seed=seed, rng=rng)


class BatchLQFScheduler(BatchScheduler):
    """Longest-queue-first vectorized over B independent replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    as a pick rule over the shared round loop, with each edge's key as
    its payload.  Instead of a flat sort and a sequential greedy scan,
    the kernel repeatedly selects every
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
    the kernel is :class:`LQFScheduler` (and :func:`lqf_match`).

    ``needs_occupancy``: the fast paths pass queue-depth counts along
    with the request mask; entries outside the mask get zero weight
    (and are never matched), which is what keeps the CBR gap-fill and
    blocked-output maskings correct.
    """

    name = "lqf_batch"
    needs_occupancy = True
    feeds_iterations = False

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

    def cube_kernel(self) -> "BatchLQFScheduler":
        return self

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas."""
        return self._rounds(requests, occupancy, self._pick, weigh=self._keys)[0]

    def _keys(self, edges, weights):
        # The stream moves by one whole cube per slot.
        return weights + self._cube_keys(edges[0])

    def _pick(self, rounds, edges, keys):
        lines = self.replicas * self.ports
        # Locally dominant: the winner of its input line *and* of its
        # output line (at least each replica's largest key is one).
        rows = np.zeros(edges.shape[1], dtype=bool)
        rows[line_winners(edges[1], keys, lines)] = True
        cols = line_winners(edges[2], keys, lines)
        chosen = edges.take(cols.compress(rows.take(cols)), axis=1)
        return chosen, chosen

    def reset(self) -> None:
        """Rewind the tie-break RNG to its as-constructed state."""
        self._rng = replay_generator(self._rng, self._rng_token)

    def __repr__(self) -> str:
        return (
            f"BatchLQFScheduler(replicas={self.replicas}, ports={self.ports})"
        )
