"""iSLIP: the round-robin-pointer descendant of PIM.

The paper notes (Section 3.3) that PIM's behaviour "is relatively
insensitive to the technique used to approximate randomness".
McKeown's iSLIP (1995, directly inspired by this paper) replaces the
random grant/accept choices with rotating round-robin pointers that
advance *only when a grant is accepted in the first iteration*; the
pointers desynchronize under load and deliver near-100% throughput on
uniform traffic with one iteration's less work.

Included here as the natural extension target; the scheduler zoo
(``repro-an2 sched-study``) compares it with PIM, LQF, QPS-r and
wavefront arbitration on the paper's workloads.

The batched kernel is a pick rule over the shared round loop of
:mod:`repro.core.batch`, which walks the request graph's edge list,
not the ``(B, N, N)`` cube: grant and accept are both "largest
``N - offset past the pointer`` on the line", and its commit hook
moves the pointers in round 1 only.  RRM (:mod:`repro.core.rrm`) is
the same pick with RRM's pointer rule as the hook.  It draws no
randomness, so there is no stream to keep aligned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import BatchScheduler, ObjectScheduler, line_winners

__all__ = ["BatchISLIPScheduler", "ISLIPScheduler"]


class ISLIPScheduler(ObjectScheduler):
    """Stateful iSLIP scheduler (pointers persist across slots).

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchISLIPScheduler`, with ``iterations`` rounds per slot
    (``None``: to convergence).  ``ports`` sizes the pointers up front;
    otherwise the first request matrix does.  A *different*-sized
    matrix later in the run raises ``ValueError``: silently
    reallocating zeroed pointers mid-run (the old behaviour) corrupts
    the desynchronization state that iSLIP's throughput rests on, and
    does so invisibly.  Call :meth:`reset` first when a size change is
    genuinely intended.
    """

    def __init__(self, iterations: Optional[int] = 1, ports: Optional[int] = None):
        super().__init__("islip", iterations=iterations, ports=ports)


class BatchISLIPScheduler(BatchScheduler):
    """iSLIP vectorized over B independent switch replicas.

    A pick rule and a commit hook over the round loop of
    :class:`repro.core.batch.BatchScheduler`, with per-(replica, port)
    grant and accept pointers; deterministic, and at B = 1 it is
    :class:`ISLIPScheduler`.  The pick: each output with capacity left
    grants its first requester at/after its pointer -- the winner of
    its output line under the key ``N - (i - grant_ptr) % N``
    (:func:`repro.core.batch.line_winners`) -- and each granted input
    accepts the same way among its grants.  The hook: pointers advance
    one past the accepted port, only for pairs accepted in the *first*
    iteration (the desynchronization rule); grants never collide within
    an iteration, so the order of the updates does not matter.

    Parameters
    ----------
    replicas, ports:
        Batch shape B and switch size N.
    iterations:
        Request/grant/accept rounds per slot; ``None`` runs each slot
        to convergence (at most N rounds -- every round with an
        unresolved request accepts at least one pair).
    output_capacity:
        Matches each output may take per slot (k-grant generalization).
    """

    name = "islip_batch"

    def __init__(
        self,
        replicas: int,
        ports: int,
        iterations: Optional[int] = 1,
        output_capacity: int = 1,
    ):
        super().__init__(replicas, ports, output_capacity=output_capacity)
        if iterations is not None and iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self._grant_pointers = np.zeros((replicas, ports), dtype=np.int64)
        self._accept_pointers = np.zeros((replicas, ports), dtype=np.int64)

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas.

        ``occupancy`` is ignored (iSLIP is occupancy-blind); accepted
        for protocol signature uniformity.  Returns the ``(B, N)``
        match array of the :class:`~repro.core.batch.BatchScheduler`
        contract.
        """
        return self._rounds(
            requests, occupancy, self._pick, self.iterations, self._commit
        )[0]

    def _pick(self, rounds, edges, payload):
        n = self.ports
        lines = self.replicas * n
        # Grant: each output picks the requesting input with the
        # smallest offset past its pointer (largest key; no ties).
        keys = n - (edges[1] - self._grant_pointers.reshape(-1)[edges[2]]) % n
        grants = edges.take(line_winners(edges[2], keys, lines), axis=1)
        # Accept: each input symmetrically picks among its grants.
        keys = n - (grants[0] - self._accept_pointers.reshape(-1)[grants[1]]) % n
        return grants, grants.take(line_winners(grants[1], keys, lines), axis=1)

    def _commit(self, rounds, edges, grants, accepts, match) -> None:
        if rounds == 1:
            n = self.ports
            self._grant_pointers.reshape(-1)[accepts[2]] = (accepts[1] + 1) % n
            self._accept_pointers.reshape(-1)[accepts[1]] = (accepts[0] + 1) % n

    def reset(self) -> None:
        """Return all pointers to zero (no RNG: iSLIP is deterministic)."""
        self._grant_pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)
        self._accept_pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)

    def __repr__(self) -> str:
        its = "inf" if self.iterations is None else self.iterations
        return (
            f"{type(self).__name__}(replicas={self.replicas}, "
            f"ports={self.ports}, iterations={its})"
        )
