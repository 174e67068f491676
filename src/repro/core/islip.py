"""iSLIP: the round-robin-pointer descendant of PIM.

The paper notes (Section 3.3) that PIM's behaviour "is relatively
insensitive to the technique used to approximate randomness".
McKeown's iSLIP (1995, directly inspired by this paper) replaces the
random grant/accept choices with rotating round-robin pointers that
advance *only when a grant is accepted in the first iteration*; the
pointers desynchronize under load and deliver near-100% throughput on
uniform traffic with one iteration's less work.

Included here as the natural extension/ablation target: the
``benchmarks/test_ablation_arbiter_policies.py`` bench compares PIM,
iSLIP, and wavefront arbitration on the paper's workloads.

The batched kernel walks the request graph's edge list, not the
``(B, N, N)`` cube (see :mod:`repro.core.batch`): grant and accept are
both "largest ``N - offset past the pointer`` on the line".  It draws
no randomness, so there is no stream to keep aligned.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    ObjectScheduler,
    line_winners,
    request_edges,
)

__all__ = [
    "BatchISLIPScheduler",
    "ISLIPScheduler",
    "validate_pointer_array",
]


def validate_pointer_array(pointers: np.ndarray, n: int, name: str) -> np.ndarray:
    """Validate a round-robin pointer array that will be mutated in place.

    The pointer-carrying matcher :func:`repro.core.rrm.rrm_match`
    advances caller-provided arrays in place so a stateful scheduler
    carries desynchronization state across slots.  Writing
    ``(i + 1) % n`` into an array of the wrong dtype silently truncates
    or rounds (float arrays accept the store but corrupt later modular
    arithmetic on mixed types), so anything that is not an int64 array
    of shape ``(n,)`` with values in ``[0, n)`` is rejected outright --
    a silent copy-convert would break the in-place mutation contract
    instead.

    Returns the validated array unchanged.
    """
    array = np.asarray(pointers)
    if array is not pointers:
        raise ValueError(
            f"{name} must be a numpy array (it is mutated in place), "
            f"got {type(pointers).__name__}"
        )
    if array.dtype != np.int64:
        raise ValueError(
            f"{name} must have dtype int64 (in-place pointer updates), "
            f"got {array.dtype}"
        )
    if array.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {array.shape}")
    if n and ((array < 0) | (array >= n)).any():
        raise ValueError(f"{name} values must be in [0, {n}), got {array.tolist()}")
    return array


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

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    with per-(replica, port) grant and accept pointer arrays.  The
    kernel is fully deterministic; at B = 1 it is
    :class:`ISLIPScheduler`:

    - **grant**: each output with capacity left picks the requesting
      input with the smallest offset ``(i - grant_ptr) % N`` -- the
      winner of its output line under the key ``N - offset`` over the
      unresolved edges (:func:`repro.core.batch.line_winners`), the
      first requester at/after the pointer;
    - **accept**: each granted input symmetrically picks the smallest
      ``(j - accept_ptr) % N`` among its grants (the same helper over
      input lines);
    - **pointer rule**: pointers advance one past the accepted port,
      only for pairs accepted in the *first* iteration (the
      desynchronization rule); grants never collide within an
      iteration, so the order of the updates does not matter.

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
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        match = np.full(b * n, -1, dtype=np.int64)
        slots = np.full(b * n, self.output_capacity, dtype=np.int64)
        grant_ptr = self._grant_pointers.reshape(-1)
        accept_ptr = self._accept_pointers.reshape(-1)
        edges = request_edges(batch)  # the unresolved requests
        executed = 0
        while edges.shape[1] and executed != self.iterations:  # None: no budget
            executed += 1
            # Grant: each output picks the requesting input with the
            # smallest offset past its pointer (largest key; no ties).
            keys = n - (edges[1] - grant_ptr[edges[2]]) % n
            grants = edges.take(line_winners(edges[2], keys, b * n), axis=1)
            # Accept: each input symmetrically picks among its grants.
            keys = n - (grants[0] - accept_ptr[grants[1]]) % n
            accepts = grants.take(line_winners(grants[1], keys, b * n), axis=1)
            # One accept per input, one grant per output: no index repeats.
            match[accepts[1]] = accepts[0] % n
            slots[accepts[2]] -= 1
            if executed == 1:
                grant_ptr[accepts[2]] = (accepts[1] + 1) % n
                accept_ptr[accepts[1]] = (accepts[0] + 1) % n
            unresolved = np.logical_and(match[edges[1]] < 0, slots[edges[2]])
            edges = edges.compress(unresolved, axis=1)
        if self._probe is not None:
            self._probe.slot_iterations(executed)
        return match.reshape(b, n)

    def reset(self) -> None:
        """Return all pointers to zero (no RNG: iSLIP is deterministic)."""
        self._grant_pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)
        self._accept_pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)

    def __repr__(self) -> str:
        its = "inf" if self.iterations is None else self.iterations
        return (
            f"BatchISLIPScheduler(replicas={self.replicas}, "
            f"ports={self.ports}, iterations={its})"
        )
