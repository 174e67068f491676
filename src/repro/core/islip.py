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

from repro.core.batch import BatchScheduler, line_winners, request_edges
from repro.core.matching import Matching, as_request_matrix

__all__ = [
    "BatchISLIPScheduler",
    "ISLIPScheduler",
    "islip_match",
    "validate_pointer_array",
]


def validate_pointer_array(pointers: np.ndarray, n: int, name: str) -> np.ndarray:
    """Validate a round-robin pointer array that will be mutated in place.

    The pointer-carrying matchers (iSLIP, RRM) advance caller-provided
    arrays in place so a stateful scheduler carries desynchronization
    state across slots.  Writing ``(i + 1) % n`` into an array of the
    wrong dtype silently truncates or rounds (float arrays accept the
    store but corrupt later modular arithmetic on mixed types), so
    anything that is not an int64 array of shape ``(n,)`` with values
    in ``[0, n)`` is rejected outright -- a silent copy-convert would
    break the in-place mutation contract instead.

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


def islip_match(
    requests: np.ndarray,
    grant_pointers: np.ndarray,
    accept_pointers: np.ndarray,
    iterations: int = 1,
) -> Matching:
    """One slot of iSLIP: the B = 1 call of :class:`BatchISLIPScheduler`.

    Parameters
    ----------
    requests:
        N x N boolean request matrix.
    grant_pointers, accept_pointers:
        Per-output and per-input round-robin pointers; **mutated in
        place** according to the iSLIP update rule (advance one past the
        chosen port, only on an accepted grant, only in iteration 1).
        Must be int64 arrays of shape ``(N,)`` with values in
        ``[0, N)``; anything else is rejected with ``ValueError``
        rather than silently mutated (see
        :func:`validate_pointer_array`).
    iterations:
        Request/grant/accept rounds per slot.
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    validate_pointer_array(grant_pointers, n, "grant_pointers")
    validate_pointer_array(accept_pointers, n, "accept_pointers")
    if n == 0:  # no ports (the kernel needs N >= 1)
        return Matching.empty()
    kernel = BatchISLIPScheduler(1, n, iterations)
    # Views: the kernel advances the caller's pointers in place.
    kernel._grant_pointers = grant_pointers[None]
    kernel._accept_pointers = accept_pointers[None]
    return Matching.from_match_array(kernel.schedule(matrix[None])[0])


class ISLIPScheduler:
    """Stateful iSLIP scheduler (pointers persist across slots).

    The pointer arrays are sized by the first request matrix seen.  A
    *different*-sized matrix later in the run raises ``ValueError``:
    silently reallocating zeroed pointers mid-run (the old behaviour)
    corrupts the desynchronization state that iSLIP's throughput rests
    on, and does so invisibly.  Call :meth:`reset` first when a size
    change is genuinely intended.
    """

    name = "islip"

    def __init__(self, iterations: int = 1, ports: Optional[int] = None):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self._grant_pointers: Optional[np.ndarray] = None
        self._accept_pointers: Optional[np.ndarray] = None
        if ports is not None:
            self._allocate(ports)

    def _allocate(self, n: int) -> None:
        self._grant_pointers = np.zeros(n, dtype=np.int64)
        self._accept_pointers = np.zeros(n, dtype=np.int64)

    def schedule(self, requests: np.ndarray) -> Matching:
        """Return this slot's matching and advance the pointers."""
        matrix = as_request_matrix(requests)
        n = matrix.shape[0]
        if self._grant_pointers is None:
            self._allocate(n)
        elif self._grant_pointers.shape[0] != n:
            raise ValueError(
                f"request matrix is {n}x{n} but pointers were sized for "
                f"{self._grant_pointers.shape[0]} ports; a mid-run size "
                f"change would silently reset iSLIP's pointer state -- "
                f"call reset() first if the change is intended"
            )
        return islip_match(matrix, self._grant_pointers, self._accept_pointers, self.iterations)

    def reset(self) -> None:
        """Return all pointers to zero."""
        self._grant_pointers = None
        self._accept_pointers = None

    def __repr__(self) -> str:
        return f"ISLIPScheduler(iterations={self.iterations})"


class BatchISLIPScheduler(BatchScheduler):
    """iSLIP vectorized over B independent switch replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol
    with per-(replica, port) grant and accept pointer arrays.  The
    kernel is fully deterministic; at B = 1 it is :func:`islip_match`,
    which :class:`ISLIPScheduler` calls each slot:

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
        Matches each output may take per slot (k-grant generalization;
        :func:`islip_match` is k = 1).
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
