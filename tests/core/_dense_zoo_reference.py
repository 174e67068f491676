"""Test-only oracles: the dense (B, N, N) iSLIP, LQF and QPS-r loops.

These are ``BatchISLIPScheduler.schedule``, ``BatchLQFScheduler.schedule``
and ``_qps_rounds`` as they stood before the request-graph kernels, kept
verbatim: every round masks the whole request cube and resolves its
per-line choices with ``argmin`` / ``max`` along an axis.  They pin the
production kernels' exact output -- same draws, same pointers, same
matchings -- in ``test_zoo_batch_reference.py``.  Not a second
production path: nothing under ``src/`` imports this module.

``pointer_offsets`` lives here too: the dense loops (and the dense PIM
oracle next door) were its only users once the kernels moved to edges.
"""

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.core.islip import BatchISLIPScheduler
from repro.core.lqf import BatchLQFScheduler
from repro.core.qps import BatchQPSScheduler


@lru_cache(maxsize=None)
def pointer_offsets(ports: int) -> np.ndarray:
    """The rotating-priority table ``table[p, x] = (x - p) % ports``.

    ``pointer_offsets(n)[pointers]`` gathers, for a ``(B, N)`` pointer
    array, the ``(B, N, N)`` cube ``(x - pointers[b, k]) % n`` (x along
    the last axis).
    """
    ports_range = np.arange(ports)
    table = (ports_range[None, :] - ports_range[:, None]) % ports
    table.flags.writeable = False
    return table


def dense_occupancy_counts(
    batch: np.ndarray, occupancy: Optional[np.ndarray]
) -> np.ndarray:
    """``BatchScheduler._occupancy_counts`` as the dense kernels used it."""
    if occupancy is None:
        return batch.astype(np.int64)
    occ = np.asarray(occupancy)
    if occ.shape != batch.shape:
        raise ValueError(
            f"occupancy shape {occ.shape} does not match requests "
            f"{batch.shape}"
        )
    if (occ < 0).any():
        raise ValueError("occupancy must be non-negative")
    return np.where(batch, occ.astype(np.int64), 0)


class DenseBatchISLIPScheduler(BatchISLIPScheduler):
    """``BatchISLIPScheduler`` with the dense whole-cube ``schedule``."""

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        match = np.full((b, n), -1, dtype=np.int64)
        output_slots = np.full((b, n), self.output_capacity, dtype=np.int64)
        offsets = pointer_offsets(n)
        executed = 0
        while self.iterations is None or executed < self.iterations:
            active = (
                batch & (match < 0)[:, :, None] & (output_slots > 0)[:, None, :]
            )
            if not active.any():
                break
            executed += 1
            # Grant: offsets[b, i, j] = (i - grant_ptr[b, j]) % n, with
            # the sentinel n on inactive entries so argmin always lands
            # on a genuine request when one exists.
            g_off = offsets[self._grant_pointers].transpose(0, 2, 1)
            g_off = np.where(active, g_off, n)
            grant_input = g_off.argmin(axis=1)          # (B, N) per output
            has_request = active.any(axis=1)            # (B, N)
            grants = np.zeros_like(active)
            bb, jj = np.nonzero(has_request)
            grants[bb, grant_input[bb, jj], jj] = True
            # Accept: symmetric argmin over (j - accept_ptr[b, i]) % n.
            a_off = np.where(grants, offsets[self._accept_pointers], n)
            accept_output = a_off.argmin(axis=2)        # (B, N) per input
            has_grant = grants.any(axis=2)              # (B, N)
            bb, ii = np.nonzero(has_grant)
            jj = accept_output[bb, ii]
            match[bb, ii] = jj
            # Each output grants at most once per iteration, so (bb, jj)
            # never repeats within a round: plain fancy indexing is safe.
            output_slots[bb, jj] -= 1
            if executed == 1:
                self._grant_pointers[bb, jj] = (ii + 1) % n
                self._accept_pointers[bb, ii] = (jj + 1) % n
        if self._probe is not None:
            self._probe.slot_iterations(executed)
        return match


class DenseBatchLQFScheduler(BatchLQFScheduler):
    """``BatchLQFScheduler`` with the dense whole-cube ``schedule``.

    Selects *every* entry equal to its row and column maximum, so under
    tied keys it can emit a non-maximal matching (the bug the edge
    kernel's first-edge tie rule fixes); with continuous keys the two
    agree byte for byte.
    """

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        occ = dense_occupancy_counts(batch, occupancy)
        keys = occ.astype(np.float64) + self._rng.random(batch.shape)
        match = np.full((b, n), -1, dtype=np.int64)
        col_slots = np.full((b, n), self.output_capacity, dtype=np.int64)
        # Active keys carry occupancy >= 1 so they are always >= 1;
        # -1.0 is a safe "retired" sentinel.
        masked = np.where(batch & (occ > 0), keys, -1.0)
        for _ in range(n):
            row_best = masked.max(axis=2)               # (B, N)
            col_best = masked.max(axis=1)               # (B, N)
            sel = (
                (masked >= 0.0)
                & (masked == row_best[:, :, None])
                & (masked == col_best[:, None, :])
            )
            if not sel.any():
                break
            bb, ii, jj = np.nonzero(sel)
            match[bb, ii] = jj
            col_slots[bb, jj] -= 1
            masked[bb, ii, :] = -1.0                    # inputs match once
            exhausted = col_slots[bb, jj] == 0
            masked[bb[exhausted], :, jj[exhausted]] = -1.0
        return match


def dense_qps_rounds(
    requests: np.ndarray,
    occupancy: np.ndarray,
    rng,
    accept_pointers: np.ndarray,
    rounds: int,
    output_capacity: int,
) -> Tuple[np.ndarray, int]:
    """The dense QPS-r kernel over a (B, N, N) batch.

    ``accept_pointers`` is (B, N) int64 and mutated in place.  Returns
    ``(match, proposal_rounds)``.  One ``(B, N)`` uniform block is drawn
    per round regardless of who can propose.
    """
    b, n, _ = requests.shape
    match = np.full((b, n), -1, dtype=np.int64)
    output_slots = np.full((b, n), output_capacity, dtype=np.int64)
    pointer_table = pointer_offsets(n)
    proposal_rounds = 0
    for _ in range(rounds):
        u = rng.random((b, n))
        avail = (
            requests
            & (occupancy > 0)
            & (match < 0)[:, :, None]
            & (output_slots > 0)[:, None, :]
        )
        weights = np.where(avail, occupancy, 0)
        cum = np.cumsum(weights, axis=2)
        totals = cum[:, :, -1]
        proposers = totals > 0
        if not proposers.any():
            continue
        proposal_rounds += 1
        # Inverse-CDF sample: the first column whose cumulative weight
        # exceeds u * total.  That column always has positive weight
        # (a zero-weight column shares its cumulative value with its
        # predecessor, so it can never be the first to exceed).
        targets = u * totals
        choice = (cum > targets[:, :, None]).argmax(axis=2)  # (B, N)
        proposals = np.zeros((b, n, n), dtype=bool)
        bb, ii = np.nonzero(proposers)
        proposals[bb, ii, choice[bb, ii]] = True
        # Accept: first proposer at/after the output's pointer (offset
        # argmin with the sentinel n on non-proposing entries).
        offsets = pointer_table[accept_pointers].transpose(0, 2, 1)
        offsets = np.where(proposals, offsets, n)
        winner = offsets.argmin(axis=1)                 # (B, N) per output
        has_proposal = proposals.any(axis=1)            # (B, N)
        bb, jj = np.nonzero(has_proposal)
        ii = winner[bb, jj]
        match[bb, ii] = jj
        output_slots[bb, jj] -= 1
        accept_pointers[bb, jj] = (ii + 1) % n
    return match, proposal_rounds


class DenseBatchQPSScheduler(BatchQPSScheduler):
    """``BatchQPSScheduler`` driving :func:`dense_qps_rounds`."""

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        batch = self._validate_batch(requests)
        occ = dense_occupancy_counts(batch, occupancy)
        rounds = self.rounds if self.rounds is not None else self.ports
        match, executed = dense_qps_rounds(
            batch, occ, self._rng, self._pointers, rounds, self.output_capacity
        )
        if self._probe is not None:
            self._probe.slot_iterations(executed)
        return match
