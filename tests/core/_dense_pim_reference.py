"""Test-only oracle: the dense (B, N, N) grant/accept loop.

This is ``BatchPIMScheduler.schedule`` as it stood before the edge-list
kernel, kept verbatim: every iteration masks the whole request cube,
lifts the active keys with ``keys += mask`` and resolves grant and
accept with ``argmax`` along an axis.  It is what pins the production
kernel's exact output -- same draws, same tie rule (first index wins on
the ``+ 1.0``-rounded key), same pointers and diagnostics -- in
``test_pim_batch_reference.py``.  Not a second production path: nothing
under ``src/`` imports it.
"""

from typing import List, Optional

import numpy as np

from repro.core.pim import BatchPIMScheduler

from ._dense_zoo_reference import pointer_offsets


class DenseBatchPIMScheduler(BatchPIMScheduler):
    """``BatchPIMScheduler`` with the dense whole-cube ``schedule``."""

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        match = np.full((b, n), -1, dtype=np.int64)
        output_slots = np.full((b, n), self.output_capacity, dtype=np.int64)
        cumulative: List[np.ndarray] = []
        executed = 0

        while self.iterations is None or executed < self.iterations:
            active = (
                batch & (match < 0)[:, :, None] & (output_slots > 0)[:, None, :]
            )
            if not active.any():
                break
            executed += 1
            # Grant: each output with capacity left picks one
            # requesting input uniformly at random.  Adding the boolean
            # mask lifts active keys into [1, 2) while inactive ones
            # stay in [0, 1), so argmax always lands on an unresolved
            # request -- equivalent to masking with -1 but one cheap
            # elementwise pass instead of an np.where allocation.
            keys = self._rng.random(active.shape)
            keys += active
            grant_input = keys.argmax(axis=1)          # (B, N) per output
            has_request = active.any(axis=1)           # (B, N)
            grants = np.zeros_like(active)
            bb, jj = np.nonzero(has_request)
            grants[bb, grant_input[bb, jj], jj] = True
            # Accept: each input picks one granting output.
            if self.accept == "random":
                keys2 = self._rng.random(grants.shape)
                keys2 += grants
                accept_output = keys2.argmax(axis=2)   # (B, N) per input
            else:
                # Round-robin: first granted output at/after the pointer.
                offsets = pointer_offsets(n)[self._pointers]
                offsets = np.where(grants, offsets, n)  # n = "no grant" sentinel
                accept_output = offsets.argmin(axis=2)
            has_grant = grants.any(axis=2)             # (B, N)
            bb, ii = np.nonzero(has_grant)
            jj = accept_output[bb, ii]
            match[bb, ii] = jj
            # Each output grants at most one input per iteration, so
            # (bb, jj) never repeats within a round: plain fancy
            # indexing is safe (and much faster than ufunc.at).
            output_slots[bb, jj] -= 1
            if self.accept == "round_robin":
                self._pointers[bb, ii] = (jj + 1) % n
            if self.track_sizes:
                cumulative.append((match >= 0).sum(axis=1))
            if self._probe is not None and self._probe.sampling:
                self._probe.pim_iteration(
                    executed,
                    requests=int(active.sum()),
                    grants=int(grants.sum()),
                    accepts=int(bb.size),
                    matched=int((match >= 0).sum()),
                    replicas=b,
                )

        if self._probe is not None:
            self._probe.slot_iterations(executed)
        if self.track_sizes:
            if cumulative:
                self.last_cumulative_sizes = np.stack(cumulative, axis=1)
            else:
                self.last_cumulative_sizes = np.zeros((b, 1), dtype=np.int64)
            active = batch & (match < 0)[:, :, None] & (output_slots > 0)[:, None, :]
            self.last_completed = ~active.any(axis=(1, 2))
        return match
