"""Wavefront arbitration -- a deterministic hardware-matching baseline.

A wavefront arbiter computes a maximal matching by sweeping the request
matrix's anti-diagonals: all cells on one diagonal touch distinct rows
and columns, so they can be decided simultaneously in hardware; a
request is matched iff its row and column are still free when its
diagonal is processed.  Rotating the starting diagonal each slot keeps
the scheme fair in the long run.

This is the second arbiter-policy ablation alongside
:mod:`repro.core.islip`: unlike PIM it uses no randomness and a single
pass, at the cost of O(N) sequential diagonal steps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.batch import BatchScheduler, ObjectScheduler

__all__ = ["BatchWavefrontScheduler", "WavefrontScheduler"]


class WavefrontScheduler(ObjectScheduler):
    """Stateful wavefront scheduler; the start diagonal rotates per slot.

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchWavefrontScheduler`.  The rotating diagonal is sized
    by the first request matrix seen.  A *different*-sized matrix later
    in the run raises ``ValueError`` (the same guard iSLIP and RRM
    carry): the old behaviour silently wrapped the diagonal modulo the
    new N, which skews the fairness rotation invisibly.  Call
    :meth:`reset` first when a size change is genuinely intended.
    """

    def __init__(self) -> None:
        super().__init__("wavefront")


class BatchWavefrontScheduler(BatchScheduler):
    """Wavefront arbitration vectorized over B independent replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol.
    All entries of one anti-diagonal touch distinct rows and columns,
    so each of the N diagonal steps is a single vectorized
    take-if-row-and-column-free update across the whole batch; the
    rotating start diagonal is slot-driven (one rotation per
    ``schedule`` call), hence a single scalar shared by every replica.
    At B = 1 it is :class:`WavefrontScheduler`.
    """

    name = "wavefront_batch"

    def __init__(self, replicas: int, ports: int, output_capacity: int = 1):
        super().__init__(replicas, ports, output_capacity=output_capacity)
        self._start = 0

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings and rotate the start diagonal.

        ``occupancy`` is ignored (wavefront is occupancy-blind);
        accepted for protocol signature uniformity.
        """
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        match = np.full((b, n), -1, dtype=np.int64)
        row_free = np.ones((b, n), dtype=bool)
        col_slots = np.full((b, n), self.output_capacity, dtype=np.int64)
        arange_n = np.arange(n)
        for step in range(n):
            d = (self._start + step) % n
            js = (d - arange_n) % n  # column of row i on diagonal d
            take = batch[:, arange_n, js] & row_free & (col_slots[:, js] > 0)
            match = np.where(take, js[None, :], match)
            row_free &= ~take
            # js is a permutation (distinct columns per diagonal), so
            # the fancy-indexed read-modify-write has no duplicates.
            col_slots[:, js] -= take
        self._start = (self._start + 1) % n
        return match

    def reset(self) -> None:
        """Reset the rotating diagonal."""
        self._start = 0

    def __repr__(self) -> str:
        return (
            f"BatchWavefrontScheduler(replicas={self.replicas}, "
            f"ports={self.ports})"
        )
