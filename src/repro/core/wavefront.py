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

from repro.core.batch import BatchScheduler
from repro.core.matching import Matching, as_request_matrix

__all__ = ["BatchWavefrontScheduler", "WavefrontScheduler", "wavefront_match"]


def wavefront_match(requests: np.ndarray, start_diagonal: int = 0) -> Matching:
    """Maximal matching by diagonal sweep.

    Diagonal d holds pairs (i, j) with (i + j) mod N == d; diagonals are
    processed in order starting from ``start_diagonal``.  The result is
    always maximal: every request pair lies on some diagonal, and when
    its diagonal is processed it is matched unless its row or column
    was already taken.

    Numeric request matrices must be non-negative (matching
    :func:`repro.core.lqf.lqf_match`'s validation): a negative entry
    would bool-cast to a *true* request, silently inventing traffic.
    The B = 1 call of :class:`BatchWavefrontScheduler`.
    """
    raw = np.asarray(requests)
    if raw.dtype != bool and np.issubdtype(raw.dtype, np.number) and (raw < 0).any():
        raise ValueError("requests must be non-negative")
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    if n == 0:  # no ports (the kernel needs N >= 1)
        return Matching.empty()
    kernel = BatchWavefrontScheduler(1, n)
    kernel._start = start_diagonal
    return Matching.from_match_array(kernel.schedule(matrix[None])[0])


class WavefrontScheduler:
    """Stateful wavefront scheduler; the start diagonal rotates per slot.

    The rotating diagonal is sized by the first request matrix seen.  A
    *different*-sized matrix later in the run raises ``ValueError``
    (the same guard iSLIP and RRM carry): the old behaviour silently
    wrapped ``_start`` modulo the new N, which skews the fairness
    rotation invisibly.  Call :meth:`reset` first when a size change is
    genuinely intended.
    """

    name = "wavefront"

    def __init__(self) -> None:
        self._start = 0
        self._ports: Optional[int] = None

    def schedule(self, requests: np.ndarray) -> Matching:
        """Return this slot's matching and rotate the priority diagonal."""
        matrix = as_request_matrix(requests)
        n = matrix.shape[0]
        if self._ports is None:
            self._ports = n
        elif self._ports != n:
            raise ValueError(
                f"request matrix is {n}x{n} but the rotating diagonal was "
                f"sized for {self._ports} ports; a mid-run size change "
                f"would silently skew the fairness rotation -- call "
                f"reset() first if the change is intended"
            )
        matching = wavefront_match(matrix, self._start)
        self._start = (self._start + 1) % max(n, 1)
        return matching

    def reset(self) -> None:
        """Reset the rotating diagonal (and forget the port count)."""
        self._start = 0
        self._ports = None

    def __repr__(self) -> str:
        return "WavefrontScheduler()"


class BatchWavefrontScheduler(BatchScheduler):
    """Wavefront arbitration vectorized over B independent replicas.

    Implements the :class:`repro.core.batch.BatchScheduler` protocol.
    All entries of one anti-diagonal touch distinct rows and columns,
    so each of the N diagonal steps is a single vectorized
    take-if-row-and-column-free update across the whole batch; the
    rotating start diagonal is slot-driven (one rotation per
    ``schedule`` call), hence a single scalar shared by every replica
    -- the state :class:`WavefrontScheduler` keeps for the B = 1 call,
    :func:`wavefront_match`.
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
