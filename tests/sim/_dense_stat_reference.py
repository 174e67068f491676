"""Test-only oracle: the dense (B, N, N) statistical-matching round.

This is ``BatchStatisticalMatcher._one_round`` as it stood before the
per-grant lottery, kept verbatim: a Python loop of per-output
``searchsorted`` grant draws, the virtual grants scattered into a
zeroed ``(B, N, N)`` cube, that cube reduced for the per-input totals
and an ``(A, N)`` slab of it gathered and cumsummed for the accept
pick.  It pins the production round's exact output -- same four
uniform passes, same accepted pairs in the same order, same pooled
counts, same generator states -- in ``test_stat_lottery_reference.py``.
Not a second production path: nothing under ``src/`` imports it.
"""

from typing import Tuple

import numpy as np

from repro.core.statistical import BatchStatisticalMatcher

_EMPTY = np.zeros(0, dtype=np.int64)


class DenseBatchStatisticalMatcher(BatchStatisticalMatcher):
    """``BatchStatisticalMatcher`` with the dense whole-cube round."""

    def _one_round(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
        """One batched grant / virtual-grant / accept round.

        Returns ``(bb, ii, jj, granted, virtual_total, decoy_total)``:
        replica/input/output index arrays of the accepted pairs plus
        the pooled counts for the ``stat_round`` trace event.
        """
        n = self.ports
        b = self.replicas
        t = self.tables
        rng = self._rng
        # Pass 1: every output grants one input (index N = imaginary).
        u_grant = rng.random((b, n))
        granted = np.empty((b, n), dtype=np.int64)
        for j in range(n):
            granted[:, j] = np.searchsorted(t.grant_cdf[j], u_grant[:, j], side="right")
        # Pass 2: granted inputs re-draw each grant as m virtual
        # grants; flattening (replica, output) row-major matches the
        # object matcher's ascending-output loop at B = 1.
        bb, jj = np.nonzero(granted < n)
        ii = granted[bb, jj]
        u_virtual = rng.random(bb.size)
        virtual = np.zeros((b, n, n), dtype=np.int64)
        if bb.size:
            rows = t.virtual_row[ii, jj]
            if self.check and (rows < 0).any():
                raise AssertionError("granted a zero-allocation pair")
            m = (t.virtual_cdf_rows[rows] <= u_virtual[:, None]).sum(axis=1)
            # Each output grants at most once, so the (b, i, j) triples
            # are unique and plain assignment suffices.
            virtual[bb, ii, jj] = m
        # Pass 3: under-reserved inputs draw Binomial(slack, 1/X)
        # decoys from their imaginary output (ascending input at B = 1).
        decoys = np.zeros((b, n), dtype=np.int64)
        slack_idx = np.nonzero(t.slack > 0)[0]
        if slack_idx.size:
            u_decoy = rng.random((b, slack_idx.size))
            rows = t.decoy_cdf_rows[t.decoy_row[slack_idx]]
            decoys[:, slack_idx] = (rows[None, :, :] <= u_decoy[:, :, None]).sum(axis=2)
        # Pass 4: each active input accepts one virtual grant
        # uniformly; a pick beyond the real grants is a decoy win.
        real = virtual.sum(axis=2)
        totals = real + decoys
        abb, aii = np.nonzero(totals > 0)
        u_pick = rng.random(abb.size)
        if abb.size:
            picks = (u_pick * totals[abb, aii]).astype(np.int64)
            cum = np.cumsum(virtual[abb, aii, :], axis=1)
            j_sel = (cum <= picks[:, None]).sum(axis=1)
            won = j_sel < n
            pairs = (abb[won], aii[won], j_sel[won])
        else:
            pairs = (_EMPTY, _EMPTY, _EMPTY)
        return (
            pairs[0],
            pairs[1],
            pairs[2],
            int(bb.size),
            int(virtual.sum()),
            int(decoys.sum()),
        )
