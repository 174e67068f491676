"""Tests for the Appendix A iteration analysis.

The measured side of Appendix A -- E[C] under the bound and the 3/4
lemma -- is a statistical claim in ``tests/claims/test_appendix_a.py``;
the check here is its quick smoke on the same batched kernel.
"""

import numpy as np
import pytest

from repro.analysis.iterations import _resolving_iterations, expected_iterations_bound
from repro.core.pim import BatchPIMScheduler


class TestExpectedIterationsBound:
    def test_formula(self):
        assert expected_iterations_bound(16) == pytest.approx(4 + 4 / 3)
        assert expected_iterations_bound(1) == pytest.approx(4 / 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            expected_iterations_bound(0)


class TestMeasureIterations:
    def test_mean_within_appendix_a_bound(self, rng):
        """E[C] <= log2(N) + 4/3, for every request density."""
        trials = 200
        for n in (4, 8, 16):
            for p in (0.25, 0.5, 1.0):
                kernel = BatchPIMScheduler(trials, n, iterations=None, seed=n)
                kernel.schedule(rng.random((trials, n, n)) < p)
                assert kernel.last_completed.all()
                counts = [
                    _resolving_iterations(tuple(row))
                    for row in kernel.last_cumulative_sizes
                ]
                mean, worst = float(np.mean(counts)), max(counts)
                assert mean <= expected_iterations_bound(n)
                assert worst >= mean
