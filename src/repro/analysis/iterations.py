"""Appendix A: convergence of parallel iterative matching.

The appendix proves that each PIM iteration resolves, in expectation,
at least 3/4 of the remaining *unresolved requests* (a request is
unresolved while both its input and output are unmatched), from which

    E[C] <= log2(N) + 4/3

iterations to reach a maximal match, independent of the request
pattern.  Both facts are tier-1 statistical claims on the batched PIM
kernel (``tests/claims/test_appendix_a.py``); this module holds the
bound and the convention that reads C off a slot's matching sizes.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["expected_iterations_bound"]


def expected_iterations_bound(ports: int) -> float:
    """The Appendix A bound: log2(N) + 4/3."""
    if ports < 1:
        raise ValueError(f"ports must be positive, got {ports}")
    return math.log2(ports) + 4.0 / 3.0


def _resolving_iterations(cumulative_sizes: Tuple[int, ...]) -> int:
    """Number of iterations up to and including the last that added a pair
    -- Appendix A's C, "the step on which the last request is resolved"."""
    last_useful = 0
    previous = 0
    for index, size in enumerate(cumulative_sizes, start=1):
        if size > previous:
            last_useful = index
        previous = size
    return last_useful
