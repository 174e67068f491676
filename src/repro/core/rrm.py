"""Round-Robin Matching (RRM) -- the deterministic strawman.

The obvious way to remove PIM's randomness is to replace both random
choices with round-robin pointers that advance every slot: each output
grants the first requester at/after its pointer, each input accepts
the first grant at/after its pointer, and *all pointers advance one
past their choice unconditionally*.  This is RRM, the known-flawed
precursor to iSLIP: under uniform saturated traffic the grant pointers
synchronize -- every output points at the same input, exactly the
pathology Appendix A's randomness argument guards against -- and the
throughput collapses to roughly PIM-1's 1 - 1/e rather than 100%.

iSLIP (:mod:`repro.core.islip`) differs only in updating pointers when
a grant is *accepted, in the first iteration*; the arbiter-policy
ablation puts the three side by side, making the paper's "randomness
de-synchronizes decisions made by a large number of agents" (Section
1) quantitative.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.islip import validate_pointer_array
from repro.core.matching import Matching, as_request_matrix

__all__ = ["RRMScheduler", "rrm_match"]


def rrm_match(
    requests: np.ndarray,
    grant_pointers: np.ndarray,
    accept_pointers: np.ndarray,
    iterations: int = 1,
) -> Matching:
    """One slot of RRM; pointers advance unconditionally each slot.

    Both pointer arrays (per output, per input) are mutated in place
    and validated by :func:`repro.core.islip.validate_pointer_array`
    (int64, shape ``(N,)``, values in ``[0, N)``).
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    validate_pointer_array(grant_pointers, n, "grant_pointers")
    validate_pointer_array(accept_pointers, n, "accept_pointers")
    input_matched = np.zeros(n, dtype=bool)
    output_matched = np.zeros(n, dtype=bool)
    pairs: List[Tuple[int, int]] = []
    grant_choice: List[Optional[int]] = [None] * n

    for iteration in range(iterations):
        active = matrix & ~input_matched[:, None] & ~output_matched[None, :]
        if not active.any():
            break
        grants_to: List[Optional[int]] = [None] * n
        for j in range(n):
            if output_matched[j]:
                continue
            requesters = np.nonzero(active[:, j])[0]
            if requesters.size == 0:
                continue
            offsets = (requesters - grant_pointers[j]) % n
            grants_to[j] = int(requesters[offsets.argmin()])
            if iteration == 0:
                grant_choice[j] = grants_to[j]
        for i in range(n):
            if input_matched[i]:
                continue
            granting = np.array([j for j in range(n) if grants_to[j] == i], dtype=np.int64)
            if granting.size == 0:
                continue
            offsets = (granting - accept_pointers[i]) % n
            j = int(granting[offsets.argmin()])
            pairs.append((i, j))
            input_matched[i] = True
            output_matched[j] = True

    # The RRM rule: every pointer advances past its (first-iteration)
    # choice whether or not the grant was accepted.  This is what
    # keeps the grant pointers marching in lockstep under symmetric
    # load -- the synchronization bug iSLIP fixed.
    for j in range(n):
        if grant_choice[j] is not None:
            grant_pointers[j] = (grant_choice[j] + 1) % n
    for i, j in pairs:
        accept_pointers[i] = (j + 1) % n
    return Matching.from_pairs(pairs)


class RRMScheduler:
    """Stateful RRM scheduler (the synchronization-prone strawman)."""

    name = "rrm"

    def __init__(self, iterations: int = 1):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self._grant_pointers: Optional[np.ndarray] = None
        self._accept_pointers: Optional[np.ndarray] = None

    def schedule(self, requests: np.ndarray) -> Matching:
        """Return this slot's matching and advance all pointers."""
        matrix = as_request_matrix(requests)
        n = matrix.shape[0]
        if self._grant_pointers is None:
            self._grant_pointers = np.zeros(n, dtype=np.int64)
            self._accept_pointers = np.zeros(n, dtype=np.int64)
        elif self._grant_pointers.shape[0] != n:
            raise ValueError(
                f"request matrix is {n}x{n} but pointers were sized for "
                f"{self._grant_pointers.shape[0]} ports; call reset() "
                f"before changing the switch size mid-run"
            )
        return rrm_match(matrix, self._grant_pointers, self._accept_pointers, self.iterations)

    def reset(self) -> None:
        """Return all pointers to zero."""
        self._grant_pointers = None
        self._accept_pointers = None

    def __repr__(self) -> str:
        return f"RRMScheduler(iterations={self.iterations})"
