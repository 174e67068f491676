"""Bipartite matchings over switch request matrices.

A *request matrix* R is an N x N boolean matrix with ``R[i, j]`` true
when input i has at least one queued cell for output j.  A *matching*
pairs inputs with outputs such that no input or output appears twice
and every pair is backed by a request.

Section 3.4 of the paper distinguishes:

- **maximal** matchings -- no pair can be added without removing one
  (what PIM computes when run to completion), and
- **maximum** matchings -- no other matching has more pairs.

A maximal matching always has at least half as many pairs as a maximum
one; :func:`maximal_ge_half_maximum` states the bound checked by the
property tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Matching",
    "as_request_matrix",
    "is_matching",
    "is_maximal",
    "greedy_maximal_match",
    "maximal_ge_half_maximum",
]


@dataclass(frozen=True)
class Matching:
    """An input-to-output pairing for one time slot.

    Stored as a tuple ``pairs`` of (input, output) index pairs.  The
    constructor validates that no input or output is repeated; whether
    every pair is *backed by a request* depends on a request matrix and
    is checked by :meth:`respects`.
    """

    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        inputs = [i for i, _ in self.pairs]
        outputs = [j for _, j in self.pairs]
        if len(set(inputs)) != len(inputs):
            raise ValueError(f"input matched twice: {sorted(inputs)}")
        if len(set(outputs)) != len(outputs):
            raise ValueError(f"output matched twice: {sorted(outputs)}")

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        validate_outputs: bool = True,
    ) -> "Matching":
        """Build a matching from any iterable of (input, output) pairs.

        ``validate_outputs=False`` is the sanctioned path for *b-matchings*
        on the output side (the ``output_capacity > 1`` generalization of
        Section 3.1, where a replicated fabric delivers up to k cells per
        output per slot): outputs may repeat, inputs still may not.
        """
        pairs = tuple(sorted(pairs))
        if validate_outputs:
            return cls(pairs)
        inputs = [i for i, _ in pairs]
        if len(set(inputs)) != len(inputs):
            raise ValueError(f"input matched twice: {sorted(inputs)}")
        matching = object.__new__(cls)
        object.__setattr__(matching, "pairs", pairs)
        return matching

    @classmethod
    def from_match_array(
        cls, match: np.ndarray, validate_outputs: bool = True
    ) -> "Matching":
        """The pairs ``(i, match[i])`` of a kernel's per-input match
        array (-1: input i unmatched), as :meth:`from_pairs` builds them."""
        pairs = [(i, j) for i, j in enumerate(match.tolist()) if j >= 0]
        return cls.from_pairs(pairs, validate_outputs)

    @classmethod
    def empty(cls) -> "Matching":
        """The matching with no pairs."""
        return cls(())

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.pairs)

    def output_of(self, input_port: int) -> Optional[int]:
        """Output matched to ``input_port``, or None."""
        for i, j in self.pairs:
            if i == input_port:
                return j
        return None

    def input_of(self, output_port: int) -> Optional[int]:
        """Input matched to ``output_port``, or None."""
        for i, j in self.pairs:
            if j == output_port:
                return i
        return None

    def as_dict(self) -> Dict[int, int]:
        """Mapping from matched input to its output."""
        return dict(self.pairs)

    def respects(self, requests: np.ndarray) -> bool:
        """True when every pair is backed by a request in ``requests``."""
        matrix = as_request_matrix(requests)
        return all(matrix[i, j] for i, j in self.pairs)


def as_request_matrix(requests: np.ndarray) -> np.ndarray:
    """Validate and normalize a request matrix to square boolean ndarray."""
    matrix = np.asarray(requests)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"request matrix must be square, got shape {matrix.shape}")
    return matrix.astype(bool)


def is_matching(pairs: Sequence[Tuple[int, int]]) -> bool:
    """True when ``pairs`` repeats no input and no output."""
    inputs = [i for i, _ in pairs]
    outputs = [j for _, j in pairs]
    return len(set(inputs)) == len(inputs) and len(set(outputs)) == len(outputs)


def is_maximal(matching: Matching, requests: np.ndarray) -> bool:
    """True when no request pair can be added to ``matching``.

    This is the termination condition of parallel iterative matching:
    "no unmatched input has cells queued for any unmatched output"
    (Section 3.2).
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    matched_inputs = {i for i, _ in matching.pairs}
    matched_outputs = {j for _, j in matching.pairs}
    for i in range(n):
        if i in matched_inputs:
            continue
        for j in range(n):
            if j in matched_outputs:
                continue
            if matrix[i, j]:
                return False
    return True


def greedy_maximal_match(requests: np.ndarray) -> Matching:
    """Sequential greedy maximal matching (first-fit order).

    The simplest correct scheduler: scan inputs in index order and give
    each the lowest-numbered free requested output.  Used as a
    deterministic reference for maximality properties, and as the
    "sequential matching algorithm" PIM's worst case degenerates to
    (Section 3.2).
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    taken_outputs = set()
    pairs = []
    for i in range(n):
        for j in range(n):
            if matrix[i, j] and j not in taken_outputs:
                pairs.append((i, j))
                taken_outputs.add(j)
                break
    return Matching.from_pairs(pairs)


def maximal_ge_half_maximum(maximal_size: int, maximum_size: int) -> bool:
    """The Section 3.4 bound: |maximal| >= |maximum| / 2."""
    return 2 * maximal_size >= maximum_size
