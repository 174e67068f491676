"""Parallel Iterative Matching (PIM) -- the paper's core algorithm.

Section 3.1: each cell slot, starting from an empty matching, the
switch iterates three phases until an iteration budget is spent (the
AN2 prototype uses **four** iterations) or the matching is maximal:

1. **Request.**  Each unmatched input requests *every* output for which
   it has a buffered cell.
2. **Grant.**  Each unmatched output that receives requests grants one,
   chosen **uniformly at random** -- the independent per-output
   randomness is what yields the O(log N) expected convergence
   (Appendix A).
3. **Accept.**  Each input that receives grants accepts one.  The paper
   requires the accept choice to be "round-robin or other fair" for
   starvation freedom (Section 3.4); both random and round-robin
   accept policies are provided.

Matches made in earlier iterations are retained; later iterations only
fill in the gaps, so the per-slot result is always a legal matching and
is maximal when run to completion.

The module provides:

- :class:`BatchPIMScheduler` -- stateful PIM vectorized over B
  independent replicas at once; the matching kernel of the fast-path
  simulator (:mod:`repro.sim.fastpath`),
- :func:`pim_match` -- one slot's matching for a single request matrix,
  with its per-iteration match sizes,
- :class:`PIMScheduler` -- the stateful scheduler object plugged into
  :class:`repro.switch.switch.CrossbarSwitch`.

The last two are B = 1 calls of the first (through
:class:`repro.core.batch.ObjectScheduler`): one implementation, so the
object and fast-path backends make the same matches from the same
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Tuple

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    ObjectScheduler,
    line_winners,
    replay_generator,
)
from repro.core.matching import Matching

__all__ = [
    "PIMResult",
    "pim_match",
    "PIMScheduler",
    "BatchPIMScheduler",
]

AcceptPolicy = Literal["random", "round_robin"]

#: Iteration count of the AN2 prototype (Section 3.2).
AN2_ITERATIONS = 4


@dataclass(frozen=True)
class PIMResult:
    """Result of running PIM on one request matrix.

    Attributes
    ----------
    matching:
        The final matching.
    cumulative_sizes:
        ``cumulative_sizes[k]`` is the matching size after iteration
        k+1.  An empty request matrix executes no iteration at all but
        still reports ``cumulative_sizes == (0,)`` so the tuple is
        never empty; ``iterations`` is the authoritative count of
        request/grant/accept rounds actually run (0 in that case).
    completed:
        True when the final matching is maximal (the algorithm stopped
        because no unresolved request remained rather than because the
        iteration budget ran out).
    iterations_run:
        Request/grant/accept rounds actually executed.
    """

    matching: Matching
    cumulative_sizes: Tuple[int, ...]
    completed: bool
    iterations_run: int

    @property
    def iterations(self) -> int:
        """Number of request/grant/accept iterations actually executed.

        Unlike ``len(cumulative_sizes)`` this is 0 for an empty request
        matrix, where no iteration runs but ``cumulative_sizes`` still
        holds the sentinel ``(0,)``.
        """
        return self.iterations_run


def pim_match(
    requests: np.ndarray,
    rng: np.random.Generator,
    iterations: Optional[int] = AN2_ITERATIONS,
    accept: AcceptPolicy = "random",
    output_capacity: int = 1,
) -> PIMResult:
    """Run parallel iterative matching on one request matrix.

    One slot of a fresh :class:`PIMScheduler` on ``rng`` (which only
    needs a numpy-compatible ``random(shape)``), so ``rng`` moves as the
    kernel's stream does: one ``(1, N, N)`` cube per grant and per
    random accept of every executed iteration.  ``iterations=None``
    runs to completion (the AN2 prototype uses 4, Section 3.2);
    ``output_capacity`` k lets each output be matched up to k times
    (the k-grant generalization of Section 3.1).

    Returns a :class:`PIMResult`.  With ``output_capacity == 1`` the
    matching is always legal, and maximal whenever ``completed``.  An
    empty request matrix runs zero iterations (``iterations == 0``)
    and reports the sentinel ``cumulative_sizes == (0,)``.
    """
    scheduler = PIMScheduler(
        iterations, accept, output_capacity=output_capacity, rng=rng
    )
    matching = scheduler.schedule(requests)
    if not scheduler.ports:  # no ports, no kernel: nothing ran
        return PIMResult(matching, (0,), True, 0)
    return scheduler.last_result


class BatchPIMScheduler(BatchScheduler):
    """Stateful PIM vectorized over B independent switch replicas.

    Runs the request/grant/accept rounds of Section 3.1 simultaneously
    on a ``(B, N, N)`` stack of request matrices -- one matrix per
    replica -- as a pick rule (random grant, random or round-robin
    accept) and a commit hook over the shared round loop
    (:meth:`~repro.core.batch.BatchScheduler._rounds`), which carries
    the unresolved requests as one edge list, so a round costs array
    work per request, not per cell of the cube.  This is the matching
    kernel of the fast-path simulator
    (:mod:`repro.sim.fastpath`), and at B = 1 the whole of
    :class:`PIMScheduler` (and so of :func:`pim_match`).  Its cross-slot state:

    - an **iteration budget** per slot (AN2 uses 4; ``None`` runs each
      slot to maximality, which needs at most N rounds since every
      round with unresolved requests matches at least one pair),
    - **round-robin accept pointers** per (replica, input) carried
      across slots for the Section 3.4 fairness guarantee,
    - an **output capacity** k, the k-grant generalization for
      replicated fabrics (outputs may be matched up to k times; inputs
      still accept at most one grant per slot).

    Iteration-count convention (as :func:`pim_match`): iterations are
    counted only when at least one unresolved request exists, so an
    all-empty request batch executes zero rounds; diagnostics then
    report the ``(B, 1)`` zero-size sentinel in
    ``last_cumulative_sizes`` with ``last_completed`` all True.  An
    attached probe gets one ``PimIteration`` event per round, pooled
    over the B replicas, on the slots it samples, and every slot's
    round count in the ``pim.iterations`` histogram.

    Parameters
    ----------
    replicas, ports:
        Batch shape B and switch size N.
    iterations:
        Per-slot iteration budget; ``None`` = run to maximality.
    accept:
        ``"random"`` or ``"round_robin"`` input accept policy.
    seed / rng:
        Private random stream (``rng`` wins when both are given; it
        only needs a numpy-compatible ``random(shape)``).
    output_capacity:
        Grants (and matches) each output may take per slot.
    track_sizes:
        Record ``last_cumulative_sizes`` / ``last_completed`` /
        ``last_result`` diagnostics (Table 1 and the object scheduler
        need them; the fast-path inner loop turns them off to save
        per-slot reductions).

    Examples
    --------
    >>> import numpy as np
    >>> sched = BatchPIMScheduler(replicas=3, ports=4, seed=0)
    >>> match = sched.schedule(np.ones((3, 4, 4), dtype=bool))
    >>> match.shape == (3, 4) and (match >= 0).all()  # perfect matches
    True
    """

    name = "pim_batch"

    def __init__(
        self,
        replicas: int,
        ports: int,
        iterations: Optional[int] = AN2_ITERATIONS,
        accept: AcceptPolicy = "random",
        seed: Optional[int] = None,
        output_capacity: int = 1,
        rng=None,
        track_sizes: bool = True,
    ):
        super().__init__(replicas, ports, output_capacity=output_capacity)
        if iterations is not None and iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if accept not in ("random", "round_robin"):
            raise ValueError(f"unknown accept policy: {accept!r}")
        self.iterations = iterations
        self.accept = accept
        # Deterministic seed=None fallback (repro.sim.rng default-seed
        # policy): identical configs must be replayable.
        self._resolve_streams(seed, rng, "pim_batch")
        self._pointers = np.zeros((replicas, ports), dtype=np.int64)
        self.track_sizes = track_sizes
        #: (B, K) cumulative matching sizes of the last schedule() call
        #: (None when ``track_sizes`` is off).
        self.last_cumulative_sizes: Optional[np.ndarray] = None
        #: (B,) bool: which replicas reached a maximal match last slot.
        self.last_completed: Optional[np.ndarray] = None

    def cube_kernel(self) -> "BatchPIMScheduler":
        return self

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas.

        ``occupancy`` is ignored (PIM is occupancy-blind).  Returns the
        ``(B, N)`` match array of the
        :class:`~repro.core.batch.BatchScheduler` contract.
        """
        self._sizes: List[np.ndarray] = []
        match, _, left = self._rounds(
            requests, occupancy, self._pick, self.iterations, self._commit
        )
        if self.track_sizes:
            b, n = match.shape
            sizes = self._sizes or [np.zeros(b, dtype=np.int64)]  # no round ran
            self.last_cumulative_sizes = np.stack(sizes, axis=1)
            self.last_completed = np.bincount(left[0] // (n * n), minlength=b) == 0
            self._last_match = match
        return match

    def _pick(self, rounds, edges, payload):
        n = self.ports
        lines = self.replicas * n
        # Grant: each output with capacity left picks one requesting
        # input uniformly at random (the largest of i.i.d. keys).  The
        # stream moves by a whole cube per draw, not per edge; only
        # the edges' keys are read.  ``+ 1.0`` makes the keys
        # positive and rounds a uniform draw's last bit away, so ties
        # are real (a line's first edge wins).
        keys = self._cube_keys(edges[0]) + 1.0
        grants = edges.take(line_winners(edges[2], keys, lines), axis=1)
        # Accept: each input picks one granting output.
        if self.accept == "random":
            keys = self._cube_keys(grants[0]) + 1.0
        else:
            # Round-robin: first granted output at/after the pointer.
            keys = n - (grants[0] - self._pointers.reshape(-1)[grants[1]]) % n
        return grants, grants.take(line_winners(grants[1], keys, lines), axis=1)

    def _commit(self, rounds, edges, grants, accepts, match) -> None:
        if self.accept == "round_robin":
            self._pointers.reshape(-1)[accepts[1]] = (accepts[0] + 1) % self.ports
        if self.track_sizes:
            self._sizes.append((match.reshape(self.replicas, -1) >= 0).sum(axis=1))
        if self._probe is not None and self._probe.sampling:
            self._probe.pim_iteration(
                rounds,
                requests=edges.shape[1],
                grants=grants.shape[1],
                accepts=accepts.shape[1],
                matched=int(np.count_nonzero(match >= 0)),
                replicas=self.replicas,
            )

    @property
    def last_result(self) -> Optional[PIMResult]:
        """Replica 0's last slot as a :class:`PIMResult` (the object
        :class:`PIMScheduler`'s view); None before the first slot, after
        ``reset()`` and with ``track_sizes`` off."""
        if self.last_completed is None:
            return None
        sizes = tuple(self.last_cumulative_sizes[0].tolist())
        return PIMResult(
            # k > 1 legitimately matches an output up to k times (a
            # b-matching on the output side), which the default
            # validator forbids.
            Matching.from_match_array(self._last_match[0], self.output_capacity == 1),
            sizes,
            bool(self.last_completed[0]),
            # Every round that runs matches a pair: (0,) means none ran.
            len(sizes) if sizes[-1] else 0,
        )

    def reset(self) -> None:
        """Restore all cross-slot state (pointers, RNG, diagnostics).

        The RNG stream rewinds to its as-constructed state (when it can
        be snapshotted -- see
        :func:`repro.core.batch.resolve_generator`), so a rerun of the
        same scheduler replays the first run draw for draw.
        """
        self._pointers = np.zeros((self.replicas, self.ports), dtype=np.int64)
        self._rng = replay_generator(self._rng, self._rng_token)
        self.last_cumulative_sizes = None
        self.last_completed = None

    def __repr__(self) -> str:
        its = "inf" if self.iterations is None else self.iterations
        return (
            f"BatchPIMScheduler(replicas={self.replicas}, ports={self.ports}, "
            f"iterations={its}, accept={self.accept!r})"
        )


class PIMScheduler(ObjectScheduler):
    """Stateful PIM scheduler for the slot-clocked switch model.

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchPIMScheduler`.  ``last_result`` is the kernel's
    :class:`PIMResult` of the last slot; its ``iterations`` counts the
    request/grant/accept rounds actually executed, so a slot whose
    request matrix is empty reports ``iterations == 0`` (no round ran)
    even though ``cumulative_sizes`` keeps its ``(0,)`` sentinel.
    Per-slot delay/warm-up accounting is the switch's job
    (:class:`repro.sim.stats.DelayStats`), not the scheduler's: the
    scheduler is memoryless apart from round-robin pointers and its
    RNG stream.  An attached probe gets one ``PimIteration`` event per
    round on sampled slots (the Figure 2 anatomy) and every slot's
    round count in the ``pim.iterations`` histogram.

    Parameters
    ----------
    iterations:
        Per-slot iteration budget (AN2 uses 4); ``None`` runs each slot
        to a maximal match ("PIM-infinity" in Figure 5).
    accept:
        Input accept policy; round-robin pointers persist across slots.
    seed:
        Seed for this scheduler's private random stream.
    output_capacity:
        k-grant generalization for replicated fabrics.
    rng:
        A substitute randomness source, e.g. the Section 3.3 hardware
        generator :func:`repro.hardware.random_select.lfsr_pim_rng`; it
        only needs a numpy-compatible ``random(shape)``.

    Examples
    --------
    >>> import numpy as np
    >>> sched = PIMScheduler(iterations=4, seed=7)
    >>> requests = np.ones((4, 4), dtype=bool)
    >>> len(sched.schedule(requests)) == 4  # full matrix -> perfect match
    True
    """

    def __init__(
        self,
        iterations: Optional[int] = AN2_ITERATIONS,
        accept: AcceptPolicy = "random",
        seed: Optional[int] = None,
        output_capacity: int = 1,
        rng=None,
    ):
        super().__init__(
            "pim",
            iterations=iterations,
            accept=accept,
            seed=seed,
            rng=rng,
            output_capacity=output_capacity,
        )
