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

The last two are B = 1 calls of the first: one implementation, so the
object and fast-path backends make the same matches from the same
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Tuple

import numpy as np

from repro.core.batch import (
    BatchScheduler,
    line_winners,
    replay_generator,
    request_edges,
    resolve_generator,
)
from repro.core.matching import Matching, as_request_matrix

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
    accept_pointers: Optional[np.ndarray] = None,
    output_capacity: int = 1,
) -> PIMResult:
    """Run parallel iterative matching on one request matrix.

    The B = 1 call of :class:`BatchPIMScheduler`, so ``rng`` moves as
    that kernel's stream does: one ``(1, N, N)`` cube per grant and per
    random accept of every executed iteration.

    Parameters
    ----------
    requests:
        N x N boolean matrix; ``requests[i, j]`` means input i has at
        least one queued cell for output j.
    rng:
        Random generator for the grant (and random-accept) choices; it
        only needs a numpy-compatible ``random(shape)``.
    iterations:
        Iteration budget; ``None`` runs to completion (until maximal).
        The AN2 prototype uses 4 (Section 3.2).
    accept:
        ``"random"`` or ``"round_robin"`` input accept policy.
    accept_pointers:
        Round-robin pointers (length N int array), mutated in place so a
        stateful scheduler carries fairness across slots.  Ignored for
        the random policy; allocated fresh when needed and absent.
    output_capacity:
        The k-grant generalization of Section 3.1 for fabrics that can
        deliver k cells per output per slot: each output may grant (and
        be matched) up to k times.  Inputs still accept at most one
        grant per slot.  With k > 1 the result is a legal *b-matching*
        on the output side and is returned as plain pairs rather than a
        :class:`Matching`-validated object only when k == 1.

    Returns a :class:`PIMResult`.  With ``output_capacity == 1`` the
    matching is always legal, and maximal whenever ``completed``.  An
    empty request matrix runs zero iterations (``iterations == 0``)
    and reports the sentinel ``cumulative_sizes == (0,)``.
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    if n == 0:  # no ports (the kernel needs N >= 1)
        return PIMResult(Matching.empty(), (0,), True, 0)
    kernel = BatchPIMScheduler(
        1, n, iterations, accept, output_capacity=output_capacity, rng=rng
    )
    return _pim_slot(kernel, matrix, accept_pointers)


def _pim_slot(
    kernel: BatchPIMScheduler, matrix: np.ndarray, accept_pointers
) -> PIMResult:
    """One slot of a one-replica ``kernel`` on an N x N ``matrix``.

    ``accept_pointers``, when given, replace the kernel's round-robin
    pointers by a view, so the kernel advances them in place.
    """
    if accept_pointers is not None:
        kernel._pointers = accept_pointers[None]
    match = kernel.schedule(matrix[None])[0]
    sizes = tuple(kernel.last_cumulative_sizes[0].tolist())
    return PIMResult(
        # k > 1 legitimately matches an output up to k times (a
        # b-matching on the output side), which the default validator
        # forbids.
        Matching.from_match_array(match, kernel.output_capacity == 1),
        sizes,
        bool(kernel.last_completed[0]),
        # One size per round; an empty matrix runs none and keeps (0,).
        len(sizes) if matrix.any() else 0,
    )


class BatchPIMScheduler(BatchScheduler):
    """Stateful PIM vectorized over B independent switch replicas.

    Runs the request/grant/accept rounds of Section 3.1 simultaneously
    on a ``(B, N, N)`` stack of request matrices -- one matrix per
    replica -- carried as one edge list of unresolved requests, so a
    round costs array work per request, not per cell of the cube.  This
    is the matching kernel of the fast-path simulator
    (:mod:`repro.sim.fastpath`), and at B = 1 the whole of
    :func:`pim_match` and :class:`PIMScheduler`.  Its cross-slot state:

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
    ``last_cumulative_sizes`` with ``last_completed`` all True.

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
        Record ``last_cumulative_sizes`` / ``last_completed``
        diagnostics (Table 1 needs them; the fast-path inner loop
        turns them off to save per-slot reductions).

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
        self._probe = None

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` for per-iteration
        telemetry.

        On slots the probe samples, each request/grant/accept round
        emits one ``PimIteration`` event with counts pooled over all B
        replicas (``replicas=B``); the per-slot iteration count feeds
        the ``pim.iterations`` histogram.  Pass ``None`` to detach.
        The iteration-count convention matches :func:`pim_match`: an
        all-empty request batch runs zero rounds and emits no
        ``PimIteration`` events.
        """
        self._probe = probe

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute one slot's matchings for all replicas.

        Parameters
        ----------
        requests:
            (B, N, N) boolean request batch.
        occupancy:
            Ignored (PIM is occupancy-blind); accepted for
            :class:`repro.core.batch.BatchScheduler` signature
            uniformity.

        Returns
        -------
        (B, N) int array ``match`` with ``match[b, i]`` the output
        matched to input i of replica b, or -1 when unmatched.  Every
        matched pair is backed by a request; no input exceeds one
        match and no output exceeds ``output_capacity``.
        """
        batch = self._validate_batch(requests)
        b, n, _ = batch.shape
        match = np.full(b * n, -1, dtype=np.int64)
        slots = np.full(b * n, self.output_capacity, dtype=np.int64)
        pointers = self._pointers.reshape(-1)
        edges = request_edges(batch)  # the unresolved requests
        cumulative: List[np.ndarray] = []
        executed = 0

        while edges.shape[1] and executed != self.iterations:  # None: no budget
            executed += 1
            # Grant: each output with capacity left picks one requesting
            # input uniformly at random (the largest of i.i.d. keys).  The
            # stream moves by a whole cube per draw, not per edge; only
            # the edges' keys are read.  ``+ 1.0`` makes the keys
            # positive and rounds a uniform draw's last bit away, so ties
            # are real (a line's first edge wins).
            keys = self._cube_keys(edges[0]) + 1.0
            grants = edges.take(line_winners(edges[2], keys, b * n), axis=1)
            # Accept: each input picks one granting output.
            if self.accept == "random":
                keys = self._cube_keys(grants[0]) + 1.0
            else:
                # Round-robin: first granted output at/after the pointer.
                keys = n - (grants[0] - pointers[grants[1]]) % n
            accepts = grants.take(line_winners(grants[1], keys, b * n), axis=1)
            out = accepts[0] % n
            # One accept per input, one grant per output: no index repeats.
            match[accepts[1]] = out
            slots[accepts[2]] -= 1
            if self.accept == "round_robin":
                pointers[accepts[1]] = (out + 1) % n
            if self.track_sizes:
                cumulative.append((match.reshape(b, n) >= 0).sum(axis=1))
            if self._probe is not None and self._probe.sampling:
                self._probe.pim_iteration(
                    executed,
                    requests=edges.shape[1],
                    grants=grants.shape[1],
                    accepts=accepts.shape[1],
                    matched=int(np.count_nonzero(match >= 0)),
                    replicas=b,
                )
            unresolved = np.logical_and(match[edges[1]] < 0, slots[edges[2]])
            edges = edges.compress(unresolved, axis=1)

        if self._probe is not None:
            self._probe.slot_iterations(executed)
        if self.track_sizes:
            sizes = cumulative or [np.zeros(b, dtype=np.int64)]  # no round ran
            self.last_cumulative_sizes = np.stack(sizes, axis=1)
            self.last_completed = np.bincount(edges[0] // (n * n), minlength=b) == 0
        return match.reshape(b, n)

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


class PIMScheduler:
    """Stateful PIM scheduler for the slot-clocked switch model.

    Each slot is one call of a one-replica :class:`BatchPIMScheduler`
    drawing from this scheduler's stream.  Iteration-count convention: ``last_result.iterations`` counts
    request/grant/accept rounds actually executed, so a slot whose
    request matrix is empty reports ``iterations == 0`` (no round ran)
    even though ``cumulative_sizes`` keeps its ``(0,)`` sentinel --
    see :func:`pim_match`.  Per-slot delay/warm-up accounting is the
    switch's job (:class:`repro.sim.stats.DelayStats`), not the
    scheduler's: the scheduler is memoryless apart from round-robin
    pointers and its RNG stream.

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

    Examples
    --------
    >>> import numpy as np
    >>> sched = PIMScheduler(iterations=4, seed=7)
    >>> requests = np.ones((4, 4), dtype=bool)
    >>> len(sched.schedule(requests)) == 4  # full matrix -> perfect match
    True
    """

    name = "pim"

    def __init__(
        self,
        iterations: Optional[int] = AN2_ITERATIONS,
        accept: AcceptPolicy = "random",
        seed: Optional[int] = None,
        output_capacity: int = 1,
        rng=None,
    ):
        self.iterations = iterations
        self.accept = accept
        self.output_capacity = output_capacity
        # ``rng`` lets callers substitute a hardware-grade randomness
        # source (e.g. repro.hardware.random_select.lfsr_pim_rng) for
        # the Section 3.3 randomness-approximation ablation; it only
        # needs a numpy-compatible ``random(shape)``.  seed=None falls
        # back to the repro.sim.rng default-seed policy.
        self._rng, self._rng_token = resolve_generator(seed, rng, "pim")
        self._pointers: Optional[np.ndarray] = None
        # The one-replica kernel on ``_rng``, built at the first slot
        # (that fixes N) and again after reset() or a change of N.
        self._kernel: Optional[BatchPIMScheduler] = None
        self.last_result: Optional[PIMResult] = None
        self._probe = None

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` for per-iteration
        telemetry.

        On slots the probe samples, the kernel emits one
        ``PimIteration`` event per request/grant/accept round (the
        Figure 2 anatomy); every slot additionally feeds the
        ``pim.iterations`` histogram.  The iteration-count convention
        is :func:`pim_match`'s: an empty request matrix runs zero
        iterations, so it contributes 0 to the histogram and emits no
        ``PimIteration`` events.  Pass ``None`` to detach.
        """
        self._probe = probe
        if self._kernel is not None:
            self._kernel.attach_probe(probe)

    def schedule(self, requests: np.ndarray) -> Matching:
        """Compute the matching for one slot from the request matrix."""
        matrix = as_request_matrix(requests)
        n = matrix.shape[0]
        if self.accept == "round_robin":
            if self._pointers is None or self._pointers.shape[0] != n:
                self._pointers = np.zeros(n, dtype=np.int64)
        if self._kernel is None or self._kernel.ports != n:
            self._kernel = BatchPIMScheduler(
                1,
                n,
                self.iterations,
                self.accept,
                output_capacity=self.output_capacity,
                rng=self._rng,
            )
            self._kernel.attach_probe(self._probe)
        self.last_result = _pim_slot(self._kernel, matrix, self._pointers)
        return self.last_result.matching

    def reset(self) -> None:
        """Restore all cross-slot state (pointers and the RNG stream).

        Regression note: ``reset()`` used to clear only the round-robin
        pointers while the grant/accept stream kept advancing, so a
        rerun of the same scheduler diverged from the first run --
        violating the reset/rerun contract
        :class:`repro.core.statistical.StatisticalMatcher` documents.
        The stream now rewinds to its as-constructed state (injected
        non-numpy sources, which cannot be snapshotted, are left
        untouched; the caller owns replay for those).
        """
        self._pointers = None
        self._rng = replay_generator(self._rng, self._rng_token)
        self._kernel = None
        self.last_result = None

    def __repr__(self) -> str:
        its = "inf" if self.iterations is None else self.iterations
        return f"PIMScheduler(iterations={its}, accept={self.accept!r})"
