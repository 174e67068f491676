"""Test-only oracles: the dense object loops of PIM, iSLIP, RRM, LQF,
wavefront and the statistical-matching lottery.

These are ``pim_match`` (with its grant and accept phases),
``islip_match``, ``lqf_match``, ``wavefront_match``,
``StatisticalMatcher``, and ``rrm_match`` and ``RRMScheduler`` with the
``validate_pointer_array`` they need, as they stood before the object
schedulers became B = 1 calls of the batched kernels, kept verbatim
apart from PIM's per-iteration trace option, which nothing reads any
more, the lottery's PIM fill, which calls the ``pim_match`` below, and
the docstring links between ``rrm_match`` and its validator.  Each resolves
one N x N request matrix with whole-matrix masks and a Python loop over
ports.  ``TestB1Parity`` in ``test_batch_schedulers.py`` pins the object
schedulers and the B = 1 kernels to them slot for slot below N = 64,
where PIM's draws are whole ``(N, N)`` matrices; from N = 64 up the
loop below draws compact submatrices, which the kernels never did.
``test_statistical_oracle.py`` pins the object ``StatisticalMatcher``
to the lottery here draw for draw, and ``test_rrm_oracle.py`` the
object ``RRMScheduler`` to the one here, pointers included.  Not a
second production path: nothing under ``src/`` imports this module.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.matching import Matching, as_request_matrix
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy, PIMResult
from repro.core.statistical import (
    binomial_decoy_pmf,
    cumulative_table,
    grant_cdf_table,
    virtual_grant_pmf,
)


#: Smallest switch size at which the compact grant/accept key draw
#: pays for itself.  Below this, numpy per-call overhead of extracting
#: the active submatrix exceeds the cost of just drawing N*N uniforms
#: (measured crossover ~N=64; clear win from N=128 up).
_COMPACT_MIN_PORTS = 64


def _grant_phase(
    active: np.ndarray, rng: np.random.Generator, compact: bool = True
) -> np.ndarray:
    """Each output with pending requests grants one uniformly at random.

    ``active`` is the N x N matrix of unresolved requests.  Returns an
    N x N boolean grant matrix with at most one True per column.
    Choosing the argmax of i.i.d. uniform keys over the requesting
    inputs is a uniform choice among them.

    With ``compact`` (the default) random keys are drawn only over the
    submatrix of rows/columns that still carry a request; in later PIM
    iterations ``active`` is nearly empty, so this avoids generating
    N*N uniforms to resolve a handful of cells.  The compact path only
    engages from ``_COMPACT_MIN_PORTS`` up -- on small matrices the
    submatrix bookkeeping costs more than the uniforms it saves.
    ``compact=False`` forces the legacy full-matrix draw (same
    distribution, different random-stream consumption); the perf
    harness reports the delta.
    """
    grants = np.zeros_like(active)
    if compact and active.shape[0] >= _COMPACT_MIN_PORTS:
        rows = np.nonzero(active.any(axis=1))[0]
        cols = np.nonzero(active.any(axis=0))[0]
        if cols.size == 0:
            return grants
        sub = active[np.ix_(rows, cols)]
        # Adding the bool mask lifts requesting keys into [1, 2) above
        # non-requesting [0, 1): same argmax winner as masking with
        # -1.0, without the np.where temporary.  Every retained column
        # has at least one requester, so the argmax row is always a
        # genuine request.
        keys = rng.random(sub.shape)
        keys += sub
        grants[rows[keys.argmax(axis=0)], cols] = True
        return grants
    keys = np.where(active, rng.random(active.shape), -1.0)
    chosen = keys.argmax(axis=0)
    granted = keys.max(axis=0) >= 0.0
    cols = np.nonzero(granted)[0]
    grants[chosen[cols], cols] = True
    return grants


def _accept_random(
    grants: np.ndarray, rng: np.random.Generator, compact: bool = True
) -> List[Tuple[int, int]]:
    """Each input with grants accepts one uniformly at random.

    ``compact`` draws keys only over rows/columns that carry a grant,
    from ``_COMPACT_MIN_PORTS`` up (see :func:`_grant_phase`).
    """
    if compact and grants.shape[0] >= _COMPACT_MIN_PORTS:
        rows = np.nonzero(grants.any(axis=1))[0]
        cols = np.nonzero(grants.any(axis=0))[0]
        if rows.size == 0:
            return []
        sub = grants[np.ix_(rows, cols)]
        keys = rng.random(sub.shape)
        keys += sub
        chosen = keys.argmax(axis=1)
        return [(int(i), int(cols[c])) for i, c in zip(rows, chosen)]
    keys = np.where(grants, rng.random(grants.shape), -1.0)
    chosen = keys.argmax(axis=1)
    has_grant = keys.max(axis=1) >= 0.0
    return [(i, int(chosen[i])) for i in np.nonzero(has_grant)[0]]


def _accept_round_robin(grants: np.ndarray, pointers: np.ndarray) -> List[Tuple[int, int]]:
    """Each input accepts the first granted output at/after its pointer.

    The pointer advances one past the accepted output, giving the
    "round-robin or other fair fashion" accept of Section 3.4.
    ``pointers`` is mutated in place.
    """
    n = grants.shape[0]
    accepted = []
    for i in range(n):
        row = np.nonzero(grants[i])[0]
        if row.size == 0:
            continue
        offsets = (row - pointers[i]) % n
        j = int(row[offsets.argmin()])
        accepted.append((i, j))
        pointers[i] = (j + 1) % n
    return accepted


def pim_match(
    requests: np.ndarray,
    rng: np.random.Generator,
    iterations: Optional[int] = AN2_ITERATIONS,
    accept: AcceptPolicy = "random",
    accept_pointers: Optional[np.ndarray] = None,
    output_capacity: int = 1,
    compact_draws: bool = True,
) -> PIMResult:
    """Run parallel iterative matching on one request matrix.

    Parameters
    ----------
    requests:
        N x N boolean matrix; ``requests[i, j]`` means input i has at
        least one queued cell for output j.
    rng:
        Random generator for the grant (and random-accept) choices.
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
    compact_draws:
        Draw grant/accept random keys only over the rows/columns still
        in play (default).  ``False`` restores the legacy full-N*N
        draws per iteration -- identical distribution, but a different
        (and for sparse iterations much larger) random-stream
        consumption; kept for perf comparison in the bench harness.

    Returns a :class:`PIMResult`.  With ``output_capacity == 1`` the
    matching is always legal, and maximal whenever ``completed``.  An
    empty request matrix runs zero iterations (``iterations == 0``)
    and reports the sentinel ``cumulative_sizes == (0,)``.
    """
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    if output_capacity < 1:
        raise ValueError(f"output_capacity must be >= 1, got {output_capacity}")
    if iterations is not None and iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if accept == "round_robin" and accept_pointers is None:
        accept_pointers = np.zeros(n, dtype=np.int64)

    input_matched = np.zeros(n, dtype=bool)
    output_slots = np.full(n, output_capacity, dtype=np.int64)
    pairs: List[Tuple[int, int]] = []
    sizes: List[int] = []
    completed = False

    executed = 0
    while iterations is None or executed < iterations:
        active = matrix & ~input_matched[:, None] & (output_slots > 0)[None, :]
        if not active.any():
            completed = True
            break
        executed += 1
        grants = _grant_phase(active, rng, compact=compact_draws)
        if accept == "random":
            accepted = _accept_random(grants, rng, compact=compact_draws)
        elif accept == "round_robin":
            assert accept_pointers is not None
            accepted = _accept_round_robin(grants, accept_pointers)
        else:
            raise ValueError(f"unknown accept policy: {accept!r}")
        for i, j in accepted:
            pairs.append((i, j))
            input_matched[i] = True
            output_slots[j] -= 1
        sizes.append(len(pairs))

    if not sizes:
        # No iteration ran (empty request matrix): keep the (0,)
        # sentinel so cumulative_sizes is never empty, with the
        # explicit iterations_run == 0 convention.
        sizes.append(0)
    if not completed:
        # Budget exhausted; check whether we happen to be maximal anyway.
        active = matrix & ~input_matched[:, None] & (output_slots > 0)[None, :]
        completed = not active.any()

    # k > 1 legitimately matches an output up to k times (a b-matching
    # on the output side), which the default validator forbids.
    matching = Matching.from_pairs(pairs, validate_outputs=output_capacity == 1)
    return PIMResult(matching, tuple(sizes), completed, executed)


def validate_pointer_array(pointers: np.ndarray, n: int, name: str) -> np.ndarray:
    """Validate a round-robin pointer array that will be mutated in place.

    The pointer-carrying matcher :func:`rrm_match`
    advances caller-provided arrays in place so a stateful scheduler
    carries desynchronization state across slots.  Writing
    ``(i + 1) % n`` into an array of the wrong dtype silently truncates
    or rounds (float arrays accept the store but corrupt later modular
    arithmetic on mixed types), so anything that is not an int64 array
    of shape ``(n,)`` with values in ``[0, n)`` is rejected outright --
    a silent copy-convert would break the in-place mutation contract
    instead.

    Returns the validated array unchanged.
    """
    array = np.asarray(pointers)
    if array is not pointers:
        raise ValueError(
            f"{name} must be a numpy array (it is mutated in place), "
            f"got {type(pointers).__name__}"
        )
    if array.dtype != np.int64:
        raise ValueError(
            f"{name} must have dtype int64 (in-place pointer updates), "
            f"got {array.dtype}"
        )
    if array.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {array.shape}")
    if n and ((array < 0) | (array >= n)).any():
        raise ValueError(f"{name} values must be in [0, {n}), got {array.tolist()}")
    return array


def islip_match(
    requests: np.ndarray,
    grant_pointers: np.ndarray,
    accept_pointers: np.ndarray,
    iterations: int = 1,
) -> Matching:
    """One slot of iSLIP.

    Parameters
    ----------
    requests:
        N x N boolean request matrix.
    grant_pointers, accept_pointers:
        Per-output and per-input round-robin pointers; **mutated in
        place** according to the iSLIP update rule (advance one past the
        chosen port, only on an accepted grant, only in iteration 1).
        Must be int64 arrays of shape ``(N,)`` with values in
        ``[0, N)``; anything else is rejected with ``ValueError``
        rather than silently mutated (see
        :func:`validate_pointer_array`).
    iterations:
        Request/grant/accept rounds per slot.
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

    for iteration in range(iterations):
        active = matrix & ~input_matched[:, None] & ~output_matched[None, :]
        if not active.any():
            break
        # Grant: each unmatched output picks the first requesting input
        # at/after its pointer.
        grants_to: List[Optional[int]] = [None] * n
        for j in range(n):
            if output_matched[j]:
                continue
            requesters = np.nonzero(active[:, j])[0]
            if requesters.size == 0:
                continue
            offsets = (requesters - grant_pointers[j]) % n
            grants_to[j] = int(requesters[offsets.argmin()])
        # Accept: each input picks the first granting output at/after
        # its pointer.
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
            if iteration == 0:
                # The iSLIP pointer rule: advance only on first-iteration
                # accepts; this is what desynchronizes the arbiters.
                grant_pointers[j] = (i + 1) % n
                accept_pointers[i] = (j + 1) % n
    return Matching.from_pairs(pairs)


def lqf_match(occupancy: np.ndarray, rng: np.random.Generator) -> Matching:
    """Greedy longest-queue-first maximal matching.

    ``occupancy[i, j]`` is the number of queued cells for (i, j); ties
    are broken uniformly at random (equal keys, which only a coarse
    ``rng`` produces, go to the first cell).  The result is maximal
    over the positive-occupancy pairs.
    """
    matrix = np.asarray(occupancy)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"occupancy must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise ValueError("occupancy must be non-negative")
    n = matrix.shape[0]
    # Random keys break ties uniformly while keeping one sort.
    keys = matrix.astype(np.float64) + rng.random(matrix.shape)
    # Stable on the negated keys: (key descending, cell ascending), the
    # batched kernel's order -- a tie goes to the first cell.
    order = np.argsort(-keys, axis=None, kind="stable")
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(n, dtype=bool)
    pairs: List[Tuple[int, int]] = []
    for flat in order:
        i, j = divmod(int(flat), n)
        if matrix[i, j] <= 0:
            break  # remaining entries are empty queues
        if row_free[i] and col_free[j]:
            pairs.append((i, j))
            row_free[i] = False
            col_free[j] = False
    return Matching.from_pairs(pairs)


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
    """
    raw = np.asarray(requests)
    if raw.dtype != bool and np.issubdtype(raw.dtype, np.number) and (raw < 0).any():
        raise ValueError("requests must be non-negative")
    matrix = as_request_matrix(requests)
    n = matrix.shape[0]
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(n, dtype=bool)
    pairs: List[Tuple[int, int]] = []
    for step in range(n):
        d = (start_diagonal + step) % n
        for i in range(n):
            j = (d - i) % n
            if matrix[i, j] and row_free[i] and col_free[j]:
                pairs.append((i, j))
                row_free[i] = False
                col_free[j] = False
    return Matching.from_pairs(pairs)


class StatisticalMatcher:
    """Statistical matching over an integer allocation matrix.

    Parameters
    ----------
    allocations:
        N x N non-negative integer matrix; ``allocations[i, j]`` is the
        number of bandwidth units reserved from input i to output j.
    units:
        X, the number of units each link's allocatable bandwidth is
        divided into.  Every row and column of ``allocations`` must sum
        to at most ``units``.
    rounds:
        Independent grant/accept rounds per slot (the paper shows 2
        captures nearly all the benefit).
    seed:
        Seed for this matcher's private random streams.  ``None``
        falls back to the deterministic :mod:`repro.sim.rng` policy so
        identical configs are replayable.  The statistical
        grant/accept draws and the PIM fill phase consume *separate*
        streams derived from this seed: the statistical draws of a
        ``fill=True`` matcher are therefore identical, draw for draw,
        to those of a ``fill=False`` matcher with the same seed -- the
        coupling behind the differential harness's metamorphic check
        that filling never carries less.
    fill:
        When True, slots and ports left idle by statistical matching
        are filled with ordinary PIM over the remaining requests
        (Section 5.2: "Any slot not used by statistical matching can be
        filled with other traffic by parallel iterative matching").
    fill_iterations:
        PIM iteration budget for the fill phase.

    The matcher can be used standalone (:meth:`match`, no queue state
    needed -- useful for the Appendix C throughput bench) or as a
    switch scheduler (:meth:`schedule`, which drops statistical matches
    that have no queued cell and then PIM-fills).
    """

    name = "statistical"

    def __init__(
        self,
        allocations: np.ndarray,
        units: int,
        rounds: int = 2,
        seed: Optional[int] = None,
        fill: bool = False,
        fill_iterations: int = 4,
    ):
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        matrix = np.asarray(allocations, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"allocations must be square, got shape {matrix.shape}")
        if (matrix < 0).any():
            raise ValueError("allocations must be non-negative")
        self._check_feasible(matrix, units)
        self.units = units
        self.rounds = rounds
        self.fill = fill
        self.fill_iterations = fill_iterations
        if seed is None:
            # Deterministic fallback (repro.sim.rng default-seed
            # policy); imported lazily to dodge the sim <-> core cycle.
            from repro.sim.rng import default_seed

            seed = default_seed("statistical")
        # The fill phase draws from its own derived stream so that the
        # statistical draws are a pure function of (seed, slot index),
        # independent of whether filling is enabled.
        from repro.sim.rng import derive_seed

        self._seed = seed
        self._fill_seed = derive_seed(seed, "statistical/fill")
        self._rng = np.random.default_rng(self._seed)
        self._fill_rng = np.random.default_rng(self._fill_seed)
        self._alloc = matrix
        self._pmf_cache: Dict[int, np.ndarray] = {}
        self._virtual_cdf_cache: Dict[int, np.ndarray] = {}
        self._decoy_cdf_cache: Dict[int, np.ndarray] = {}
        self._probe = None
        self._rebuild_tables()

    @staticmethod
    def _check_feasible(matrix: np.ndarray, units: int) -> None:
        rows = matrix.sum(axis=1)
        cols = matrix.sum(axis=0)
        if (rows > units).any():
            bad = int(np.argmax(rows > units))
            raise ValueError(
                f"input {bad} over-allocated: {int(rows[bad])} units > X = {units}"
            )
        if (cols > units).any():
            bad = int(np.argmax(cols > units))
            raise ValueError(
                f"output {bad} over-allocated: {int(cols[bad])} units > X = {units}"
            )

    def _rebuild_tables(self) -> None:
        """Precompute the hardware 'table lookup' distributions.

        ``_grant_cdf`` row j is the inverse-transform table for output
        j's grant draw; ``_slack`` caches each input's imaginary-output
        units.  The fast-path backend compiles its tables through the
        same module functions, so the two backends invert bitwise
        identical arrays.
        """
        n = self._alloc.shape[0]
        self._grant_cdf = grant_cdf_table(self._alloc, self.units)
        self._slack = self.units - self._alloc.sum(axis=1)

    @property
    def ports(self) -> int:
        """Switch size N."""
        return self._alloc.shape[0]

    @property
    def allocations(self) -> np.ndarray:
        """Copy of the allocation matrix."""
        return self._alloc.copy()

    def set_allocation(self, input_port: int, output_port: int, allocation_units: int) -> None:
        """Change one connection's rate.

        This is the operation statistical matching makes cheap: "only
        the input and output ports used by a flow need be informed of a
        change in its rate" (Section 5.2).
        """
        if allocation_units < 0:
            raise ValueError("allocation must be non-negative")
        trial = self._alloc.copy()
        trial[input_port, output_port] = allocation_units
        self._check_feasible(trial, self.units)
        self._alloc = trial
        self._rebuild_tables()

    def _pmf(self, x_ij: int) -> np.ndarray:
        if x_ij not in self._pmf_cache:
            self._pmf_cache[x_ij] = virtual_grant_pmf(x_ij, self.units)
        return self._pmf_cache[x_ij]

    def _virtual_cdf(self, x_ij: int) -> np.ndarray:
        """Inverse-transform table for the virtual-grant draw."""
        if x_ij not in self._virtual_cdf_cache:
            self._virtual_cdf_cache[x_ij] = cumulative_table(self._pmf(x_ij))
        return self._virtual_cdf_cache[x_ij]

    def _decoy_cdf(self, slack: int) -> np.ndarray:
        """Inverse-transform table for the imaginary-output decoy draw."""
        if slack not in self._decoy_cdf_cache:
            self._decoy_cdf_cache[slack] = cumulative_table(
                binomial_decoy_pmf(slack, self.units)
            )
        return self._decoy_cdf_cache[slack]

    def _one_round(self) -> Tuple[List[Tuple[int, int]], int, int, int]:
        """One grant / virtual-grant / accept round.

        Returns ``(pairs, granted, virtual_total, decoys)`` where
        ``pairs`` are the accepted (input, output) matches and the
        counts feed the per-round ``stat_round`` trace event.

        Every random decision is a plain uniform inverted through a
        precompiled cumulative table, drawn in four fixed-order vector
        passes (grants by ascending output, virtual-grant counts by
        ascending granted output, decoys by ascending under-reserved
        input, accept picks by ascending active input).  The batched
        fast path (:mod:`repro.sim.fastpath_statistical`) consumes its
        generator in exactly this order with (B, ...) draws, so at
        B = 1 with a shared seed the two backends agree draw for draw
        -- the contract the differential harness checks.
        """
        n = self.ports
        rng = self._rng
        # Pass 1: each output grants one input (or, at index N, its
        # imaginary input -- nobody).
        u_grant = rng.random(n)
        granted_input = [
            int(np.searchsorted(self._grant_cdf[j], u_grant[j], side="right"))
            for j in range(n)
        ]
        # Pass 2: granted inputs re-draw each grant as m virtual grants.
        real_outputs = [j for j in range(n) if granted_input[j] < n]
        u_virtual = rng.random(len(real_outputs))
        virtual: List[Dict[int, int]] = [dict() for _ in range(n)]
        virtual_total = 0
        for k, j in enumerate(real_outputs):
            i = granted_input[j]
            x_ij = int(self._alloc[i, j])
            m = int(np.searchsorted(self._virtual_cdf(x_ij), u_virtual[k], side="right"))
            if m > 0:
                virtual[i][j] = m
                virtual_total += m
        # Pass 3: under-reserved inputs draw Binomial(slack, 1/X)
        # virtual grants from their imaginary output (decoys).
        slack_inputs = [i for i in range(n) if self._slack[i] > 0]
        u_decoy = rng.random(len(slack_inputs))
        imaginary = [0] * n
        for k, i in enumerate(slack_inputs):
            imaginary[i] = int(
                np.searchsorted(
                    self._decoy_cdf(int(self._slack[i])), u_decoy[k], side="right"
                )
            )
        # Pass 4: each input accepts one virtual grant uniformly; a
        # pick falling in the imaginary decoys leaves it unmatched.
        totals = [sum(virtual[i].values()) + imaginary[i] for i in range(n)]
        active_inputs = [i for i in range(n) if totals[i] > 0]
        u_pick = rng.random(len(active_inputs))
        pairs: List[Tuple[int, int]] = []
        for k, i in enumerate(active_inputs):
            pick = int(u_pick[k] * totals[i])
            for j, m in virtual[i].items():  # insertion order: ascending j
                if pick < m:
                    pairs.append((i, j))
                    break
                pick -= m
            # Falling through means the imaginary output won: unmatched.
        return pairs, len(real_outputs), virtual_total, sum(imaginary)

    def match(self) -> Matching:
        """Compute one slot's statistical matching (no queue state).

        Round 2 (and later) matches are kept only when both endpoints
        were left unmatched by earlier rounds; per Appendix C, a
        round-2 conflict with an *imaginary* match does not discard the
        round-2 pair (imaginary matches leave the port physically idle).
        """
        matched_inputs: Dict[int, int] = {}
        matched_outputs: Dict[int, int] = {}
        probe = self._probe
        for round_index in range(self.rounds):
            pairs, granted, virtual_total, decoys = self._one_round()
            kept = 0
            for i, j in pairs:
                if i in matched_inputs or j in matched_outputs:
                    continue
                matched_inputs[i] = j
                matched_outputs[j] = i
                kept += 1
            if probe is not None and probe.enabled:
                probe.stat_round(
                    round_index,
                    granted=granted,
                    virtual=virtual_total,
                    decoys=decoys,
                    accepted=len(pairs),
                    kept=kept,
                    matched=len(matched_inputs),
                    replicas=1,
                )
        return Matching.from_pairs(matched_inputs.items())

    def schedule(self, requests: np.ndarray) -> Matching:
        """Switch-scheduler entry point.

        Statistical matches lacking a queued cell are released (the
        reserved slot is idle), and -- when ``fill`` is on -- idle
        ports are handed to PIM over the remaining requests.
        """
        matrix = as_request_matrix(requests)
        if matrix.shape[0] != self.ports:
            raise ValueError(
                f"request matrix is {matrix.shape[0]}x{matrix.shape[0]}, "
                f"allocations are {self.ports}x{self.ports}"
            )
        pairs = [(i, j) for i, j in self.match() if matrix[i, j]]
        if not self.fill:
            return Matching.from_pairs(pairs)
        taken_inputs = {i for i, _ in pairs}
        taken_outputs = {j for _, j in pairs}
        residual = matrix.copy()
        for i in taken_inputs:
            residual[i, :] = False
        for j in taken_outputs:
            residual[:, j] = False
        fill_result = pim_match(residual, self._fill_rng, iterations=self.fill_iterations)
        return Matching.from_pairs(pairs + list(fill_result.matching.pairs))

    def attach_probe(self, probe) -> None:
        """Attach a :class:`repro.obs.probe.Probe` for per-round
        telemetry.

        While enabled, :meth:`match` emits one ``stat_round`` event per
        grant/accept round (granted outputs, virtual-grant and decoy
        totals, accepted and kept pairs) -- the series the differential
        harness diffs against the fast-path backend.  Pass ``None`` to
        detach.
        """
        self._probe = probe

    def reset(self) -> None:
        """Restore both random streams to their as-constructed state.

        The matcher's only cross-slot state is its two generators (the
        statistical grant/accept stream and the derived PIM fill
        stream); re-deriving them from the stored seeds makes a rerun
        of the same matcher replay the first run draw for draw, the
        same contract ``PIMScheduler.reset()`` honors.
        """
        self._rng = np.random.default_rng(self._seed)
        self._fill_rng = np.random.default_rng(self._fill_seed)

    def __repr__(self) -> str:
        return (
            f"StatisticalMatcher(ports={self.ports}, units={self.units}, "
            f"rounds={self.rounds}, fill={self.fill})"
        )


def rrm_match(
    requests: np.ndarray,
    grant_pointers: np.ndarray,
    accept_pointers: np.ndarray,
    iterations: int = 1,
) -> Matching:
    """One slot of RRM; pointers advance unconditionally each slot.

    Both pointer arrays (per output, per input) are mutated in place
    and validated by :func:`validate_pointer_array`
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
