"""Test-only oracles: the dense object loops of PIM, iSLIP, LQF and wavefront.

These are ``pim_match`` (with its grant and accept phases),
``islip_match``, ``lqf_match`` and ``wavefront_match`` as they stood
before the object schedulers became B = 1 calls of the batched
kernels, kept verbatim apart from PIM's per-iteration trace option,
which nothing reads any more.  Each resolves one N x N request matrix
with whole-matrix masks and a Python loop over ports.
``TestB1Parity`` in ``test_batch_schedulers.py`` pins the object
schedulers and the B = 1 kernels to them slot for slot below N = 64,
where PIM's draws are whole ``(N, N)`` matrices; from N = 64 up the
loop below draws compact submatrices, which the kernels never did.
Not a second production path: nothing under ``src/`` imports this
module.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.core.islip import validate_pointer_array
from repro.core.matching import Matching, as_request_matrix
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy, PIMResult


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
