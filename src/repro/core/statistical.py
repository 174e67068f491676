"""Statistical Matching (Section 5, Appendix C).

Statistical matching generalizes PIM by *weighting the dice*: the
allocatable bandwidth of each link is divided into ``X`` discrete
units, ``X[i, j]`` of which are allocated to traffic from input i to
output j.  Each slot, independently:

1. **Grant.**  Output j grants input i with probability ``X[i, j]/X``
   (with the residual probability it grants its *imaginary* input,
   i.e. nobody) -- a table lookup in hardware.
2. **Virtual-grant reinterpretation.**  A granted input i re-draws the
   grant from output j as ``m`` *virtual grants*, distributed so that
   unconditionally ``m ~ Binomial(X[i, j], 1/X)`` -- as if each of the
   X[i, j] allocated units had been granted independently.  An
   under-reserved input also draws ``Binomial(X_i0, 1/X)`` virtual
   grants from its imaginary output.
3. **Accept.**  The input accepts one virtual grant uniformly (an
   imaginary pick means it stays unmatched).

The result (Appendix C): input i connects to output j with probability
``X[i, j]/X * (1 - ((X-1)/X)^X)`` -- at least ``(1 - 1/e) ~ 63%`` of
its allocation -- in one round, and at least
``(1 - 1/e)(1 + 1/e^2) ~ 72%`` with a second independent round whose
matches are kept where both endpoints were left unmatched.  Slots not
used by statistical matching can be filled by ordinary PIM.

Unlike the Slepian-Duguid frame schedule (Section 4), changing a rate
here touches only the two ports involved -- the property that makes
statistical matching suitable for rapidly-changing allocations and for
fairness enforcement (Figure 8).

One kernel draws the lottery.  :class:`BatchStatisticalMatcher` runs
**B independent replicas** of it at once on compiled tables, and
:class:`StatisticalMatcher`, the object scheduler, is its B = 1 call:

- the per-output grant tables are cumulative arrays
  (:func:`grant_cdf_table`), and one count of ``cdf <= u`` inverts all
  B * N grant draws of a round at once;
- the :func:`virtual_grant_pmf` and :func:`binomial_decoy_pmf` tables
  are stacked into padded cdf-row matrices
  (:func:`compile_stat_tables`), so virtual-grant counts and
  imaginary-output decoys are batched draws too;
- a round works per *grant*, not per cell: the real grants are one
  flat list, ascending (replica, output); an input's total is a
  scatter-add over its line, and the accept pick is one stable sort of
  the grants by line, one running sum of their virtual-grant counts and
  one binary search per active input (a pick at or past the line's real
  grants is a decoy win: the input stays unmatched);
- ``rounds`` independent rounds run per slot, keeping round-2+ pairs
  only where both endpoints are still unmatched;
- with ``fill=True`` the residual requests go to a
  :class:`repro.core.pim.BatchPIMScheduler` with the lottery's ports
  masked out.

Every round draws four fixed-order uniform passes -- grants by
ascending output, virtual-grant counts by ascending granted output,
decoys by ascending under-reserved input, accept picks by ascending
active input -- flattened row-major over (replica, port).  The fill
draws from a stream derived as ``derive_seed(seed,
"statistical/fill")``, so the statistical draws are identical whether
filling is enabled or not.  At B > 1 the batch consumes one coherent
stream; replicas are not individually seed-matched to B = 1 runs (the
PIM fast path's convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.batch import BatchScheduler, ObjectScheduler
from repro.core.matching import Matching
from repro.core.pim import AN2_ITERATIONS, BatchPIMScheduler

__all__ = [
    "BatchStatisticalMatcher",
    "CompiledStatTables",
    "StatRoundCounts",
    "StatisticalMatcher",
    "compile_stat_tables",
    "virtual_grant_pmf",
    "binomial_decoy_pmf",
    "cumulative_table",
    "grant_cdf_table",
]


#: Relative tolerance of the tail-sum sanity check in
#: :func:`virtual_grant_pmf`.  With log-space term evaluation each
#: term carries only a few ulp of error, so even the X = 10^4 tail
#: (thousands of terms) stays well inside 1e-12; a tail exceeding 1 by
#: more than this indicates a genuine formula bug rather than float
#: round-off.
_PMF_TAIL_TOLERANCE = 1e-12


def virtual_grant_pmf(x_ij: int, x_total: int) -> np.ndarray:
    """Conditional virtual-grant distribution for a granted input.

    Returns the vector ``p[m]`` for m = 0..x_ij with, per Appendix C::

        p[m] = C(x_ij, m) (1/X)^m ((X-1)/X)^(x_ij-m) * X / x_ij   (m >= 1)
        p[0] = 1 - sum(p[1:])

    so that grant-probability x_ij/X times this conditional equals the
    unconditional Binomial(x_ij, 1/X) for every m >= 1.

    Terms are evaluated in log space: the direct product overflows
    (``C(x_ij, m)`` exceeds float range around x_ij ~ 1030) and
    underflows (``(1/X)^m`` hits 0 near m ~ 308 for X = 10^4) long
    before the paper-scale allocations of X = 10^4 units, and the old
    ``p[0] = max(0.0, 1 - tail)`` clamp silently hid any tail-sum
    error those extremes produced.  The log-gamma form keeps every
    term finite, and the tail-sum check is correspondingly tightened
    to :data:`_PMF_TAIL_TOLERANCE`.
    """
    if x_ij < 1:
        raise ValueError(f"x_ij must be >= 1, got {x_ij}")
    if x_total < x_ij:
        raise ValueError(f"x_total ({x_total}) must be >= x_ij ({x_ij})")
    p = np.zeros(x_ij + 1)
    log_q = math.log1p(-1.0 / x_total) if x_total > 1 else -math.inf
    log_unit = math.log(x_total)  # log(1/X) = -log_unit
    log_scale = math.log(x_total) - math.log(x_ij)  # the X / x_ij factor
    lgamma = math.lgamma
    for m in range(1, x_ij + 1):
        log_comb = (
            lgamma(x_ij + 1) - lgamma(m + 1) - lgamma(x_ij - m + 1)
        )
        # 0 * log(0) would be nan for the x_total == 1, m == x_ij
        # corner; the mathematically-right value of q^0 is 1.
        log_tail_factor = (x_ij - m) * log_q if m < x_ij else 0.0
        log_term = log_comb - m * log_unit + log_tail_factor + log_scale
        p[m] = math.exp(log_term)
    tail = p[1:].sum()
    if tail > 1.0 + _PMF_TAIL_TOLERANCE:
        raise AssertionError(f"virtual-grant pmf exceeds 1: {tail}")
    p[0] = max(0.0, 1.0 - tail)
    return p


def binomial_decoy_pmf(slack: int, x_total: int) -> np.ndarray:
    """Binomial(slack, 1/X) pmf for the imaginary-output decoy draw.

    An under-reserved input holds ``slack = X - sum_j X[i, j]`` units
    on its imaginary output; each is granted independently with
    probability 1/X, so the decoy count is plain Binomial(slack, 1/X)
    (Appendix C).  Evaluated in log space like
    :func:`virtual_grant_pmf` so paper-scale X = 10^4 stays finite.
    """
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    if x_total < 1:
        raise ValueError(f"x_total must be >= 1, got {x_total}")
    p = np.zeros(slack + 1)
    if slack == 0:
        p[0] = 1.0
        return p
    log_q = math.log1p(-1.0 / x_total) if x_total > 1 else -math.inf
    log_unit = math.log(x_total)  # log(1/X) = -log_unit
    lgamma = math.lgamma
    for m in range(slack + 1):
        log_comb = lgamma(slack + 1) - lgamma(m + 1) - lgamma(slack - m + 1)
        # 0 * log(0) would be nan for the x_total == 1, m == slack
        # corner; the mathematically-right value of q^0 is 1.
        log_tail_factor = (slack - m) * log_q if m < slack else 0.0
        p[m] = math.exp(log_comb - m * log_unit + log_tail_factor)
    total = p.sum()
    if abs(total - 1.0) > _PMF_TAIL_TOLERANCE:
        raise AssertionError(f"decoy pmf does not sum to 1: {total}")
    return p


def cumulative_table(pmf: np.ndarray) -> np.ndarray:
    """Inverse-transform table for a pmf: the normalized cdf.

    ``np.searchsorted(cdf, u, side="right")`` with ``u ~ U[0, 1)``
    then draws from the pmf with one uniform: the final entry is
    exactly 1.0 (the cdf is divided by its last partial sum), so the
    index is always in range, and zero-mass entries -- whose cdf value
    ties the previous entry -- are never selected.
    """
    cdf = np.cumsum(np.asarray(pmf, dtype=float))
    if cdf[-1] <= 0.0:
        raise ValueError("pmf has no mass")
    return cdf / cdf[-1]


def grant_cdf_table(allocations: np.ndarray, units: int) -> np.ndarray:
    """Per-output grant cdf rows over inputs 0..N-1 plus the imaginary
    input at index N (the compiled form of the Section 5 'table
    lookup'): row j inverts ``P(output j grants input i) = X[i,j]/X``.
    """
    matrix = np.asarray(allocations, dtype=np.int64)
    n = matrix.shape[0]
    tables = np.zeros((n, n + 1))
    for j in range(n):
        col = matrix[:, j].astype(float) / units
        tables[j, :n] = col
        tables[j, n] = 1.0 - col.sum()
        tables[j] = cumulative_table(tables[j])
    return tables


@dataclass(frozen=True)
class CompiledStatTables:
    """The Section 5 'hardware tables' in batched-draw form.

    All cdf rows are produced by :func:`cumulative_table` over this
    module's pmfs.  The row matrices are padded with ``+inf`` so a
    vectorized right-searchsorted -- ``(rows <= u[:, None]).sum(axis=1)``
    -- never counts a padding entry.

    Attributes
    ----------
    ports, units:
        Switch size N and the allocation granularity X.
    grant_cdf:
        (N, N+1): row j inverts output j's grant distribution over
        inputs 0..N-1 plus the imaginary input at index N.
    virtual_cdf_rows, virtual_row:
        Stacked virtual-grant cdfs for every distinct positive
        allocation value; ``virtual_row[i, j]`` is the row index for
        pair (i, j), -1 where nothing is allocated (such a pair is
        never granted: its grant-cdf mass is zero).
    decoy_cdf_rows, decoy_row:
        Stacked Binomial(slack, 1/X) cdfs for every distinct positive
        slack; ``decoy_row[i]`` is input i's row, -1 when fully
        allocated.
    slack:
        (N,) imaginary-output units per input, ``X - sum_j X[i, j]``.
    """

    ports: int
    units: int
    grant_cdf: np.ndarray
    virtual_cdf_rows: np.ndarray
    virtual_row: np.ndarray
    decoy_cdf_rows: np.ndarray
    decoy_row: np.ndarray
    slack: np.ndarray


def _stack_cdf_rows(values, build) -> Tuple[np.ndarray, dict]:
    """Stack per-value cdfs into one +inf-padded row matrix."""
    cdfs = {value: build(value) for value in values}
    width = max((cdf.size for cdf in cdfs.values()), default=1)
    rows = np.full((max(len(cdfs), 1), width), np.inf)
    index = {}
    for row, (value, cdf) in enumerate(sorted(cdfs.items())):
        rows[row, : cdf.size] = cdf
        index[value] = row
    return rows, index


def compile_stat_tables(allocations: np.ndarray, units: int) -> CompiledStatTables:
    """Compile an allocation matrix into batched-draw tables.

    Validates the allocations: square, non-negative, every row and
    column sum at most ``units``.
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    matrix = np.asarray(allocations, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"allocations must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise ValueError("allocations must be non-negative")
    for axis, side in ((1, "input"), (0, "output")):
        sums = matrix.sum(axis=axis)
        if (sums > units).any():
            bad = int(np.argmax(sums > units))
            raise ValueError(
                f"{side} {bad} over-allocated: {int(sums[bad])} units > X = {units}"
            )
    n = matrix.shape[0]

    grant_cdf = grant_cdf_table(matrix, units)
    slack = units - matrix.sum(axis=1)

    alloc_values = sorted(int(x) for x in np.unique(matrix[matrix > 0]))
    virtual_rows, virtual_index = _stack_cdf_rows(
        alloc_values, lambda x: cumulative_table(virtual_grant_pmf(x, units))
    )
    virtual_row = np.full((n, n), -1, dtype=np.int64)
    for value, row in virtual_index.items():
        virtual_row[matrix == value] = row

    slack_values = sorted(int(s) for s in np.unique(slack[slack > 0]))
    decoy_rows, decoy_index = _stack_cdf_rows(
        slack_values, lambda s: cumulative_table(binomial_decoy_pmf(s, units))
    )
    decoy_row = np.full(n, -1, dtype=np.int64)
    for value, row in decoy_index.items():
        decoy_row[slack == value] = row

    return CompiledStatTables(
        ports=n,
        units=units,
        grant_cdf=grant_cdf,
        virtual_cdf_rows=virtual_rows,
        virtual_row=virtual_row,
        decoy_cdf_rows=decoy_rows,
        decoy_row=decoy_row,
        slack=slack,
    )


@dataclass(frozen=True)
class StatRoundCounts:
    """Pooled per-round anatomy of one batched matching round."""

    granted: int
    virtual: int
    decoys: int
    accepted: int
    kept: int
    matched: int


class BatchStatisticalMatcher(BatchScheduler):
    """Statistical matching for B replicas at once, on compiled tables.

    A :class:`repro.core.batch.BatchScheduler` kernel, and at B = 1
    the whole of :class:`StatisticalMatcher` as a switch scheduler:
    :meth:`schedule` draws the slot's lottery (:meth:`match`: ``rounds``
    per-grant grant/virtual-grant/accept rounds with the round-2+
    both-endpoints-unmatched filter, queue-oblivious), drops the
    matches no request backs (their reserved slot stays idle) and, with
    ``fill``, hands the ports left idle to a masked
    :class:`repro.core.pim.BatchPIMScheduler` of ``AN2_ITERATIONS``
    iterations (Section 5.2).  Draw order and the fill's own stream are
    as the module docstring sets them out.  An
    attached probe gets one ``stat_round`` event per round.

    ``stat_cells`` is the (B,) count of the last :meth:`schedule`
    call's matches that the lottery carried (the rest are the fill's).
    ``check``, set by ``run_fastpath_statistical(check=True)``, asserts
    on every call that no zero-allocation pair is granted and no fill
    match lands on a lottery-taken input or output (tests only).
    """

    name = "statistical"
    check = False

    def __init__(
        self,
        allocations: np.ndarray,
        units: int,
        rounds: int = 2,
        replicas: int = 1,
        seed: Optional[int] = None,
        fill: bool = False,
    ):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.tables = compile_stat_tables(allocations, units)
        super().__init__(replicas, self.tables.ports)
        self.units = self.tables.units
        self.rounds = rounds
        self.fill = fill
        # Imported lazily: repro.sim's package init pulls in the
        # fast-path simulators, which import this module back.
        from repro.sim.rng import default_seed, derive_seed

        if seed is None:
            seed = default_seed("statistical")
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # The fill draws from its own derived stream: the statistical
        # stream is untouched by the fill phase.
        self._fill: Optional[BatchPIMScheduler] = None
        if fill:
            self._fill = BatchPIMScheduler(
                replicas, self.ports, iterations=AN2_ITERATIONS,
                seed=derive_seed(seed, "statistical/fill"), track_sizes=False,
            )
        self.stat_cells = np.zeros(replicas, dtype=np.int64)
        self.set_tables(self.tables)

    def set_tables(self, tables: CompiledStatTables) -> None:
        """Draw from ``tables`` (same N and X) from the next round on.

        Both generators stay where they are.  The round invariants are
        derived here: the cdfs are stored entry-major, (entries, 1,
        ports), so counting ``cdf <= u`` down axis 0 inverts a whole
        (B, ports) block of draws; a grant's last entry, exactly
        1.0 > u (the imaginary input), is dropped.  Only inputs with
        slack draw decoys: ``_decoys`` keeps zeros for the rest.
        """
        self.tables = tables
        n, t = self.ports, tables
        self._grant_cdf = np.ascontiguousarray(t.grant_cdf[:, :n].T)[:, None, :]
        self._slack_idx = np.nonzero(t.slack > 0)[0]
        decoy_cdf = t.decoy_cdf_rows[t.decoy_row[self._slack_idx]]
        self._decoy_cdf = np.ascontiguousarray(decoy_cdf.T)[:, None, :]
        self._decoys = np.zeros((self.replicas, n), dtype=np.int64)

    def reset(self) -> None:
        """Rewind the lottery and fill generators to their as-constructed
        state and forget the last slot's ``stat_cells``."""
        self._rng = np.random.default_rng(self._seed)
        self.stat_cells = np.zeros(self.replicas, dtype=np.int64)
        if self._fill is not None:
            self._fill.reset()

    def _one_round(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int, int]:
        """One batched grant / virtual-grant / accept round.

        Returns ``(bb, ii, jj, granted, virtual_total, decoy_total)``:
        replica/input/output index arrays of the accepted pairs, in
        ascending (replica, input) order, plus the pooled counts for
        the ``stat_round`` trace event.
        """
        n = self.ports
        b = self.replicas
        t = self.tables
        rng = self._rng
        # Pass 1: every output grants one input (index N = imaginary).
        granted = (self._grant_cdf <= rng.random((b, n))).sum(axis=0).reshape(-1)
        # The real grants, one entry each, ascending (replica, output).
        # ``line`` is the granted input's line, b * N + i.
        flat = (granted < n).nonzero()[0]
        inputs = granted.take(flat)
        outputs = flat % n
        line = flat - outputs + inputs
        # Pass 2: granted inputs re-draw each grant as m virtual grants.
        u_virtual = rng.random(flat.size)
        rows = t.virtual_row.reshape(-1).take(inputs * n + outputs)
        if self.check and (rows < 0).any():
            raise AssertionError("granted a zero-allocation pair")
        m = (t.virtual_cdf_rows.T.take(rows, axis=1) <= u_virtual).sum(axis=0)
        real = np.zeros(b * n, dtype=np.int64)
        np.add.at(real, line, m)
        # Pass 3: under-reserved inputs draw Binomial(slack, 1/X)
        # decoys from their imaginary output (ascending input at B = 1).
        totals = real
        decoy_total = 0
        if self._slack_idx.size:
            u_decoy = rng.random((b, self._slack_idx.size))
            self._decoys[:, self._slack_idx] = (self._decoy_cdf <= u_decoy).sum(axis=0)
            decoy_total = int(self._decoys.sum())
            totals = real + self._decoys.reshape(-1)
        # Pass 4: each active input accepts one virtual grant
        # uniformly; a pick at or past its real grants is a decoy win.
        active = totals.nonzero()[0]
        picks = (rng.random(active.size) * totals.take(active)).astype(np.int64)
        won = (picks < real.take(active)).nonzero()[0]
        lines = active.take(won)
        # Sorted by line -- stably, so ascending output within a line --
        # one running sum of m holds every input's pick table, starting
        # where the lines before it end; the first entry past start +
        # pick is the accepted grant, never one with m = 0.
        order = line.argsort(kind="stable")
        cum = m.take(order).cumsum()
        start = real.cumsum()
        start -= real
        chosen = cum.searchsorted(start.take(lines) + picks.take(won), side="right")
        bb, ii = np.divmod(lines, n)
        jj = outputs.take(order.take(chosen))
        return bb, ii, jj, flat.size, int(m.sum()), decoy_total

    def match_with_counts(self) -> Tuple[np.ndarray, List[StatRoundCounts]]:
        """One slot's matching for all replicas, plus per-round counts.

        Returns ``(match, rounds)`` where ``match[b, i]`` is the output
        matched to input i of replica b (-1 unmatched) and ``rounds``
        holds one :class:`StatRoundCounts` per round (pooled over
        replicas) for trace emission and the differential harness.
        """
        n = self.ports
        b = self.replicas
        match = np.full(b * n, -1, dtype=np.int64)
        output_free = np.ones(b * n, dtype=bool)
        matched = 0
        per_round: List[StatRoundCounts] = []
        probe = self._probe
        for index in range(self.rounds):
            rb, ri, rj, granted, virtual_total, decoy_total = self._one_round()
            # Keep a round-2+ pair only when both endpoints are still
            # unmatched (pairs within a round never conflict: each
            # output grants once and each input accepts once).
            base = rb * n
            inputs = base + ri
            outputs = base + rj
            free = np.logical_and(
                match.take(inputs) < 0, output_free.take(outputs)
            ).nonzero()[0]
            match[inputs.take(free)] = rj.take(free)
            output_free[outputs.take(free)] = False
            matched += free.size
            per_round.append(
                StatRoundCounts(
                    granted=granted,
                    virtual=virtual_total,
                    decoys=decoy_total,
                    accepted=rb.size,
                    kept=free.size,
                    matched=matched,
                )
            )
            if probe is not None and probe.enabled:
                probe.stat_round(index, replicas=b, **vars(per_round[-1]))
        return match.reshape(b, n), per_round

    def match(self) -> np.ndarray:
        """(B, N) matched output per input (-1 unmatched) for one slot."""
        match, _ = self.match_with_counts()
        return match

    def schedule(
        self, requests: np.ndarray, occupancy: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One slot's lottery, dropped where unbacked, then the PIM fill."""
        batch = self._validate_batch(requests)
        match, _ = self.match_with_counts()
        sb, si = np.nonzero(match >= 0)
        sj = match[sb, si]
        backed = batch[sb, si, sj]
        match[sb, si] = np.where(backed, sj, -1)
        sb, si, sj = sb[backed], si[backed], sj[backed]
        self.stat_cells = np.bincount(sb, minlength=self.replicas)
        if self._fill is None:
            return match
        # The lottery's ports are off the table for the fill.
        residual = batch.copy()
        residual[sb, si, :] = False
        residual[sb, :, sj] = False
        fill = self._fill.schedule(residual)
        if self.check:
            if (fill[sb, si] >= 0).any():
                raise AssertionError("fill matched a statistical-taken input")
            taken = np.zeros((self.replicas, self.ports), dtype=bool)
            taken[sb, sj] = True
            fb, fi = np.nonzero(fill >= 0)
            if taken[fb, fill[fb, fi]].any():
                raise AssertionError("fill matched a statistical-taken output")
        # Lottery-taken inputs were masked, so at most one side of each
        # entry is matched and the maximum merges the two.
        return np.maximum(match, fill, out=match)

    def __repr__(self) -> str:
        return (
            f"BatchStatisticalMatcher(ports={self.ports}, units={self.units}, "
            f"rounds={self.rounds}, replicas={self.replicas})"
        )


class StatisticalMatcher(ObjectScheduler):
    """Statistical matching over an integer allocation matrix.

    The :class:`~repro.core.batch.ObjectScheduler` around a one-replica
    :class:`BatchStatisticalMatcher`, built at construction (the
    allocations fix N): every draw, table and the fill's derived stream
    are the kernel's, and ``reset()`` rewinds both streams.

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
        are filled with ``AN2_ITERATIONS`` of ordinary PIM over the
        remaining requests (Section 5.2: "Any slot not used by
        statistical matching can be filled with other traffic by
        parallel iterative matching").

    The matcher can be used standalone (:meth:`match`, no queue state
    needed -- useful for the Appendix C throughput bench) or as a
    switch scheduler (:meth:`schedule`, which drops statistical matches
    that have no queued cell and then PIM-fills).  While a probe is
    attached, every slot emits one ``stat_round`` event per round --
    the series the differential harness diffs against the fast path.
    """

    def __init__(
        self,
        allocations: np.ndarray,
        units: int,
        rounds: int = 2,
        seed: Optional[int] = None,
        fill: bool = False,
    ):
        self._alloc = np.array(allocations, dtype=np.int64)
        if not len(self._alloc):  # no kernel to build: validate here
            compile_stat_tables(self._alloc, units)
        super().__init__(
            "statistical",
            ports=len(self._alloc),
            kernel=lambda ports: BatchStatisticalMatcher(
                self._alloc, units, rounds, seed=seed, fill=fill
            ),
        )

    @property
    def allocations(self) -> np.ndarray:
        """Copy of the allocation matrix."""
        return self._alloc.copy()

    def set_allocation(self, input_port: int, output_port: int, allocation_units: int) -> None:
        """Change one connection's rate.

        This is the operation statistical matching makes cheap: "only
        the input and output ports used by a flow need be informed of a
        change in its rate" (Section 5.2).  The kernel's tables are
        recompiled in place; an infeasible change raises before
        anything changes, and both streams stay where they are.
        """
        if allocation_units < 0:
            raise ValueError("allocation must be non-negative")
        trial = self._alloc.copy()
        trial[input_port, output_port] = allocation_units
        tables = compile_stat_tables(trial, self.units)
        self._alloc = trial
        self._kernel.set_tables(tables)

    def match(self) -> Matching:
        """Compute one slot's statistical matching (no queue state).

        Round 2 (and later) matches are kept only when both endpoints
        were left unmatched by earlier rounds; per Appendix C, a
        round-2 conflict with an *imaginary* match does not discard the
        round-2 pair (imaginary matches leave the port physically idle).
        """
        if self._kernel is None:  # no ports, nothing to draw
            return Matching.empty()
        return Matching.from_match_array(self._kernel.match()[0])
