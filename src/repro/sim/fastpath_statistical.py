"""Batched fast path for Statistical Matching (Section 5, Appendix C).

The object model (:class:`repro.core.statistical.StatisticalMatcher`)
draws one slot's grant/virtual-grant/accept lottery with Python loops;
every Appendix C throughput point and Figure 8 fairness share is a
Monte-Carlo average over thousands of such slots.  This module runs
**B independent replicas** of the lottery at once on compiled tables:

- the per-output grant tables become cumulative arrays
  (:func:`repro.core.statistical.grant_cdf_table`), and one count of
  ``cdf <= u`` inverts all B * N grant draws of a round at once;
- the cached :func:`~repro.core.statistical.virtual_grant_pmf` and
  :func:`~repro.core.statistical.binomial_decoy_pmf` tables are
  stacked into padded cdf-row matrices, so virtual-grant counts and
  imaginary-output decoys are batched draws too;
- a round works per *grant*, not per cell: the real grants are one
  flat list, ascending (replica, output); an input's total is a
  scatter-add over its line, and the accept pick is one stable sort
  of the grants by line, one running sum of their virtual-grant
  counts and one binary search per active input (a pick at or past
  the line's real grants is a decoy win: the input stays unmatched);
- ``rounds`` independent rounds run per slot, keeping round-2+ pairs
  only where both endpoints are still unmatched;
- with ``fill=True`` the residual requests go to the existing
  :class:`repro.core.pim.BatchPIMScheduler` with statistical-taken
  ports masked out.

Seed-for-seed parity: the object matcher consumes its generator in
four fixed-order uniform passes (see
:meth:`StatisticalMatcher._one_round`), and the batched draws here
flatten in exactly that order (row-major over (replica, port)), so at
B = 1 with a shared seed the two backends agree draw for draw -- the
contract :func:`repro.check.differential.statistical_parity` checks
per slot.  At B > 1 the batch consumes one coherent stream; replicas
are not individually object-matched (the PIM fast path's convention).

**Stream decoupling**: the fill phase draws from a stream derived as
``derive_seed(match_seed, "statistical/fill")`` -- the same derivation
the object matcher uses -- so the statistical draws are identical
whether filling is enabled or not, preserving the object model's
metamorphic invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchScheduler
from repro.core.pim import AN2_ITERATIONS, BatchPIMScheduler
from repro.core.statistical import (
    StatisticalMatcher,
    binomial_decoy_pmf,
    cumulative_table,
    grant_cdf_table,
    virtual_grant_pmf,
)
from repro.obs.perf import NULL_PHASE_TIMER
from repro.sim.fastpath import (
    FastpathCrossbar,
    FastpathResult,
    PoolLedger,
    check_window,
    run_slots,
    uniform_arrivals,
)
from repro.sim.rng import RandomStreams, default_seed, derive_seed

__all__ = [
    "CompiledStatTables",
    "compile_stat_tables",
    "BatchStatisticalMatcher",
    "StatRoundCounts",
    "StatFastpathResult",
    "run_fastpath_statistical",
    "match_counts",
]


@dataclass(frozen=True)
class CompiledStatTables:
    """The Section 5 'hardware tables' in batched-draw form.

    All cdf rows are produced by
    :func:`repro.core.statistical.cumulative_table` over the same pmfs
    the object matcher caches, so both backends invert bitwise
    identical arrays.  The row matrices are padded with ``+inf`` so a
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

    Validates exactly like :class:`StatisticalMatcher` (square,
    non-negative, every row/column sum at most ``units``).
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    matrix = np.asarray(allocations, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"allocations must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise ValueError("allocations must be non-negative")
    StatisticalMatcher._check_feasible(matrix, units)
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

    A :class:`repro.core.batch.BatchScheduler` kernel, the batched twin
    of :class:`StatisticalMatcher` as a switch scheduler:
    :meth:`schedule` draws the slot's lottery (:meth:`match`: ``rounds``
    per-grant grant/virtual-grant/accept rounds with the round-2+
    both-endpoints-unmatched filter, queue-oblivious), drops the
    matches no request backs (their reserved slot stays idle) and, with
    ``fill``, hands the ports left idle to a masked
    :class:`repro.core.pim.BatchPIMScheduler` of ``AN2_ITERATIONS``
    iterations (Section 5.2).  Draw order and the fill's own stream are
    the module docstring's parity and decoupling contracts.  An
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
        if seed is None:
            seed = default_seed("statistical")
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # Same derivation as the object matcher's _fill_rng: the
        # statistical stream is untouched by the fill phase.
        self._fill: Optional[BatchPIMScheduler] = None
        if fill:
            self._fill = BatchPIMScheduler(
                replicas, self.ports, iterations=AN2_ITERATIONS,
                seed=derive_seed(seed, "statistical/fill"), track_sizes=False,
            )
        self.stat_cells = np.zeros(replicas, dtype=np.int64)
        # Round invariants.  The cdfs are stored entry-major, (entries,
        # 1, ports), so counting ``cdf <= u`` down axis 0 inverts a
        # whole (B, ports) block of draws; a grant's last entry, exactly
        # 1.0 > u (the imaginary input), is dropped.  Only inputs with
        # slack draw decoys: ``_decoys`` keeps zeros for the rest.
        n, t = self.ports, self.tables
        self._grant_cdf = np.ascontiguousarray(t.grant_cdf[:, :n].T)[:, None, :]
        self._slack_idx = np.nonzero(t.slack > 0)[0]
        decoy_cdf = t.decoy_cdf_rows[t.decoy_row[self._slack_idx]]
        self._decoy_cdf = np.ascontiguousarray(decoy_cdf.T)[:, None, :]
        self._decoys = np.zeros((replicas, n), dtype=np.int64)

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
        # The real grants, one entry each, ascending (replica, output):
        # the object matcher's ascending-output loop at B = 1.  ``line``
        # is the granted input's line, b * N + i.
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


@dataclass
class StatFastpathResult(FastpathResult):
    """A :class:`FastpathResult` plus the statistical/fill cell split.

    ``stat_cells`` / ``fill_cells`` are (B,) departure counts inside
    the measurement window carried by the statistical matching and by
    the PIM fill phase respectively (their sum is ``carried_cells``).
    """

    stat_cells: Optional[np.ndarray] = None
    fill_cells: Optional[np.ndarray] = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        base = super().summary()
        if self.stat_cells is None:
            return base
        return (
            f"{base}, statistical {int(self.stat_cells.sum())} / "
            f"fill {int(self.fill_cells.sum())} cells"
        )


class _SplitLedger(PoolLedger):
    """A crossbar ledger that also tallies the lottery's share of each
    in-window slot's departures, as the matcher reports it."""

    def __init__(self, matcher: BatchStatisticalMatcher, pool, warmup_mode: str):
        super().__init__(pool, warmup_mode, by_port=True)
        self._matcher = matcher
        self.stat_cells = np.zeros(matcher.replicas, dtype=np.int64)

    def update(self, counts, departed) -> None:
        super().update(counts, departed)
        self.stat_cells += self._matcher.stat_cells


def run_fastpath_statistical(
    allocations: np.ndarray,
    units: int,
    load: float,
    slots: int,
    rounds: int = 2,
    fill: bool = True,
    replicas: int = 1,
    warmup: int = 0,
    seed: int = 0,
    match_seed: Optional[int] = None,
    arrival_seeds: Optional[Sequence[Optional[int]]] = None,
    drain_slots: int = 0,
    check: bool = False,
    probe=None,
    warmup_mode: str = "slot",
    phase_timer=None,
) -> StatFastpathResult:
    """Simulate B replicas of a statistically-matched crossbar.

    :class:`repro.sim.fastpath.FastpathCrossbar` stepping a
    :class:`BatchStatisticalMatcher` kernel -- the slot anatomy of
    ``CrossbarSwitch`` running a ``StatisticalMatcher(fill=...)``
    scheduler: arrivals land, the statistical lottery draws a matching,
    matches with no queued cell are dropped (the reserved slot is
    idle), and -- when ``fill`` is on -- the remaining requests go to a
    masked batched PIM over the untaken ports.

    Parameters
    ----------
    allocations, units, rounds:
        The :class:`StatisticalMatcher` configuration.
    load, slots:
        Per-link Bernoulli offered load of the (VBR) traffic and the
        number of arrival-carrying slots.
    fill:
        Enable the Section 5.2 PIM fill phase.
    replicas, warmup, warmup_mode, drain_slots, arrival_seeds, check,
    phase_timer:
        As :func:`repro.sim.fastpath.run_fastpath` (``run/compile`` is
        the table compilation, ``run/kernel`` the lottery plus fill).
    seed:
        Root seed for the arrival streams ("fastpath/arrivals").
    match_seed:
        Seed of the statistical lottery; defaults to a stream derived
        from ``seed``.  Matches the object model's seeding: the fill
        phase always draws from ``derive_seed(match_seed,
        "statistical/fill")``, so the statistical draws are identical
        with fill on or off, and a ``StatisticalMatcher(seed=
        match_seed)`` consumes the same stream draw for draw (the B = 1
        parity contract).
    probe:
        Optional :class:`repro.obs.probe.Probe`.  Every enabled slot
        emits ``SlotBegin``, one ``StatRound`` per matching round
        (counts pooled over replicas), and ``CrossbarTransfer``; slots
        selected by the probe's stride add a pooled ``VoqSnapshot``.

    Returns a :class:`StatFastpathResult`.
    """
    check_window(load, slots, drain_slots, warmup, warmup_mode)
    timer = phase_timer or NULL_PHASE_TIMER
    with timer.phase("run"):
        with timer.phase("compile"):
            if match_seed is None:
                match_seed = derive_seed(seed, "fastpath/statistical")
            matcher = BatchStatisticalMatcher(
                allocations, units, rounds=rounds, replicas=replicas,
                seed=match_seed, fill=fill,
            )
            matcher.check = check
            switch = FastpathCrossbar(matcher.ports, replicas, matcher)
            source = uniform_arrivals(
                matcher.ports, replicas, load, arrival_seeds,
                RandomStreams(seed).get("fastpath/arrivals"),
            )
        ledger = _SplitLedger(matcher, switch.occupancy, warmup_mode)
        totals = run_slots(
            switch, [source], [ledger], slots, drain_slots, warmup,
            check=check, probe=probe, timer=timer,
        )
    if probe is not None:
        probe.phase_profile(timer, *totals)
    return StatFastpathResult.from_ledger(
        switch, ledger, slots, drain_slots, warmup,
        stat_cells=ledger.stat_cells,
        fill_cells=ledger.carried - ledger.stat_cells,
    )


def match_counts(
    allocations: np.ndarray,
    units: int,
    rounds: int = 2,
    trials: int = 1000,
    replicas: int = 64,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Accumulate matched-pair counts over many queue-less lotteries.

    Runs ``ceil(trials / replicas)`` batched slots and counts how often
    each (input, output) pair was matched -- the fast-path equivalent
    of looping ``StatisticalMatcher.match()`` ``trials`` times, which
    is what the Appendix C throughput and Figure 8 fairness benches
    measure.  Returns ``(counts, samples)`` where ``counts`` is the
    (N, N) tally and ``samples >= trials`` is the number of lotteries
    actually drawn (always a multiple of ``replicas``).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    matcher = BatchStatisticalMatcher(
        allocations, units, rounds=rounds, replicas=replicas, seed=seed
    )
    n = matcher.ports
    counts = np.zeros(n * n, dtype=np.int64)
    batches = -(-trials // replicas)
    for _ in range(batches):
        match = matcher.match()
        bb, ii = np.nonzero(match >= 0)
        jj = match[bb, ii]
        counts += np.bincount(ii * n + jj, minlength=n * n)
    return counts.reshape(n, n), batches * replicas
