"""Batched fast path for Statistical Matching (Section 5, Appendix C).

:func:`run_fastpath_statistical` steps
:class:`repro.sim.fastpath.FastpathCrossbar` with the lottery kernel
:class:`repro.core.statistical.BatchStatisticalMatcher` over B
independent replicas, and :func:`match_counts` tallies queue-less
lotteries for the Appendix C throughput and Figure 8 fairness numbers.
The kernel, its compiled tables (:func:`compile_stat_tables`) and its
per-round counts are re-exported from :mod:`repro.core.statistical`.

Seed-for-seed parity: the object matcher
(:class:`repro.core.statistical.StatisticalMatcher`) is the B = 1 call
of the same kernel, so at B = 1 with a shared seed it consumes the
generator of this fast path draw for draw by construction -- the
contract :func:`repro.check.differential.statistical_parity` checks per
slot through the two slot loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.statistical import (
    BatchStatisticalMatcher,
    CompiledStatTables,
    StatRoundCounts,
    compile_stat_tables,
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
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "CompiledStatTables",
    "compile_stat_tables",
    "BatchStatisticalMatcher",
    "StatRoundCounts",
    "StatFastpathResult",
    "run_fastpath_statistical",
    "match_counts",
]


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

    def update(self, cells, departed) -> None:
        super().update(cells, departed)
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
        from ``seed``.  At B = 1 a ``StatisticalMatcher(seed=match_seed)``
        is the same kernel on the same streams (the parity contract).
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
    is what the Appendix C throughput and Figure 8 fairness claims
    (``tests/claims/test_appendix_c.py``, ``tests/claims/test_fig8.py``)
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
