"""Seed-matched differential runs and cross-scheduler metamorphic checks.

Every object-vs-fastpath oracle here has the same four parts: the model
set-up, one run per backend on seed-matched inputs, a *projection* of
each run onto the same named series -- integer arrays whose rows are
slots, end-of-run totals as one-row series -- and one call to
:func:`diff_series`, which raises
:class:`~repro.check.invariants.InvariantViolation` at the first
divergent (slot, series, index) with both values.

- :func:`backend_parity` -- the Section 3 crossbar over the whole
  configuration space the fast path supports (every batched kernel,
  iterations including run-to-convergence, accept policy, output
  capacity);
- :func:`scenario_parity` -- the crossbar driven by a named flow-level
  scenario, down to the per-flow (size, FCT) samples;
- :func:`integrated_parity` -- the Section 4 CBR frame plus VBR fill;
- :func:`statistical_parity` -- the Section 5 lottery, round by round;
- :func:`fabric_parity` / :func:`network_parity` -- the multi-switch
  network, per flow and per switch.

The projections are where an oracle says what must agree.  One is
deliberately weaker than slot-exact, and says so where it is built:
scenario delay sums are compared only on drained runs with
``warmup == 0``.

Two metamorphic checks compare a backend with itself:

- :func:`metamorphic_statistical_fill` -- Section 5.2's "any slot not
  used by statistical matching can be filled" must never *lose* cells:
  a ``fill=True`` matcher carries at least as much as ``fill=False``
  with the same seed on the same arrivals.  This is exact (slack 0):
  the statistical draws consume a stream decoupled from the PIM fill
  (see :class:`repro.core.statistical.StatisticalMatcher`), so both
  runs see identical statistical matchings and filling can only remove
  additional cells -- occupancy is pointwise dominated.
- :func:`metamorphic_pim_iterations` -- more PIM iterations must not
  carry (meaningfully) less on the same arrivals.  PIM-k vs PIM-1 is
  not sample-wise monotone (different random draws), so the check
  allows a small slack, defaulting to one cell per port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cbr.integrated import IntegratedSwitch
from repro.cbr.reservations import ReservationTable
from repro.check.invariants import InvariantViolation
from repro.core.batch import build_object_scheduler
from repro.core.pim import PIMScheduler
from repro.core.statistical import StatisticalMatcher
from repro.network.netsim import FlowSpec, NetworkSimulator
from repro.network.topologies import build
from repro.obs.perf import NULL_PHASE_TIMER
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink
from repro.sim.fastpath import run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_network import run_fastpath_network
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.sim.rng import derive_seed
from repro.switch.cell import ServiceClass
from repro.switch.fabric import ReplicatedBanyanFabric
from repro.switch.flow import Flow
from repro.switch.switch import CrossbarSwitch
from repro.traffic.cbr_source import CBRSource
from repro.traffic.flows import WindowedSource
from repro.traffic.scenarios import get_scenario
from repro.traffic.uniform import UniformTraffic

__all__ = [
    "DifferentialReport",
    "ScenarioParityReport",
    "backend_parity",
    "diff_series",
    "fabric_parity",
    "integrated_parity",
    "metamorphic_pim_iterations",
    "metamorphic_statistical_fill",
    "network_parity",
    "scenario_parity",
    "statistical_parity",
]

#: A run projected for the differ: series name -> integer array-like
#: whose rows are slots (one row: an end-of-run total).
Series = Dict[str, object]


@dataclass
class DifferentialReport:
    """Outcome of one differential or metamorphic check."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class ScenarioParityReport(DifferentialReport):
    """Scenario parity outcome plus both backend results.

    Carrying the results lets callers (CLI smoke, examples) print the
    per-flow FCT tables without paying for a second run.
    """

    object_result: object = None
    fast_result: object = None


def _rows(values) -> np.ndarray:
    """A series as a 2-D (rows, entries per row) array."""
    array = np.asarray(values)
    return array.reshape(array.shape[0], math.prod(array.shape[1:]))


def diff_series(check: str, name: str, object_series: Series, fast_series: Series) -> None:
    """Raise at the first divergent (slot, series, index) of two projected runs.

    Both projections name the same series in the same order.  The
    earliest divergent slot over all per-slot series wins, ties going to
    the series named first; a one-row series is an end-of-run total,
    reported only when no per-slot series diverges.  A row or entry that
    only one backend has is a divergence, so a length mismatch is one.
    The :class:`InvariantViolation` names ``check`` and carries both
    values.
    """
    first = None
    for order, key in enumerate(object_series):
        a, b = _rows(object_series[key]), _rows(fast_series[key])
        rows, width = min(len(a), len(b)), min(a.shape[1], b.shape[1])
        differs = np.ones((max(len(a), len(b)), max(a.shape[1], b.shape[1])), bool)
        differs[:rows, :width] = a[:rows, :width] != b[:rows, :width]
        if differs.any():
            row, index = np.argwhere(differs)[0]
            rank = (len(differs) == 1, row, order)
            if first is None or rank < first[0]:
                first = (rank, key, index, a, b, differs.shape[1])
    if first is None:
        return
    (total, row, _), key, index, a, b, width = first

    def value(series):
        inside = row < len(series) and index < series.shape[1]
        return series[row, index] if inside else "absent"

    where = "end of run" if total else f"slot {row}"
    at = f"[{index}]" if width > 1 else ""
    raise InvariantViolation(
        check,
        f"{name}: first divergence at {where}, {key}{at}: "
        f"object {value(a)} fastpath {value(b)}",
    )


def _event_series(sink: InMemorySink, kind: str, fields: Sequence[str]) -> Series:
    """Per-slot event counts and field sums of one trace event kind.

    The one per-slot projection of a probe's trace: ``"<kind> events"``
    counts the events of each slot and ``"<kind>.<field>"`` sums each
    field, one row per slot.  An event's ``round_index`` (``StatRound``)
    picks its column; every other kind has a single column.
    """
    events = sink.of_kind(kind)
    slot = np.array([e.slot for e in events], dtype=np.int64)
    column = np.array([getattr(e, "round_index", 0) for e in events], dtype=np.int64)
    shape = (slot.max(initial=-1) + 1, column.max(initial=0) + 1)
    values = {f"{kind} events": 1}
    for field in fields:
        values[f"{kind}.{field}"] = [getattr(e, field) for e in events]
    series = {}
    for key, value in values.items():
        series[key] = np.zeros(shape, dtype=np.int64)
        np.add.at(series[key], (slot, column), value)
    return series


def _crossbar_series(sink: InMemorySink) -> Series:
    """A crossbar run: arrivals per slot, matches per slot, and cells carried."""
    series = _event_series(sink, "slot_begin", ("arrivals",))
    series.update(_event_series(sink, "crossbar_transfer", ("cells",)))
    series["carried"] = [series["crossbar_transfer.cells"].sum()]
    return series


def _delay_sums(stats) -> tuple:
    """(sum of delays, cell count) from a DelayStats histogram.

    Integer-exact, so it can be compared against the fast path's
    Little's-law ``delay_integral`` / ``delay_cells`` counters without
    Welford floating-point noise.
    """
    histogram = stats.histogram()
    return (
        sum(delay * count for delay, count in histogram.items()),
        sum(histogram.values()),
    )


def backend_parity(
    ports: int,
    load: float,
    slots: int,
    seed: int = 0,
    drain_slots: Optional[int] = None,
    iterations: Optional[int] = 4,
    accept: str = "random",
    output_capacity: int = 1,
    scheduler: str = "pim",
    phase_timer=None,
) -> DifferentialReport:
    """Object vs fast path on seed-matched arrivals; raises on divergence.

    All three streams (traffic, object matching, fast matching) are
    derived from ``seed`` so one integer replays the whole comparison.
    Both runs start empty and append ``drain_slots`` arrival-free slots
    (the object side through :class:`~repro.traffic.flows.WindowedSource`),
    so lossless switches drained to empty carry exactly what was offered.

    ``scheduler`` picks the batched kernel by registry name
    (``repro.core.BATCH_SCHEDULERS``).  The object side is built as the
    *seed-matched twin* of the fast path's kernel (same stream the fast
    path derives internally: ``derive_seed(fast_match_seed,
    "fastpath/<name>")``), and the B=1 parity convention makes the
    projection arrivals and matched cells on every slot.  With
    ``output_capacity > 1`` the object switch runs on a replicated
    fabric with a matching ``speedup``.

    ``phase_timer``, when given an enabled
    :class:`repro.obs.perf.PhaseTimer`, profiles the check under a
    ``parity`` root span with ``parity/object`` / ``parity/fastpath``
    children (each backend's own phase breakdown nested below), so
    slow parity sweeps report where the wall time went.
    """
    if drain_slots is None:
        # Enough to flush any backlog a stable run accumulates.
        drain_slots = max(200, slots)
    timer = (
        phase_timer
        if phase_timer is not None and phase_timer.enabled
        else NULL_PHASE_TIMER
    )
    traffic_seed = derive_seed(seed, "check/traffic")
    fast_match_seed = derive_seed(seed, "check/fast-match")
    # Reconstruct the exact stream run_fastpath will inject
    # (RandomStreams(fast_match_seed).get("fastpath/<name>")) so the
    # object twin consumes draw-for-draw the same uniforms.
    object_scheduler = build_object_scheduler(
        scheduler,
        iterations=iterations,
        accept=accept,
        seed=derive_seed(fast_match_seed, f"fastpath/{scheduler}"),
        output_capacity=output_capacity,
        ports=ports,
    )
    fabric = (
        ReplicatedBanyanFabric(ports, copies=output_capacity)
        if output_capacity > 1
        else None
    )
    switch = CrossbarSwitch(
        ports, object_scheduler, fabric=fabric, speedup=output_capacity
    )
    sinks = InMemorySink(), InMemorySink()
    with timer.phase("parity"):
        with timer.phase("object"):
            switch.run(
                WindowedSource(UniformTraffic(ports, load=load, seed=traffic_seed), slots),
                slots=slots + drain_slots,
                probe=Probe(sinks[0]),
                phase_timer=timer,
            )
        with timer.phase("fastpath"):
            run_fastpath(
                ports,
                load,
                slots,
                replicas=1,
                iterations=iterations,
                accept=accept,
                output_capacity=output_capacity,
                scheduler=scheduler,
                seed=fast_match_seed,
                arrival_seeds=[traffic_seed],
                drain_slots=drain_slots,
                probe=Probe(sinks[1]),
                phase_timer=timer,
            )
        object_series, fast_series = (_crossbar_series(sink) for sink in sinks)
        name = (
            f"backend-parity(N={ports}, load={load}, sched={scheduler}, "
            f"iter={iterations}, accept={accept}, cap={output_capacity}, "
            f"seed={seed})"
        )
        diff_series("backend-parity", name, object_series, fast_series)
    detail = (
        f"{slots + drain_slots} slots, arrivals identical per slot, "
        f"matches identical per slot ({int(fast_series['carried'][0])} cells carried)"
    )
    return DifferentialReport(name=name, ok=True, detail=detail)


def _random_allocations(
    ports: int, units: int, rng: np.random.Generator, fraction: float = 0.75
) -> np.ndarray:
    """A random feasible allocation matrix (row/col sums <= units).

    Built as a sum of random permutation matrices -- each adds one
    unit to every row and column sum, so ``k`` permutations allocate
    exactly ``k`` of the ``units`` per link.
    """
    k = max(1, int(units * fraction))
    alloc = np.zeros((ports, ports), dtype=np.int64)
    for _ in range(k):
        perm = rng.permutation(ports)
        alloc[np.arange(ports), perm] += 1
    return alloc


def scenario_parity(
    scenario: str,
    scheduler: str = "islip",
    slots: int = 300,
    seed: int = 0,
    warmup: int = 0,
    drain_slots: Optional[int] = None,
    iterations: Optional[int] = 4,
    ports: Optional[int] = None,
    load: Optional[float] = None,
) -> "ScenarioParityReport":
    """Object vs fast path on a named flow-level scenario.

    Both backends are driven by identically-seeded
    :class:`repro.traffic.flows.FlowTraffic` sources built from the
    named scenario (the rerun contract makes two same-seed sources
    trace-identical), so the offered traffic is byte-identical: arrivals
    per slot and per input, and offered totals, are always compared.

    The object scheduler is the seed-matched twin of the batched kernel
    (the B=1 slot-exact parity convention), so the *whole trajectory*
    coincides and the projection adds, all as exact integers: matched
    cells per slot, carried totals, per-output departure counts, delay
    sums (over a drained run with ``warmup`` 0 -- see the inline note),
    and the full per-flow (size, FCT) sample list plus incomplete
    counts.

    Raises :class:`InvariantViolation` on any mismatch; returns a
    :class:`ScenarioParityReport` carrying both results so callers can
    print FCT tables without re-running.
    """
    spec = get_scenario(scenario)
    if drain_slots is None:
        # Flow tails are long (heavy-tailed sizes, incast bursts), so
        # leave generous room to drain -- the checks below verify it.
        drain_slots = max(600, 2 * slots)
    traffic_seed = derive_seed(seed, "check/scenario-traffic")
    fast_match_seed = derive_seed(seed, "check/fast-match")
    name = (
        f"scenario-parity({scenario}, sched={scheduler}, slots={slots}, "
        f"warmup={warmup}, seed={seed})"
    )
    n = ports if ports is not None else spec.ports
    object_scheduler = build_object_scheduler(
        scheduler,
        iterations=iterations,
        # The twin reconstructs the exact stream run_fastpath injects
        # into the batched kernel: draw-for-draw identical.
        seed=derive_seed(fast_match_seed, f"fastpath/{scheduler}"),
        ports=n,
    )
    sinks = InMemorySink(), InMemorySink()
    object_source = spec.build_source(traffic_seed, ports=ports, load=load)
    object_result = CrossbarSwitch(n, object_scheduler).run(
        WindowedSource(object_source, slots),
        slots=slots + drain_slots,
        warmup=warmup,
        probe=Probe(sinks[0]),
    )
    fast_result = run_fastpath(
        n,
        load if load is not None else spec.load,
        slots,
        replicas=1,
        warmup=warmup,
        iterations=iterations,
        scheduler=scheduler,
        seed=fast_match_seed,
        sources=[spec.build_source(traffic_seed, ports=ports, load=load)],
        drain_slots=drain_slots,
        warmup_mode="arrival",
        check=True,
        probe=Probe(sinks[1]),
    )
    drained = (
        object_result.backlog == 0 and int(fast_result.final_backlog.sum()) == 0
    )

    def project(sink, offered, by_input, carried, by_output, delay, fct) -> Series:
        series = _crossbar_series(sink)
        series["offered cells"] = [offered]
        series["arrivals by input"] = [by_input]
        series["carried cells"] = [carried]
        series["departures by output"] = [by_output]
        if drained and warmup == 0:
            # At warmup 0 the per-cell delay sum equals the occupancy
            # integral regardless of intra-VOQ service order, so the
            # comparison is exact.  With warmup > 0 the fast path's
            # legacy-occupancy exclusion assumes per-VOQ FIFO draining,
            # which round-robin service over multi-flow VOQs breaks:
            # *which* cells straddle the boundary then differs between
            # the accountings even though every trajectory matches.
            series["delay (sum, cells)"] = [delay]
        series["per-flow (size, fct) samples"] = [np.ravel(fct.observations())]
        series["incomplete/warm-discarded flows"] = [
            [fct.incomplete, fct.warm_discarded]
        ]
        return series

    diff_series(
        "scenario-parity",
        name,
        project(
            sinks[0],
            object_result.counter.offered,
            object_result.arrivals_by_input,
            object_result.counter.carried,
            object_result.departures_by_output,
            _delay_sums(object_result.delay),
            object_result.fct,
        ),
        project(
            sinks[1],
            fast_result.offered_cells.sum(),
            fast_result.arrivals_by_input[0],
            fast_result.carried_cells.sum(),
            fast_result.departures_by_output[0],
            (fast_result.delay_integral.sum(), fast_result.delay_cells.sum()),
            fast_result.fct,
        ),
    )
    carried, fct = object_result.counter.carried, fast_result.fct
    detail = (
        f"slot-exact ({carried} cells"
        + (
            ", drained delay sums match"
            if drained and warmup == 0
            else (", drained" if drained else ", undrained")
        )
        + f"); {fct.summary()}"
    )
    return ScenarioParityReport(
        name=name,
        ok=True,
        detail=detail,
        object_result=object_result,
        fast_result=fast_result,
    )


def integrated_parity(
    ports: int,
    frame_slots: int,
    utilization: float,
    vbr_load: float,
    slots: int,
    seed: int = 0,
    warmup: int = 0,
    drain_slots: Optional[int] = None,
    iterations: Optional[int] = 4,
) -> DifferentialReport:
    """Object vs fast path on the integrated CBR+VBR switch.

    Builds a random feasible reservation table (one flow per reserved
    connection, so per-VOQ FIFO holds and the comparison is exact in
    both warmup modes), runs :class:`IntegratedSwitch` and
    :func:`repro.sim.fastpath_cbr.run_fastpath_cbr` on seed-matched
    arrivals and matchings, and compares:

    - the per-slot ``CbrSlot`` series (reserved pairings, CBR
      departures, VBR departures, donated count, both pool backlogs);
    - per-class delay statistics as integer (sum, count) pairs;
    - the used/donated/peak counters and the resolved Appendix B bound.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    if drain_slots is None:
        drain_slots = max(200, slots)
    name = (
        f"integrated-parity(N={ports}, F={frame_slots}, util={utilization}, "
        f"vbr={vbr_load}, warmup={warmup}, seed={seed})"
    )

    # Random feasible reservations: sum of permutation matrices, one
    # flow per reserved connection.
    alloc_rng = np.random.default_rng(derive_seed(seed, "check/cbr-allocations"))
    matrix = _random_allocations(
        ports, frame_slots, alloc_rng, fraction=utilization
    )
    table = ReservationTable(ports, frame_slots)
    for flow_id, (i, j) in enumerate(zip(*np.nonzero(matrix)), start=1):
        table.admit(
            Flow(
                flow_id=flow_id,
                src=int(i),
                dst=int(j),
                service=ServiceClass.CBR,
                cells_per_frame=int(matrix[i, j]),
            )
        )

    traffic_seed = derive_seed(seed, "check/cbr-vbr-traffic")
    match_seed = derive_seed(seed, "check/cbr-match")
    sinks = InMemorySink(), InMemorySink()
    object_result = IntegratedSwitch(
        table, scheduler=PIMScheduler(iterations=iterations, seed=match_seed)
    ).run(
        [
            WindowedSource(CBRSource(ports, table.flows(), frame_slots), slots),
            WindowedSource(
                UniformTraffic(ports, load=vbr_load, seed=traffic_seed), slots
            ),
        ],
        slots=slots + drain_slots,
        warmup=warmup,
        probe=Probe(sinks[0]),
    )
    fast_result = run_fastpath_cbr(
        table,
        vbr_load,
        slots,
        replicas=1,
        warmup=warmup,
        warmup_mode="arrival",
        iterations=iterations,
        match_seed=match_seed,
        vbr_arrival_seeds=[traffic_seed],
        drain_slots=drain_slots,
        check=True,
        probe=Probe(sinks[1]),
    )

    def project(sink, cbr_delay, vbr_delay, used, donated, peak, bound) -> Series:
        series = _event_series(
            sink,
            "cbr_slot",
            ("reserved", "cbr_cells", "vbr_cells", "donated", "cbr_backlog",
             "vbr_backlog"),
        )
        series["cbr delay (sum, cells)"] = [cbr_delay]
        series["vbr delay (sum, cells)"] = [vbr_delay]
        series["cbr slots used"] = [used]
        series["cbr slots donated"] = [donated]
        series["peak cbr buffer"] = [peak]
        series["cbr buffer bound"] = [bound or ()]
        return series

    cbr_delay = _delay_sums(object_result.cbr_delay)
    vbr_delay = _delay_sums(object_result.vbr_delay)
    diff_series(
        "integrated-parity",
        name,
        project(
            sinks[0],
            cbr_delay,
            vbr_delay,
            object_result.cbr_slots_used,
            object_result.cbr_slots_donated,
            object_result.peak_cbr_buffer,
            object_result.cbr_buffer_bound,
        ),
        project(
            sinks[1],
            (fast_result.cbr_delay_integral.sum(), fast_result.cbr_delay_cells.sum()),
            (fast_result.vbr_delay_integral.sum(), fast_result.vbr_delay_cells.sum()),
            fast_result.cbr_slots_used.sum(),
            fast_result.cbr_slots_donated.sum(),
            fast_result.peak_cbr_buffer.max(initial=0),
            fast_result.cbr_buffer_bound,
        ),
    )
    detail = (
        f"{slots + drain_slots} slots slot-exact; cbr {cbr_delay}, "
        f"vbr {vbr_delay} delay sums match"
    )
    return DifferentialReport(name=name, ok=True, detail=detail)


def statistical_parity(
    ports: int,
    units: int,
    utilization: float,
    load: float,
    slots: int,
    seed: int = 0,
    rounds: int = 2,
    fill: bool = True,
    warmup: int = 0,
    drain_slots: Optional[int] = None,
) -> DifferentialReport:
    """Object vs fast path on the statistically-matched switch.

    As in :func:`backend_parity`, the statistical fast path consumes
    the object matcher's generator draw for draw at B = 1 (see
    :mod:`repro.sim.fastpath_statistical`), so the comparison here is
    **slot-exact**: with a shared
    ``match_seed`` every grant/virtual-grant/accept lottery -- and
    therefore every matching, transfer, and queue trajectory -- must
    coincide.

    Builds a random feasible allocation matrix (sum of permutations at
    the requested ``utilization`` of ``units``), runs
    :class:`CrossbarSwitch` + :class:`StatisticalMatcher` against
    :func:`repro.sim.fastpath_statistical.run_fastpath_statistical`
    on seed-matched arrivals and matchings, and compares:

    - the per-round ``StatRound`` anatomy (granted, virtual grants,
      decoys, accepted, kept, matched), one column per round;
    - the per-slot offered arrivals, pre-arrival backlog, and
      transferred cells;
    - when the run drained, the delay statistics as integer
      (sum, cells) pairs.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    if drain_slots is None:
        drain_slots = max(200, slots)
    total = slots + drain_slots
    name = (
        f"statistical-parity(N={ports}, X={units}, util={utilization}, "
        f"load={load}, rounds={rounds}, fill={fill}, warmup={warmup}, "
        f"seed={seed})"
    )

    alloc_rng = np.random.default_rng(derive_seed(seed, "check/stat-allocations"))
    allocations = _random_allocations(ports, units, alloc_rng, fraction=utilization)
    traffic_seed = derive_seed(seed, "check/stat-traffic")
    match_seed = derive_seed(seed, "check/stat-match")
    sinks = InMemorySink(), InMemorySink()
    matcher = StatisticalMatcher(
        allocations, units=units, rounds=rounds, seed=match_seed, fill=fill
    )
    object_result = CrossbarSwitch(ports, matcher).run(
        WindowedSource(UniformTraffic(ports, load=load, seed=traffic_seed), slots),
        slots=total,
        warmup=warmup,
        probe=Probe(sinks[0]),
    )
    fast_result = run_fastpath_statistical(
        allocations,
        units,
        load,
        slots,
        rounds=rounds,
        fill=fill,
        replicas=1,
        warmup=warmup,
        warmup_mode="arrival",
        match_seed=match_seed,
        arrival_seeds=[traffic_seed],
        drain_slots=drain_slots,
        check=True,
        probe=Probe(sinks[1]),
    )
    # Only a drained run makes the Little's-law integral equal the sum
    # of departed-cell delays (cells still queued at the end contribute
    # backlog but no departure); without fill a switch cannot drain
    # cells on zero-allocation pairs, so the delay comparison is
    # conditional.
    drained = int(fast_result.final_backlog.sum()) == 0

    def project(sink, delay) -> Series:
        series = {
            **_event_series(
                sink,
                "stat_round",
                ("granted", "virtual", "decoys", "accepted", "kept", "matched"),
            ),
            **_event_series(sink, "slot_begin", ("arrivals", "backlog")),
            **_event_series(sink, "crossbar_transfer", ("cells",)),
        }
        if drained:
            series["delay (sum, cells)"] = [delay]
        return series

    object_delay = _delay_sums(object_result.delay)
    diff_series(
        "statistical-parity",
        name,
        project(sinks[0], object_delay),
        project(
            sinks[1], (fast_result.delay_integral.sum(), fast_result.delay_cells.sum())
        ),
    )
    detail = f"{total} slots of {rounds}-round lotteries slot-exact; " + (
        f"delay sums {object_delay} match"
        if drained
        else f"undrained (backlog {int(fast_result.final_backlog.sum())}), "
        f"delay comparison skipped"
    )
    return DifferentialReport(name=name, ok=True, detail=detail)


def metamorphic_statistical_fill(
    ports: int,
    slots: int,
    seed: int = 0,
    units: int = 16,
    load: float = 0.9,
) -> DifferentialReport:
    """``fill=True`` must never carry less than statistical alone.

    Same allocation matrix, same matcher seed, same arrivals: the
    decoupled fill stream makes the statistical draws identical in
    both runs, so filling dominates pointwise and the check runs with
    **zero** slack.
    """
    alloc_rng = np.random.default_rng(derive_seed(seed, "check/allocations"))
    allocations = _random_allocations(ports, units, alloc_rng)
    matcher_seed = derive_seed(seed, "check/statistical")
    traffic_seed = derive_seed(seed, "check/traffic")

    carried = {}
    for fill in (False, True):
        matcher = StatisticalMatcher(
            allocations, units=units, seed=matcher_seed, fill=fill
        )
        switch = CrossbarSwitch(ports, matcher)
        result = switch.run(
            UniformTraffic(ports, load=load, seed=traffic_seed), slots=slots
        )
        carried[fill] = result.counter.carried

    name = f"statistical-fill(N={ports}, slots={slots}, seed={seed})"
    detail = f"carried alone={carried[False]} fill={carried[True]}"
    if carried[True] < carried[False]:
        raise InvariantViolation("statistical-fill-dominates", detail)
    return DifferentialReport(name=name, ok=True, detail=detail)


def metamorphic_pim_iterations(
    ports: int,
    slots: int,
    seed: int = 0,
    load: float = 0.9,
    many: int = 4,
    slack: Optional[int] = None,
) -> DifferentialReport:
    """PIM-``many`` must not carry meaningfully less than PIM-1.

    Runs the fast path twice on draw-identical arrivals
    (``arrival_seeds``) over a *fixed* window with no drain -- drained
    runs trivially carry everything offered, which would make the
    comparison vacuous.  The matchings are random, so sample-wise
    domination is not guaranteed; ``slack`` (default: one cell per
    port) absorbs the noise while still catching an iteration loop
    that loses work wholesale.
    """
    if slack is None:
        slack = ports
    arrival_seed = derive_seed(seed, "check/traffic")
    carried = {}
    for iterations in (1, many):
        result = run_fastpath(
            ports,
            load,
            slots,
            replicas=1,
            iterations=iterations,
            seed=derive_seed(seed, f"check/pim-{iterations}"),
            arrival_seeds=[arrival_seed],
        )
        carried[iterations] = int(result.carried_cells.sum())

    name = f"pim-iterations(N={ports}, 1 vs {many}, seed={seed})"
    detail = f"carried PIM-1={carried[1]} PIM-{many}={carried[many]} slack={slack}"
    if carried[many] + slack < carried[1]:
        raise InvariantViolation("pim-iterations-monotone", detail)
    return DifferentialReport(name=name, ok=True, detail=detail)


def network_parity(
    topology: str = "parking_lot",
    size: int = 3,
    n_flows: int = 4,
    slots: int = 300,
    seed: int = 0,
    warmup: int = 0,
    buffer_limit: Optional[int] = None,
    latency: int = 1,
) -> DifferentialReport:
    """:func:`fabric_parity` on a bundled topology with random flows.

    Builds the named topology (:func:`repro.network.topologies.build`)
    and draws ``n_flows`` random host-to-host flows from a seed-derived
    stream.  Raises :class:`InvariantViolation` on any mismatch.
    """
    topo, hosts = build(topology, size, latency=latency)
    if len(hosts) < 2:
        raise ValueError(f"topology {topology}(size={size}) has {len(hosts)} hosts")
    flow_rng = np.random.default_rng(derive_seed(seed, "check/network-flows"))
    rates = (1.0, 0.8, 0.5, 0.25)
    flows = []
    for flow_id in range(1, n_flows + 1):
        src, dst = flow_rng.choice(len(hosts), size=2, replace=False)
        flows.append(
            FlowSpec(flow_id, hosts[src], hosts[dst], float(flow_rng.choice(rates)))
        )
    return fabric_parity(
        topo,
        flows,
        slots=slots,
        seed=seed,
        warmup=warmup,
        buffer_limit=buffer_limit,
        label=f"{topology}, size={size}, latency={latency}",
    )


def fabric_parity(
    topo,
    flows,
    slots: int = 300,
    seed: int = 0,
    warmup: int = 0,
    buffer_limit: Optional[int] = None,
    label: str = "custom topology",
) -> DifferentialReport:
    """Object network simulator vs the vectorized network fast path.

    Runs :class:`repro.network.netsim.NetworkSimulator` with a per-slot
    observer and :class:`repro.sim.fastpath_network.NetworkFastpath` at
    B=1 with the same root seed over ``flows`` on ``topo`` (any
    :class:`~repro.network.topology.Topology`), and compares slot for
    slot -- one row per observed slot, so a missing record diverges:

    - per-flow injections and deliveries (index: the fast path's
      ``series.flow_ids`` order),
    - per-switch fabric transfer counts and end-of-slot backlog (index:
      its ``series.switch_names`` order),

    then the per-flow delivered totals and warm delay-sample counts.
    Because both backends consume the same ``sched:{switch}`` /
    ``host:{host}`` streams in the same order, every quantity must
    match *exactly* -- any drift is a bug in one of the backends.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    name = (
        f"network-parity({label}, flows={len(flows)}, "
        f"slots={slots}, warmup={warmup}, limit={buffer_limit}, seed={seed})"
    )
    records = []
    object_sim = NetworkSimulator(topo, seed=seed, buffer_limit=buffer_limit)
    for flow in flows:
        object_sim.add_flow(flow)
    object_result = object_sim.run(slots, warmup=warmup, observer=records.append)
    fast = run_fastpath_network(
        topo,
        flows,
        slots,
        replicas=1,
        warmup=warmup,
        seed=seed,
        buffer_limit=buffer_limit,
        record_series=True,
        check=True,
    )
    series = fast.series
    columns = {
        "injected": series.flow_ids,
        "delivered": series.flow_ids,
        "transfers": series.switch_names,
        "backlog": series.switch_names,
    }
    object_series = {
        field: [[getattr(r, field).get(k, 0) for k in keys] for r in records]
        for field, keys in columns.items()
    }
    object_series["delivered per flow"] = [
        [object_result.delivered[fid] for fid in series.flow_ids]
    ]
    object_series["delay samples per flow"] = [
        [object_result.delay[fid].count for fid in series.flow_ids]
    ]
    fast_series = {field: getattr(series, field) for field in columns}
    fast_series["delivered per flow"] = fast.delivered[:1]
    fast_series["delay samples per flow"] = fast.delay_cells[:1]
    diff_series("network-parity", name, object_series, fast_series)
    total = int(fast.delivered.sum())
    return DifferentialReport(
        name=name, ok=True, detail=f"{slots} slots slot-exact, {total} cells delivered"
    )
