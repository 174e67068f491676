"""Seed-matched differential runs and cross-scheduler metamorphic checks.

Three families of checks, each reporting the first divergent slot (or
the violating totals) when it fails:

- :func:`backend_parity` -- object backend vs fast path on
  seed-matched arrivals, over the *whole* configuration space the fast
  path supports (iterations including run-to-convergence, accept
  policy, output capacity).  Generalizes the PR 1 PIM-only parity
  check in :mod:`repro.obs.parity`.

- :func:`metamorphic_statistical_fill` -- Section 5.2's "any slot not
  used by statistical matching can be filled" must never *lose* cells:
  a ``fill=True`` matcher carries at least as much as ``fill=False``
  with the same seed on the same arrivals, slot for slot.  This is
  exact (slack 0): the statistical grant/accept draws consume a
  stream decoupled from the PIM fill (see
  :class:`repro.core.statistical.StatisticalMatcher`), so both runs
  see identical statistical matchings and filling can only remove
  additional cells -- occupancy is pointwise dominated.

- :func:`metamorphic_pim_iterations` -- more PIM iterations must not
  carry (meaningfully) less on the same arrivals.  PIM-k vs PIM-1 is
  not sample-wise monotone (different random draws), so the check
  allows a small slack, defaulting to one cell per port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.check.invariants import InvariantViolation
from repro.obs.parity import ParityReport, diff_backends
from repro.traffic.flows import WindowedSource

__all__ = [
    "DifferentialReport",
    "backend_parity",
    "fabric_parity",
    "integrated_parity",
    "metamorphic_pim_iterations",
    "metamorphic_statistical_fill",
    "network_parity",
    "ScenarioParityReport",
    "scenario_parity",
    "statistical_parity",
]


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

    ``scheduler`` picks the batched kernel by registry name
    (``repro.core.BATCH_SCHEDULERS``).  For PIM the object and fast
    matching streams are independent, so the invariant is the classic
    one: identical arrivals, equal drained totals.  For every other
    kernel the object side is built as the *seed-matched twin* of the
    fast path's kernel (same stream the fast path derives internally:
    ``derive_seed(fast_match_seed, "fastpath/<name>")``), and the B=1
    parity convention upgrades the invariant to **slot-exact** matched
    counts -- any per-slot divergence raises.

    ``phase_timer``, when given an enabled
    :class:`repro.obs.perf.PhaseTimer`, profiles the check under a
    ``parity`` root span with ``parity/object`` / ``parity/fastpath``
    children (each backend's own phase breakdown nested below), so
    slow parity sweeps report where the wall time went.
    """
    from repro.core.batch import build_object_scheduler
    from repro.obs.perf import NULL_PHASE_TIMER
    from repro.sim.rng import derive_seed

    if drain_slots is None:
        # Enough to flush any backlog a stable run accumulates.
        drain_slots = max(200, slots)
    timer = (
        phase_timer
        if phase_timer is not None and phase_timer.enabled
        else NULL_PHASE_TIMER
    )
    fast_match_seed = derive_seed(seed, "check/fast-match")
    if scheduler == "pim":
        object_scheduler = None  # diff_backends builds the default PIM twin
    else:
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
    with timer.phase("parity"):
        report: ParityReport = diff_backends(
            ports,
            load,
            slots,
            drain_slots=drain_slots,
            iterations=iterations,
            traffic_seed=derive_seed(seed, "check/traffic"),
            object_match_seed=derive_seed(seed, "check/object-match"),
            fast_match_seed=fast_match_seed,
            accept=accept,
            output_capacity=output_capacity,
            scheduler=scheduler,
            object_scheduler=object_scheduler,
            phase_timer=timer,
        )
    name = (
        f"backend-parity(N={ports}, load={load}, sched={scheduler}, "
        f"iter={iterations}, accept={accept}, cap={output_capacity}, "
        f"seed={seed})"
    )
    if not report.ok:
        raise InvariantViolation("backend-parity", report.describe())
    if scheduler != "pim" and report.first_match_divergence is not None:
        raise InvariantViolation(
            "backend-parity",
            f"seed-matched {scheduler} twins diverged at slot "
            f"{report.first_match_divergence}:\n" + report.describe(),
        )
    return DifferentialReport(name=name, ok=True, detail=report.describe())


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


# Wraps a source so arrivals stop after ``limit`` slots: lets the
# object backend run drain slots (the fast path's ``drain_slots``)
# without a separate API.  Past the window the inner source is never
# consulted, so neither backend consumes RNG draws there and the
# offered traffic stays draw-for-draw identical.  Now shared with the
# scenario CLI as :class:`repro.traffic.flows.WindowedSource` (which
# also forwards ``reset``/``flow_records``); the old private name is
# kept for existing callers.
_WindowedTraffic = WindowedSource


def _delay_sums(stats) -> tuple:
    """(sum of delays, cell count) from a DelayStats histogram.

    Integer-exact, so it can be compared ``==`` against the fast
    path's Little's-law ``delay_integral`` / ``delay_cells`` counters
    without Welford floating-point noise.
    """
    histogram = stats.histogram()
    return (
        sum(delay * count for delay, count in histogram.items()),
        sum(histogram.values()),
    )


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
    trace-identical), so the offered traffic is byte-identical.

    For the non-PIM kernels the object scheduler is the seed-matched
    twin of the batched kernel (the B=1 slot-exact parity convention),
    so the *whole trajectory* coincides and the check compares, all as
    exact integers: offered/carried totals, per-input arrival and
    per-output departure counts, delay sums (over a drained run with
    ``warmup`` 0 -- see the inline note), and the full per-flow
    (size, FCT) sample list plus incomplete counts.

    For PIM the matching streams are independent, so the invariant is
    the drained-totals one: identical arrivals; and over a drained run
    equal carried totals, per-output departures (when ``warmup`` is 0)
    and an identical *set* of completed flows (FCT values legitimately
    differ).

    Raises :class:`InvariantViolation` on any mismatch; returns a
    :class:`ScenarioParityReport` carrying both results so callers can
    print FCT tables without re-running.
    """
    from repro.core.batch import build_object_scheduler
    from repro.sim.fastpath import run_fastpath
    from repro.sim.rng import derive_seed
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.scenarios import get_scenario

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
    if scheduler == "pim":
        object_scheduler = build_object_scheduler(
            "pim",
            iterations=iterations,
            seed=derive_seed(seed, "check/object-match"),
            ports=n,
        )
    else:
        # Reconstruct the exact stream run_fastpath injects into the
        # batched kernel so the object twin is draw-for-draw identical.
        object_scheduler = build_object_scheduler(
            scheduler,
            iterations=iterations,
            seed=derive_seed(fast_match_seed, f"fastpath/{scheduler}"),
            ports=n,
        )

    total = slots + drain_slots
    object_source = spec.build_source(traffic_seed, ports=ports, load=load)
    object_switch = CrossbarSwitch(n, object_scheduler)
    object_result = object_switch.run(
        WindowedSource(object_source, slots), slots=total, warmup=warmup
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
    )

    def fail(label: str, object_value, fast_value) -> None:
        raise InvariantViolation(
            "scenario-parity",
            f"{name}: {label} mismatch: object {object_value} "
            f"fastpath {fast_value}",
        )

    # Arrival streams are scheduler-independent: always exact.
    fast_offered = int(fast_result.offered_cells.sum())
    if object_result.counter.offered != fast_offered:
        fail("offered cells", object_result.counter.offered, fast_offered)
    fast_by_input = tuple(int(x) for x in fast_result.arrivals_by_input[0])
    if tuple(object_result.arrivals_by_input) != fast_by_input:
        fail(
            "arrivals by input",
            object_result.arrivals_by_input,
            fast_by_input,
        )

    drained = (
        object_result.backlog == 0 and int(fast_result.final_backlog.sum()) == 0
    )
    object_fct = object_result.fct
    fast_fct = fast_result.fct
    if scheduler == "pim":
        if not drained:
            raise InvariantViolation(
                "scenario-parity",
                f"{name}: run did not drain (object backlog "
                f"{object_result.backlog}, fastpath "
                f"{int(fast_result.final_backlog.sum())}); raise drain_slots",
            )
        if object_result.counter.carried != int(fast_result.carried_cells.sum()):
            fail(
                "carried cells (drained)",
                object_result.counter.carried,
                int(fast_result.carried_cells.sum()),
            )
        if warmup == 0:
            fast_by_output = tuple(
                int(x) for x in fast_result.departures_by_output[0]
            )
            if tuple(object_result.departures_by_output) != fast_by_output:
                fail(
                    "departures by output",
                    object_result.departures_by_output,
                    fast_by_output,
                )
        # Drained runs complete the same set of flows even though the
        # independent matching randomness shifts individual FCTs.
        if (object_fct.count, object_fct.incomplete) != (
            fast_fct.count,
            fast_fct.incomplete,
        ):
            fail(
                "completed/incomplete flows",
                (object_fct.count, object_fct.incomplete),
                (fast_fct.count, fast_fct.incomplete),
            )
        detail = (
            f"drained totals exact ({object_result.counter.carried} cells, "
            f"{object_fct.count} flows); {fast_fct.summary()}"
        )
    else:
        # Seed-matched twins: the whole trajectory must coincide.
        if object_result.counter.carried != int(fast_result.carried_cells.sum()):
            fail(
                "carried cells",
                object_result.counter.carried,
                int(fast_result.carried_cells.sum()),
            )
        fast_by_output = tuple(
            int(x) for x in fast_result.departures_by_output[0]
        )
        if tuple(object_result.departures_by_output) != fast_by_output:
            fail(
                "departures by output",
                object_result.departures_by_output,
                fast_by_output,
            )
        if drained and warmup == 0:
            # At warmup 0 the per-cell delay sum equals the occupancy
            # integral regardless of intra-VOQ service order, so the
            # comparison is exact.  With warmup > 0 the fast path's
            # legacy-occupancy exclusion assumes per-VOQ FIFO draining,
            # which round-robin service over multi-flow VOQs breaks:
            # *which* cells straddle the boundary then differs between
            # the accountings even though every trajectory matches.
            object_delay = _delay_sums(object_result.delay)
            fast_delay = (
                int(fast_result.delay_integral.sum()),
                int(fast_result.delay_cells.sum()),
            )
            if object_delay != fast_delay:
                fail("delay (sum, cells)", object_delay, fast_delay)
        if object_fct.observations() != fast_fct.observations():
            diffs = [
                (k, a, b)
                for k, (a, b) in enumerate(
                    zip(object_fct.observations(), fast_fct.observations())
                )
                if a != b
            ]
            first = diffs[0] if diffs else ("length",
                                            object_fct.count, fast_fct.count)
            fail("per-flow (size, fct) samples", first[1], first[2])
        if (object_fct.incomplete, object_fct.warm_discarded) != (
            fast_fct.incomplete,
            fast_fct.warm_discarded,
        ):
            fail(
                "incomplete/warm-discarded flows",
                (object_fct.incomplete, object_fct.warm_discarded),
                (fast_fct.incomplete, fast_fct.warm_discarded),
            )
        detail = (
            f"slot-exact ({object_result.counter.carried} cells"
            + (
                ", drained delay sums match"
                if drained and warmup == 0
                else (", drained" if drained else ", undrained")
            )
            + f"); {fast_fct.summary()}"
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

    - the per-slot ``CbrSlot`` series (CBR departures, VBR departures,
      donated count, both pool backlogs) slot for slot, reporting the
      first divergent slot;
    - per-class delay statistics as integer (sum, count) pairs;
    - the used/donated/peak counters and the resolved Appendix B bound.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    from repro.cbr.integrated import IntegratedSwitch
    from repro.cbr.reservations import ReservationTable
    from repro.core.pim import PIMScheduler
    from repro.obs.probe import Probe
    from repro.obs.sinks import InMemorySink
    from repro.sim.fastpath_cbr import run_fastpath_cbr
    from repro.sim.rng import derive_seed
    from repro.switch.cell import ServiceClass
    from repro.switch.flow import Flow
    from repro.traffic.cbr_source import CBRSource
    from repro.traffic.uniform import UniformTraffic

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
    flow_id = 1
    for i in range(ports):
        for j in range(ports):
            if matrix[i, j]:
                table.admit(
                    Flow(
                        flow_id=flow_id,
                        src=i,
                        dst=j,
                        service=ServiceClass.CBR,
                        cells_per_frame=int(matrix[i, j]),
                    )
                )
                flow_id += 1

    traffic_seed = derive_seed(seed, "check/cbr-vbr-traffic")
    match_seed = derive_seed(seed, "check/cbr-match")

    object_switch = IntegratedSwitch(
        table, scheduler=PIMScheduler(iterations=iterations, seed=match_seed)
    )
    object_sink = InMemorySink()
    object_result = object_switch.run(
        [
            _WindowedTraffic(CBRSource(ports, table.flows(), frame_slots), slots),
            _WindowedTraffic(
                UniformTraffic(ports, load=vbr_load, seed=traffic_seed), slots
            ),
        ],
        slots=slots + drain_slots,
        warmup=warmup,
        probe=Probe(object_sink),
    )

    fast_sink = InMemorySink()
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
        probe=Probe(fast_sink),
    )

    def series(sink):
        return [
            (e.slot, e.reserved, e.cbr_cells, e.vbr_cells, e.donated,
             e.cbr_backlog, e.vbr_backlog)
            for e in sink.events
            if e.kind == "cbr_slot"
        ]

    object_series = series(object_sink)
    fast_series = series(fast_sink)
    for object_slot, fast_slot in zip(object_series, fast_series):
        if object_slot != fast_slot:
            raise InvariantViolation(
                "integrated-parity",
                f"{name}: first divergent slot {object_slot[0]}: "
                f"object (reserved, cbr, vbr, donated, cbr_backlog, "
                f"vbr_backlog)={object_slot[1:]} fastpath={fast_slot[1:]}",
            )
    if len(object_series) != len(fast_series):
        raise InvariantViolation(
            "integrated-parity",
            f"{name}: event count mismatch "
            f"{len(object_series)} vs {len(fast_series)}",
        )

    comparisons = {
        "cbr delay (sum, cells)": (
            _delay_sums(object_result.cbr_delay),
            (
                int(fast_result.cbr_delay_integral.sum()),
                int(fast_result.cbr_delay_cells.sum()),
            ),
        ),
        "vbr delay (sum, cells)": (
            _delay_sums(object_result.vbr_delay),
            (
                int(fast_result.vbr_delay_integral.sum()),
                int(fast_result.vbr_delay_cells.sum()),
            ),
        ),
        "cbr slots used": (
            object_result.cbr_slots_used,
            int(fast_result.cbr_slots_used.sum()),
        ),
        "cbr slots donated": (
            object_result.cbr_slots_donated,
            int(fast_result.cbr_slots_donated.sum()),
        ),
        "peak cbr buffer": (
            object_result.peak_cbr_buffer,
            int(fast_result.peak_cbr_buffer.max(initial=0)),
        ),
        "cbr buffer bound": (
            object_result.cbr_buffer_bound,
            fast_result.cbr_buffer_bound,
        ),
    }
    for label, (object_value, fast_value) in comparisons.items():
        if object_value != fast_value:
            raise InvariantViolation(
                "integrated-parity",
                f"{name}: {label} mismatch: object {object_value} "
                f"fastpath {fast_value}",
            )
    detail = (
        f"{len(fast_series)} slots slot-exact; cbr "
        f"{comparisons['cbr delay (sum, cells)'][0]}, vbr "
        f"{comparisons['vbr delay (sum, cells)'][0]} delay sums match"
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

    Unlike :func:`backend_parity` (where the two backends' matching
    randomness is independent and only totals are compared), the
    statistical fast path consumes the object matcher's generator draw
    for draw at B = 1 (see :mod:`repro.sim.fastpath_statistical`), so
    the comparison here is **slot-exact**: with a shared ``match_seed``
    every grant/virtual-grant/accept lottery -- and therefore every
    matching, transfer, and queue trajectory -- must coincide.

    Builds a random feasible allocation matrix (sum of permutations at
    the requested ``utilization`` of ``units``), runs
    :class:`CrossbarSwitch` + :class:`StatisticalMatcher` against
    :func:`repro.sim.fastpath_statistical.run_fastpath_statistical`
    on seed-matched arrivals and matchings, and compares:

    - the per-slot ``StatRound`` series (granted, virtual grants,
      decoys, accepted, kept, matched) round for round, reporting the
      first divergent slot;
    - the per-slot offered arrivals, pre-arrival backlog, and
      transferred cells;
    - when the run drained, the delay statistics as integer
      (sum, cells) pairs.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    from repro.core.statistical import StatisticalMatcher
    from repro.obs.probe import Probe
    from repro.obs.sinks import InMemorySink
    from repro.sim.fastpath_statistical import run_fastpath_statistical
    from repro.sim.rng import derive_seed
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.uniform import UniformTraffic

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

    object_sink = InMemorySink()
    matcher = StatisticalMatcher(
        allocations, units=units, rounds=rounds, seed=match_seed, fill=fill
    )
    object_switch = CrossbarSwitch(ports, matcher)
    object_result = object_switch.run(
        _WindowedTraffic(
            UniformTraffic(ports, load=load, seed=traffic_seed), slots
        ),
        slots=total,
        warmup=warmup,
        probe=Probe(object_sink),
    )

    fast_sink = InMemorySink()
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
        probe=Probe(fast_sink),
    )

    def stat_series(sink):
        return [
            (e.slot, e.round_index, e.granted, e.virtual, e.decoys,
             e.accepted, e.kept, e.matched)
            for e in sink.events
            if e.kind == "stat_round"
        ]

    def slot_series(sink, kind, field):
        series = [0] * total
        for event in sink.events:
            if event.kind == kind and 0 <= event.slot < total:
                series[event.slot] += getattr(event, field)
        return series

    object_rounds = stat_series(object_sink)
    fast_rounds = stat_series(fast_sink)
    for object_round, fast_round in zip(object_rounds, fast_rounds):
        if object_round != fast_round:
            raise InvariantViolation(
                "statistical-parity",
                f"{name}: first divergent round at slot {object_round[0]}: "
                f"object (round, granted, virtual, decoys, accepted, kept, "
                f"matched)={object_round[1:]} fastpath={fast_round[1:]}",
            )
    if len(object_rounds) != len(fast_rounds):
        raise InvariantViolation(
            "statistical-parity",
            f"{name}: stat_round event count mismatch "
            f"{len(object_rounds)} vs {len(fast_rounds)}",
        )

    for kind, field, label in (
        ("slot_begin", "arrivals", "offered arrivals"),
        ("slot_begin", "backlog", "pre-arrival backlog"),
        ("crossbar_transfer", "cells", "transferred cells"),
    ):
        object_per_slot = slot_series(object_sink, kind, field)
        fast_per_slot = slot_series(fast_sink, kind, field)
        if object_per_slot != fast_per_slot:
            slot = next(
                s for s, (a, b) in
                enumerate(zip(object_per_slot, fast_per_slot)) if a != b
            )
            raise InvariantViolation(
                "statistical-parity",
                f"{name}: {label} first diverge at slot {slot}: object "
                f"{object_per_slot[slot]} fastpath {fast_per_slot[slot]}",
            )

    drained = int(fast_result.final_backlog.sum()) == 0
    if drained:
        # Only a drained run makes the Little's-law integral equal the
        # sum of departed-cell delays (cells still queued at the end
        # contribute backlog but no departure); without fill a switch
        # cannot drain cells on zero-allocation pairs, so the delay
        # comparison is conditional.
        object_delay = _delay_sums(object_result.delay)
        fast_delay = (
            int(fast_result.delay_integral.sum()),
            int(fast_result.delay_cells.sum()),
        )
        if object_delay != fast_delay:
            raise InvariantViolation(
                "statistical-parity",
                f"{name}: delay (sum, cells) mismatch: object "
                f"{object_delay} fastpath {fast_delay}",
            )
    detail = (
        f"{len(fast_rounds)} rounds and {total} slots slot-exact; "
        + (
            f"delay sums {_delay_sums(object_result.delay)} match"
            if drained
            else f"undrained (backlog {int(fast_result.final_backlog.sum())}), "
            f"delay comparison skipped"
        )
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
    from repro.core.statistical import StatisticalMatcher
    from repro.sim.rng import derive_seed
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.uniform import UniformTraffic

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
    from repro.sim.fastpath import run_fastpath
    from repro.sim.rng import derive_seed

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
    from repro.network.netsim import FlowSpec
    from repro.network.topologies import build
    from repro.sim.rng import derive_seed

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
    slot:

    - per-flow injections and deliveries,
    - per-switch fabric transfer counts,
    - per-switch end-of-slot backlog,

    reporting the first divergent slot on mismatch, then the per-flow
    delivered totals and warm delay-sample counts.  Because both
    backends consume the same ``sched:{switch}``/``host:{host}``
    streams in the same order, every quantity must match *exactly* --
    any drift is a bug in one of the backends.

    Raises :class:`InvariantViolation` on any mismatch.
    """
    from repro.network.netsim import NetworkSimulator
    from repro.sim.fastpath_network import run_fastpath_network

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
    flow_col = {fid: k for k, fid in enumerate(series.flow_ids)}
    switch_col = {sw: k for k, sw in enumerate(series.switch_names)}

    for record in records:
        t = record.slot
        for fid, k in flow_col.items():
            for label, got, want in (
                ("injected", record.injected.get(fid, 0), series.injected[t, k]),
                ("delivered", record.delivered.get(fid, 0), series.delivered[t, k]),
            ):
                if got != want:
                    raise InvariantViolation(
                        "network-parity",
                        f"{name}: first divergent slot {t}: flow {fid} "
                        f"{label} object={got} fastpath={int(want)}",
                    )
        for sw, k in switch_col.items():
            for label, got, want in (
                ("transfers", record.transfers.get(sw, 0), series.transfers[t, k]),
                ("backlog", record.backlog.get(sw, 0), series.backlog[t, k]),
            ):
                if got != want:
                    raise InvariantViolation(
                        "network-parity",
                        f"{name}: first divergent slot {t}: switch {sw} "
                        f"{label} object={got} fastpath={int(want)}",
                    )
    for flow in flows:
        fid = flow.flow_id
        object_delivered = object_result.delivered[fid]
        fast_delivered = int(fast.delivered[0, flow_col[fid]])
        if object_delivered != fast_delivered:
            raise InvariantViolation(
                "network-parity",
                f"{name}: flow {fid} delivered object={object_delivered} "
                f"fastpath={fast_delivered}",
            )
        object_samples = object_result.delay[fid].count
        fast_samples = int(fast.delay_cells[0, flow_col[fid]])
        if object_samples != fast_samples:
            raise InvariantViolation(
                "network-parity",
                f"{name}: flow {fid} delay samples object={object_samples} "
                f"fastpath={fast_samples}",
            )
    total = int(fast.delivered.sum())
    return DifferentialReport(
        name=name, ok=True, detail=f"{slots} slots slot-exact, {total} cells delivered"
    )
