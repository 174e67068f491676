"""Count-based, batch-vectorized fast-path switch simulator.

Every figure in the paper (Figures 3-5, Table 1, Appendix A) is a
Monte-Carlo sweep over offered load x switch size x replicas.  The
object model (:class:`repro.switch.switch.CrossbarSwitch`) simulates
one replica at a time with per-cell Python objects, which is faithful
but slow.  This module trades cell identity for speed:

- the state of **B independent replicas** is a single ``(B, N, N)``
  int array of VOQ occupancy *counts* -- no Cell objects, no deques;
- arrivals are Bernoulli/uniform, generated vectorized per slot from
  :class:`repro.sim.rng.RandomStreams`-derived streams, and carried as
  a flat list of VOQ *cells* (the arrival contract of
  :func:`run_slots`), never as a count cube;
- all B matchings per slot come from one stateful
  :class:`repro.core.batch.BatchScheduler` kernel call (any registry
  scheduler -- PIM by default).

What the count model cannot carry: per-cell flow ids, per-flow FIFO
order checking, per-cell delay histograms/percentiles -- anything that
needs cell identity inside the hot loop.  Scenario mode (``sources=``)
recovers flow identity beside the loop: arbitrary TrafficSource
objects drive each replica, their cells compiled a chunk of slots at a
time into flat arrays, and an array replica of the object switch's
round-robin flow service per VOQ yields slot-exact flow completion
times.  Mean delay is instead recovered
exactly via Little's law: with arrivals at slot start and departures
at slot end, a cell with delay d is present in exactly d end-of-slot
backlog samples, so over a run that starts empty and is drained to
empty, ``sum_t backlog(t) == sum_cells delay`` holds as an identity
and ``mean_delay = backlog_integral / carried_cells`` is exact (over
a warmup-truncated window it is the usual steady-state estimate, with
O(backlog/carried) boundary error).

Seed-for-seed parity: with ``arrival_seeds=[s]`` the arrival stream of
a replica replicates :class:`repro.traffic.uniform.UniformTraffic`
(seed ``s``) draw for draw, so the offered traffic matches the object
backend exactly and (both switches being lossless and work-conserving
over a drained run) total carried cells, per-input arrival counts and
per-output departure counts agree exactly; only the matching
randomness -- and hence the delay sample -- differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchScheduler, build_batch_scheduler, read_ahead
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy
from repro.obs.perf import NULL_PHASE_TIMER
from repro.sim.flowring import EmptyRing, FlowRing
from repro.sim.rng import RandomStreams, default_seed
from repro.sim.stats import FlowStats
from repro.traffic.flows import WindowedSource, arrivals_batch

__all__ = ["FastpathCrossbar", "FastpathResult", "run_fastpath"]

#: Slots of arrivals pre-drawn per RNG call in the batched arrival mode.
_ARRIVAL_CHUNK_CELLS = 1 << 16
#: A :class:`PoolLedger` settles its queued slots once there are this
#: many of them, or once they hold this many arrival cells plus
#: departures, so a settle's temporaries stay near 8 KiB, far below
#: glibc's 128 KiB mmap threshold (a temporary at the threshold is
#: mapped and unmapped on every settle).  A batch costs about ten more
#: NumPy calls than one slot and three more passes per element, so it
#: pays only on many small slots: a slot of more than ``_WIDE_SLOT``
#: cells plus departures is folded alone, with no weights, and a queue
#: of fewer than ``_BATCH_MIN`` slots slot by slot.
_SETTLE_SLOTS = 256
_SETTLE_CELLS = 1 << 10
_WIDE_SLOT = _SETTLE_CELLS // 8
_BATCH_MIN = 4
#: (slot, replica, input) triples compiled per refill in scenario mode.
#: Sorting and indexing a chunk takes about ten int64 temporaries of
#: its cell count, so the chunk bounds the run's peak memory: on 16
#: incast sources at N=8 (256 slots per refill) the high-water mark
#: sits 3.6% over the per-cell path's, against 6.2% at twice the
#: chunk, and refills are too rare at either size to show in the wall.
_SCENARIO_CHUNK_CELLS = 1 << 15
#: The arrivals of a drain slot: no cells.
NO_CELLS = np.zeros(0, dtype=np.int64)
NO_CELLS.flags.writeable = False


def cube_cells(counts) -> np.ndarray:
    """The arrival cells of a ``(B, N, N)`` count cube.

    A slot's arrivals travel as a flat int64 array of VOQ indices
    ``(b * N + i) * N + j``, ascending, one entry per cell (a VOQ that
    gets two cells is listed twice); ``bincount(cells, minlength=B*N*N)``
    is the cube again.  The public ``step`` methods take cubes and
    convert them here, at the door.
    """
    flat = np.asarray(counts).reshape(-1)
    voqs = np.flatnonzero(flat)
    return np.repeat(voqs, flat.take(voqs))


@dataclass
class FastpathResult:
    """Aggregates of a fast-path run, per replica and pooled.

    Mirrors the :class:`repro.switch.results.SwitchResult` aggregate
    API (``mean_delay``, ``throughput``, ``offered``) so load sweeps
    can switch backends; adds per-replica arrays for confidence
    intervals across replicas.

    Attributes
    ----------
    ports, replicas:
        Switch size N and batch size B.
    slots:
        Arrival-carrying slots simulated.
    drain_slots:
        Additional arrival-free slots appended to flush backlog.
    warmup:
        Slots excluded from all counters (events in slots < warmup).
    window:
        Measurement slots: ``slots + drain_slots - warmup``.
    offered_cells, carried_cells:
        (B,) arrivals/departures inside the window.
    backlog_integral:
        (B,) sum of end-of-slot total backlog over the window (the
        Little's-law numerator).
    arrivals_by_input, departures_by_output:
        (B, N) per-port counters inside the window.
    final_backlog:
        (B,) cells still queued when the run ended.
    warmup_mode:
        ``"slot"`` (whole-slot truncation, the historical convention)
        or ``"arrival"`` (delay attributed by *arrival* slot, matching
        :class:`repro.sim.stats.DelayStats`).
    delay_cells, delay_integral:
        Arrival-mode only ((B,) arrays, else None): departures of
        cells that *arrived* at slot >= warmup, and the backlog
        integral restricted to those cells.  ``mean_delay`` uses these
        when present.
    """

    ports: int
    replicas: int
    slots: int
    drain_slots: int
    warmup: int
    window: int
    offered_cells: np.ndarray
    carried_cells: np.ndarray
    backlog_integral: np.ndarray
    arrivals_by_input: np.ndarray
    departures_by_output: np.ndarray
    final_backlog: np.ndarray
    warmup_mode: str = "slot"
    delay_cells: Optional[np.ndarray] = None
    delay_integral: Optional[np.ndarray] = None
    #: Per-flow completion times pooled over replicas; present only in
    #: scenario mode (``sources=``) with flow-aware sources.
    fct: Optional[FlowStats] = None

    @property
    def mean_delay(self) -> float:
        """Pooled mean queueing delay in slots (Little's law).

        Exactly the object backend's ``DelayStats`` mean over a drained
        ``warmup_mode="arrival"`` run; in ``"slot"`` mode biased low
        near the warmup boundary (cells that arrived before it but
        departed after count without their pre-warmup queueing).
        """
        return PoolLedger.pooled_delay(
            self.backlog_integral, self.carried_cells,
            self.delay_integral, self.delay_cells,
        )

    @property
    def mean_delay_by_replica(self) -> np.ndarray:
        """(B,) mean delay per replica (0.0 where nothing departed)."""
        integral, cells = self.backlog_integral, self.carried_cells
        if self.delay_cells is not None:
            integral, cells = self.delay_integral, self.delay_cells
        return np.where(cells > 0, integral / np.maximum(cells, 1), 0.0)

    @property
    def throughput(self) -> float:
        """Carried cells per slot per port, pooled over replicas."""
        if self.window == 0:
            return 0.0
        return int(self.carried_cells.sum()) / (
            self.window * self.ports * self.replicas
        )

    @property
    def offered(self) -> float:
        """Offered cells per slot per port, pooled over replicas."""
        if self.window == 0:
            return 0.0
        return int(self.offered_cells.sum()) / (
            self.window * self.ports * self.replicas
        )

    @classmethod
    def from_ledger(
        cls, switch, ledger: PoolLedger, slots: int, drain_slots: int, warmup: int, **extra
    ):
        """The result of a finished one-pool run, read off its ledger."""
        return cls(
            ports=switch.ports,
            replicas=switch.replicas,
            slots=slots,
            drain_slots=drain_slots,
            warmup=warmup,
            window=slots + drain_slots - warmup,
            offered_cells=ledger.offered,
            carried_cells=ledger.carried,
            backlog_integral=ledger.backlog_integral,
            arrivals_by_input=ledger.arrivals_by_input,
            departures_by_output=ledger.departures_by_output,
            final_backlog=switch.backlog(),
            warmup_mode=ledger.warmup_mode,
            delay_cells=ledger.delay_cells,
            delay_integral=ledger.delay_integral,
            **extra,
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.ports}x{self.ports} fastpath x{self.replicas} replicas, "
            f"{self.slots}+{self.drain_slots} slots: offered {self.offered:.3f}, "
            f"carried {self.throughput:.3f} per link, mean delay "
            f"{self.mean_delay:.2f} slots, backlog {int(self.final_backlog.sum())}"
        )
        if self.fct is not None:
            text += f"; {self.fct.summary()}"
        return text


def check_switch_shape(ports: int, replicas: int, scheduler: BatchScheduler) -> None:
    """Reject a non-positive switch shape or a kernel built for another."""
    if ports <= 0:
        raise ValueError(f"ports must be positive, got {ports}")
    if replicas <= 0:
        raise ValueError(f"replicas must be positive, got {replicas}")
    if (scheduler.replicas, scheduler.ports) != (replicas, ports):
        raise ValueError(
            f"scheduler is for {scheduler.replicas}x{scheduler.ports} "
            f"replicas x ports, switch has {replicas}x{ports}"
        )


class FastpathCrossbar:
    """Count-based state of B independent N x N VOQ crossbar switches.

    The entire buffer state is ``occupancy[b, i, j]``: the number of
    cells queued at input i of replica b destined for output j.  One
    :meth:`step` advances all replicas by a slot with the same timing
    convention as :class:`repro.switch.switch.CrossbarSwitch`: arrivals
    land first, the scheduler sees the post-arrival state, matched
    cells depart the same slot.

    Invariants (exercised by the property tests): occupancies never go
    negative, and per replica ``arrivals - departures == backlog``.
    """

    def __init__(self, ports: int, replicas: int, scheduler: BatchScheduler):
        check_switch_shape(ports, replicas, scheduler)
        self.ports = ports
        self.replicas = replicas
        self.scheduler = scheduler
        self.occupancy = np.zeros((replicas, ports, ports), dtype=np.int64)

    def step(
        self, arrivals: Optional[np.ndarray] = None, check: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one slot; returns the matched (replica, input, output) arrays.

        Parameters
        ----------
        arrivals:
            (B, N, N) non-negative arrival counts for this slot, or
            None for an arrival-free (drain) slot.
        check:
            Assert the non-negativity/backing invariants (tests only).

        Returns
        -------
        ``(bb, ii, jj)`` index arrays: cell k departed input ``ii[k]``
        of replica ``bb[k]`` through output ``jj[k]``.
        """
        if arrivals is None:
            return self._step(NO_CELLS, check)
        if check and (np.asarray(arrivals) < 0).any():
            raise ValueError("negative arrival counts")
        return self._step(cube_cells(arrivals), check)

    def advance(self, slot: int, arrivals: Sequence, check: bool = False):
        """:func:`run_slots` stage: one slot of the one-pool switch, its
        arrivals given as cells."""
        return (self._step(arrivals[0], check),)

    def _step(self, cells: np.ndarray, check: bool):
        # The one landing path: a VOQ listed k times gets k cells.
        np.add.at(self.occupancy.reshape(-1), cells, 1)
        # Unmasked counts: kernels read them at requested cells only.
        match = self.scheduler.schedule(self.occupancy > 0, self.occupancy)
        bb, ii = np.nonzero(match >= 0)
        jj = match[bb, ii]
        if check and (self.occupancy[bb, ii, jj] <= 0).any():
            raise AssertionError("scheduler matched an empty VOQ")
        self.occupancy[bb, ii, jj] -= 1
        if check and (self.occupancy < 0).any():
            raise AssertionError("negative VOQ occupancy")
        return bb, ii, jj

    def trace(self, probe, slot: int, departed) -> None:
        """The slot's events after the kernel's own (``probe`` is enabled)."""
        probe.transfer(int(departed[0][0].size))
        if probe.sampling:
            probe.voq_snapshot(self.occupancy.sum(axis=0), replica=-1)

    def backlog(self) -> np.ndarray:
        """(B,) cells currently buffered per replica."""
        return self.occupancy.sum(axis=(1, 2))


class _BatchedArrivals:
    """Vectorized Bernoulli/uniform arrivals for all B replicas at once.

    Draws uniforms in chunks of many slots per RNG call; every
    (slot, replica, input) runs an independent Bernoulli(load) coin
    and active inputs pick a destination uniformly over all N outputs
    (the Section 3.5 workload, ``exclude_self=False`` convention).
    """

    def __init__(
        self, ports: int, replicas: int, load: float, rng: np.random.Generator
    ):
        self.ports = ports
        self.replicas = replicas
        self.load = load
        self._rng = rng
        self._chunk = max(1, _ARRIVAL_CHUNK_CELLS // max(1, replicas * ports))
        self._active: Optional[np.ndarray] = None
        self._dest: Optional[np.ndarray] = None
        self._cursor = 0

    def slot_cells(self) -> np.ndarray:
        """The next slot's arrival cells (see :func:`cube_cells`)."""
        if self._active is None or self._cursor >= self._active.shape[0]:
            shape = (self._chunk, self.replicas, self.ports)
            self._active = self._rng.random(shape) < self.load
            self._dest = self._rng.integers(0, self.ports, size=shape)
            self._cursor = 0
        # Lines b * N + i ascend, so their cells do too.
        lines = self._active[self._cursor].ravel().nonzero()[0]
        cells = lines * self.ports + self._dest[self._cursor].take(lines)
        self._cursor += 1
        return cells


class _ObjectCompatArrivals:
    """Arrival streams that replicate UniformTraffic draw for draw.

    Replica b consumes ``default_rng(arrival_seeds[b])`` exactly as
    :class:`repro.traffic.uniform.UniformTraffic` does -- one
    ``random(N)`` per slot, then one destination integer per active
    input -- so a fast-path replica and an object-backend run given the
    same seed see byte-identical offered traffic (the basis of the
    seed-for-seed parity tests).  A ``None`` seed falls back as
    UniformTraffic's does, to ``default_seed("traffic/uniform")``.
    """

    def __init__(
        self, ports: int, load: float, arrival_seeds: Sequence[Optional[int]]
    ):
        self.ports = ports
        self.replicas = len(arrival_seeds)
        self.load = load
        fallback = default_seed("traffic/uniform")
        self._rngs = [
            np.random.default_rng(fallback if seed is None else seed)
            for seed in arrival_seeds
        ]

    def slot_cells(self) -> np.ndarray:
        """The next slot's arrival cells (see :func:`cube_cells`)."""
        n = self.ports
        cells = []
        for b, rng in enumerate(self._rngs):
            active = (rng.random(n) < self.load).nonzero()[0]
            if active.size:
                dest = rng.integers(n, size=active.size)
                cells.append((active + b * n) * n + dest)
        return np.concatenate(cells) if cells else NO_CELLS


class ScenarioArrivals:
    """Arrival cells from B arbitrary TrafficSource objects, compiled.

    Replica b is driven by ``sources[b]`` (any object implementing the
    protocol -- notably :class:`repro.traffic.flows.FlowTraffic`).
    Arrivals are open-loop, so they are generated ahead of the slot
    loop, a chunk of slots at a time, as flat ``(slot, VOQ, flow)``
    arrays through :func:`repro.traffic.flows.arrivals_batch`; a slot's
    cells are then its slice of the sorted VOQ array, no copy.

    Because the fast path is count-based it forgets cell identity at
    arrival, so for flow-aware sources this adapter shadows each VOQ
    with the object backend's exact service discipline (a
    :class:`repro.switch.buffers.VOQBuffer` serves the flows of one
    (input, output) pair round-robin, each flow internally FIFO), held
    in arrays: per flow the cells queued and the cells yet to depart,
    per VOQ a :class:`repro.sim.flowring.FlowRing` row of eligible
    flows.  Replaying that discipline on the matched pairs
    makes per-flow departure attribution -- hence completion slots and
    FCT -- slot-exact rather than estimated.

    ``slots`` is the number of arrival-carrying slots: nothing is ever
    compiled past it, so the sources' flow records cover exactly the
    slots the run offered.
    """

    def __init__(self, ports: int, sources: Sequence, slots: int):
        first: Dict[int, int] = {}
        for b, src in enumerate(sources):
            if src.ports != ports:
                raise ValueError(
                    f"sources[{b}] is for {src.ports} ports, fastpath has {ports}"
                )
            # One stateful source compiled for two replicas would split
            # its draws between them and count its flows in both.
            while isinstance(src, WindowedSource):
                src = src.source
            a = first.setdefault(id(src), b)
            if a != b:
                raise ValueError(
                    f"sources[{a}] and sources[{b}] are the same source: "
                    f"give every replica its own"
                )
        self.ports = ports
        self.replicas = len(sources)
        self.sources = list(sources)
        self.track_flows = all(
            callable(getattr(src, "flow_records", None)) for src in sources
        )
        self._slots = slots
        self._chunk = max(1, _SCENARIO_CHUNK_CELLS // (self.replicas * ports))
        self._slot = 0
        # The compiled chunk: cells of slots [_chunk_start, _chunk_end)
        # sorted by (slot, VOQ), slot k's cells at _offsets[k]:_offsets[k+1].
        self._chunk_start = 0
        self._chunk_end = 0
        self._offsets: List[int] = [0]
        self._voq = self._flow = np.zeros(0, dtype=np.int64)
        # Occurrence number of each cell among its slot's cells for the
        # same VOQ; None while no (slot, VOQ) pair repeats in the chunk.
        self._rank: Optional[np.ndarray] = None
        # Per flow, indexed by a run-wide flow number (sources name
        # flows by arbitrary ints; _flow_index[b] maps replica b's).
        self._flow_index: List[Dict[int, int]] = [{} for _ in sources]
        self._flows = 0
        self._flow_voq = np.full(1024, -1, dtype=np.int64)
        self._queued = np.zeros(1024, dtype=np.int64)
        self._left = np.zeros(1024, dtype=np.int64)
        self._completion = np.full(1024, -1, dtype=np.int64)
        # Per VOQ, the round-robin list of eligible flows (mirroring
        # VOQBuffer._eligible); crowded VOQs widen the rings on demand.
        self._eligible = FlowRing(self.replicas * ports * ports, 4)

    # -- compile ---------------------------------------------------------

    def _compile(self, slot0: int) -> None:
        """Generate and index the cells of the next chunk of slots."""
        n = self.ports
        voqs = self.replicas * n * n
        count = min(self._chunk, self._slots - slot0)
        keys, flows = [], []
        for b, src in enumerate(self.sources):
            slot, inputs, outputs, flow_ids = arrivals_batch(src, slot0, count)
            if slot.size == 0:
                continue
            for name, port in (("input", inputs), ("output", outputs)):
                if ((port < 0) | (port >= n)).any():
                    raise ValueError(
                        f"sources[{b}] emitted a cell with {name} port "
                        f"outside [0, {n})"
                    )
            voq = (b * n + inputs) * n + outputs
            keys.append((slot - slot0) * voqs + voq)
            if self.track_flows:
                flows.append(self._flow_numbers(b, src, flow_ids, voq))
        empty = np.zeros(0, dtype=np.int64)
        key = np.concatenate(keys) if keys else empty
        # Stable, so cells of one VOQ keep their emission order.
        order = np.argsort(key, kind="stable")
        key = key[order]
        self._flow = np.concatenate(flows)[order] if flows else empty
        self._offsets = np.searchsorted(
            key, np.arange(count + 1) * voqs
        ).tolist()
        repeat = key[1:] == key[:-1]
        if repeat.any():
            # Position within each run of equal keys.
            index = np.arange(key.size)
            run_start = np.maximum.accumulate(
                np.where(np.concatenate(([False], repeat)), 0, index)
            )
            self._rank = index - run_start
        else:
            self._rank = None
        key %= voqs
        self._voq = key
        self._chunk_start = slot0
        self._chunk_end = slot0 + count

    def _flow_numbers(
        self, b: int, src, flow_ids: np.ndarray, voq: np.ndarray
    ) -> np.ndarray:
        """Run-wide flow numbers of replica b's cells, registering new flows."""
        index = self._flow_index[b]
        unique, inverse = np.unique(flow_ids, return_inverse=True)
        unique = unique.tolist()
        fresh = [flow_id for flow_id in unique if flow_id not in index]
        if fresh:
            records = src.flow_records()
            # KeyError here names a cell of a flow the source never recorded.
            sizes = [records[flow_id].size for flow_id in fresh]
            first = self._flows
            self._flows += len(fresh)
            while self._flows > self._left.size:
                self._flow_voq = _doubled(self._flow_voq, -1)
                self._queued = _doubled(self._queued, 0)
                self._left = _doubled(self._left, 0)
                self._completion = _doubled(self._completion, -1)
            self._left[first : self._flows] = sizes
            index.update(zip(fresh, range(first, self._flows)))
        numbers = np.array([index[flow_id] for flow_id in unique])[inverse]
        unfiled = self._flow_voq[numbers] < 0
        self._flow_voq[numbers[unfiled]] = voq[unfiled]
        if (self._flow_voq[numbers] != voq).any():
            # As VOQBuffer.enqueue: a flow's cells share one queue.
            raise ValueError(
                f"sources[{b}] moved a flow to another (input, output) pair; "
                f"all cells of a flow must be routed alike"
            )
        return numbers

    # -- the slot loop ---------------------------------------------------

    def slot_cells(self) -> np.ndarray:
        """The next slot's arrival cells (see :func:`cube_cells`)."""
        slot = self._slot
        self._slot += 1
        if slot >= self._chunk_end:
            self._compile(slot)
        lo = self._offsets[slot - self._chunk_start]
        hi = self._offsets[slot - self._chunk_start + 1]
        voq = self._voq[lo:hi]
        if self.track_flows and hi > lo:
            flow = self._flow[lo:hi]
            if self._rank is None:
                self._enqueue(voq, flow)
            else:
                # A source put several cells into one VOQ this slot:
                # take them one per VOQ at a time, in emission order.
                rank = self._rank[lo:hi]
                for r in range(int(rank.max()) + 1):
                    turn = rank == r
                    self._enqueue(voq[turn], flow[turn])
        return voq

    def _enqueue(self, voq: np.ndarray, flow: np.ndarray) -> None:
        """One cell per listed flow arrives (VOQBuffer.enqueue).

        ``voq`` (hence ``flow``) must not repeat, so plain fancy-indexed
        updates are safe.
        """
        queued = self._queued[flow]
        self._queued[flow] = queued + 1
        # Empty -> non-empty: the flow joins the back of its VOQ's list.
        joins = queued == 0
        self._eligible.append(voq[joins], flow[joins])

    def on_departures(
        self, bb: np.ndarray, ii: np.ndarray, jj: np.ndarray, slot: int
    ) -> None:
        """Serve each matched VOQ's next round-robin flow (VOQBuffer.dequeue).

        A crossbar match takes at most one cell per (replica, input), so
        the VOQs -- and the flows at their heads -- never repeat.
        """
        if not self.track_flows:
            return
        voq = (bb * self.ports + ii) * self.ports + jj
        try:
            flow = self._eligible.pop(voq)
        except EmptyRing:
            raise IndexError(
                f"slot {slot}: a cell departed from a VOQ with no eligible flow"
            ) from None
        queued = self._queued[flow] - 1
        self._queued[flow] = queued
        # Still has cells: rotate to the back (round-robin service).
        stays = queued > 0
        self._eligible.rejoin(voq[stays], flow[stays])
        left = self._left[flow] - 1
        self._left[flow] = left
        self._completion[flow[left == 0]] = slot

    def fct_stats(self, warmup: int) -> Optional[FlowStats]:
        """Pooled per-flow completion stats (None for cell-level sources)."""
        if not self.track_flows:
            return None
        fct = FlowStats(warmup=warmup)
        completion = self._completion.tolist()
        for b, src in enumerate(self.sources):
            index = self._flow_index[b]
            for flow_id, record in src.flow_records().items():
                number = index.get(flow_id)
                if number is not None and completion[number] >= 0:
                    fct.record(record.size, record.start_slot, completion[number])
                else:
                    fct.incomplete += 1
        return fct


def _doubled(array: np.ndarray, fill: int) -> np.ndarray:
    """``array`` at twice the length, the new half set to ``fill``."""
    return np.concatenate((array, np.full(array.size, fill, dtype=array.dtype)))


def uniform_arrivals(
    ports: int, replicas: int, load: float, seeds, rng, seeds_name="arrival_seeds"
):
    """The Bernoulli/uniform arrival source of a run: per-replica
    object-compatible streams given ``seeds`` (length B; ``seeds_name``
    is the caller's spelling, for the error), else the batched ``rng``."""
    if seeds is None:
        return _BatchedArrivals(ports, replicas, load, rng)
    if len(seeds) != replicas:
        raise ValueError(
            f"{seeds_name} has {len(seeds)} entries for {replicas} replicas"
        )
    return _ObjectCompatArrivals(ports, load, seeds)


class PoolLedger:
    """Measurement-window accounting of one ``(B, N, N)`` buffer pool.

    :func:`run_slots` calls :meth:`update` once per slot >= warmup with
    the slot's arrival cells (:func:`cube_cells`) and departure triple,
    so the (B,) counters ``offered``, ``carried`` and
    ``backlog_integral`` (the Little's-law numerator) ignore the slots
    before it.  No counter reduces the pool: :meth:`mark` takes the
    (B,) ``backlog`` once, at the start of slot ``warmup`` and before
    any update, and every slot moves it by its arrivals minus its
    departures.  ``warmup_mode="arrival"`` also keys delay on the
    *arrival* slot, as :class:`repro.sim.stats.DelayStats` does: cells
    queued at the start of slot ``warmup`` are snapshotted per VOQ as
    ``legacy`` (per-VOQ FIFO order, exact when each connection carries
    one flow, makes them depart before anything arriving later), their
    departures kept out of ``delay_cells`` and their running (B,) total
    ``legacy_backlog`` out of ``delay_integral`` (both None in slot
    mode); once the last of them has departed the ledger stops looking.
    ``by_port`` adds the (B, N) ``arrivals_by_input`` /
    ``departures_by_output`` -- only for results that expose them.

    :meth:`update` only queues its slot.  :meth:`settle` folds the queue
    into running totals per *line* (per replica, or per replica and
    port with ``by_port``): arrivals, departures, and arrivals less
    departures summed over the end-of-slot samples, so the backlog
    integral is the backlog at :meth:`mark` times the slots since plus
    that held sum.  A settle runs at ``_SETTLE_SLOTS`` queued slots or
    ``_SETTLE_CELLS`` queued cells plus departures, and at every counter
    read, so a reader sees every slot updated so far; a wide slot is
    folded at once, alone.
    """

    def __init__(self, pool: np.ndarray, warmup_mode: str, by_port: bool = False):
        replicas, ports, _ = pool.shape
        self.pool = pool
        self.warmup_mode = warmup_mode
        self.by_port = by_port
        lines = replicas * ports if by_port else replicas
        self._arrivals = np.zeros(lines, dtype=np.int64)
        self._departures = np.zeros(lines, dtype=np.int64)
        # Arrivals less departures, summed over the end-of-slot samples.
        self._held = np.zeros(lines, dtype=np.int64)
        # Slots settled since mark(), and the (B,) backlog at mark().
        self._slots = 0
        self._start = np.zeros(replicas, dtype=np.int64)
        self._legacy: Optional[np.ndarray] = None
        # Arrival mode: (B,) legacy departures so far, and the legacy
        # backlog summed over the end-of-slot samples.
        self._legacy_gone = self._legacy_integral = None
        if warmup_mode == "arrival":
            self._legacy_gone = np.zeros(replicas, dtype=np.int64)
            self._legacy_integral = np.zeros(replicas, dtype=np.int64)
        # True while a legacy cell is still queued.
        self._tracking = False
        # The queued slots, and the arrival cells plus departures they hold.
        self._cells: List[np.ndarray] = []
        self._departed: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._queued = 0

    def _per_replica(self, lines: np.ndarray) -> np.ndarray:
        return lines.reshape(self.pool.shape[0], -1).sum(axis=1)

    @property
    def offered(self) -> np.ndarray:
        self.settle()
        return self._per_replica(self._arrivals)

    @property
    def carried(self) -> np.ndarray:
        self.settle()
        return self._per_replica(self._departures)

    @property
    def backlog(self) -> np.ndarray:
        return self._start + self.offered - self.carried

    @property
    def backlog_integral(self) -> np.ndarray:
        self.settle()
        return self._slots * self._start + self._per_replica(self._held)

    @property
    def arrivals_by_input(self) -> Optional[np.ndarray]:
        self.settle()
        return self._arrivals.reshape(self.pool.shape[:2]) if self.by_port else None

    @property
    def departures_by_output(self) -> Optional[np.ndarray]:
        self.settle()
        return self._departures.reshape(self.pool.shape[:2]) if self.by_port else None

    @property
    def legacy(self) -> Optional[np.ndarray]:
        self.settle()
        return self._legacy

    @property
    def legacy_backlog(self) -> Optional[np.ndarray]:
        self.settle()
        return None if self._legacy is None else self._start - self._legacy_gone

    @property
    def delay_cells(self) -> Optional[np.ndarray]:
        if self._legacy_gone is None:
            return None
        return self.carried - self._legacy_gone

    @property
    def delay_integral(self) -> Optional[np.ndarray]:
        if self._legacy_integral is None:
            return None
        return self.backlog_integral - self._legacy_integral

    def mark(self) -> None:
        """Start of slot ``warmup``: snapshot the cells that predate it."""
        if self._slots or self._cells:
            raise RuntimeError("mark() must come before the first update()")
        self._start = self.pool.sum(axis=(1, 2))
        if self._legacy_gone is not None:
            self._legacy = self.pool.copy()
            self._tracking = bool(self._start.any())

    def update(self, cells: np.ndarray, departed) -> None:
        """Queue one in-window slot's arrivals and departures; a wide
        slot is folded at once, alone."""
        size = cells.size + departed[0].size
        if size > _WIDE_SLOT:
            if self._cells:
                self.settle()
            self._fold_slot(cells, departed)
            return
        self._cells.append(cells)
        self._departed.append(departed)
        self._queued += size
        if self._queued >= _SETTLE_CELLS or len(self._cells) == _SETTLE_SLOTS:
            self.settle()

    def settle(self) -> None:
        """Fold the queued slots into the running totals, one vectorized
        pass per array.

        Queued slot t of S adds to a line's totals, and the addition
        stays in the S - t end-of-slot samples from t on, so over the
        queue a line's held sum gains S times its arrivals less its
        departures before the queue, plus each queued arrival weighted
        by S - t, less each departure weighted so: one weighted
        ``bincount`` (float64, exact: its sums stay far below 2**53).
        A queue too short to pay for that is folded slot by slot.
        """
        slots = len(self._cells)
        if slots < _BATCH_MIN:
            for cells, departed in zip(self._cells, self._departed):
                self._fold_slot(cells, departed)
        else:
            departed = self._departed
            cells = np.concatenate(self._cells)
            bb = np.concatenate([d[0] for d in departed])
            jj = np.concatenate([d[2] for d in departed])
            line, key = self._line_keys(cells, bb, jj)
            lines = self._arrivals.size
            weight = np.arange(slots, 0, -1, dtype=np.float64)
            weight = np.repeat(
                np.concatenate((weight, -weight)),
                [c.size for c in self._cells] + [d[0].size for d in departed],
            )
            weighted = np.bincount(
                np.concatenate((line, key)), weights=weight, minlength=lines
            )
            self._held += slots * (self._arrivals - self._departures)
            # Exact integers in float64: the cast truncates nothing.
            np.add(self._held, weighted, out=self._held, casting="unsafe")
            self._arrivals += np.bincount(line, minlength=lines)
            self._departures += np.bincount(key, minlength=lines)
            self._slots += slots
            if self._tracking:
                ii = np.concatenate([d[1] for d in departed])
                self._strike_legacy(slots, bb, ii, jj, -weight[cells.size:])
        self._cells = []
        self._departed = []
        self._queued = 0

    def _fold_slot(self, cells: np.ndarray, departed) -> None:
        """Fold one slot: its held sum needs no weights."""
        bb, ii, jj = departed
        line, key = self._line_keys(cells, bb, jj)
        arrivals, departures = self._arrivals, self._departures
        arrivals += np.bincount(line, minlength=arrivals.size)
        departures += np.bincount(key, minlength=arrivals.size)
        self._held += arrivals - departures
        self._slots += 1
        if self._tracking:
            self._strike_legacy(1, bb, ii, jj, None)

    def _line_keys(self, cells, bb, jj):
        """The line of each arrival cell and of each departure."""
        ports = self.pool.shape[1]
        if self.by_port:
            return cells // ports, bb * ports + jj
        return cells // (ports * ports), bb

    def _strike_legacy(self, slots: int, bb, ii, jj, weight) -> None:
        """Strike the legacy cells among ``slots`` slots' departures from
        ``legacy``, given each departure's S - t ``weight`` (None for a
        single slot), and account the legacy backlog over those slots:
        its start S times, less each legacy departure weighted so.

        A VOQ's first ``legacy[VOQ]`` departures in time order are its
        legacy cells.  One slot departs a VOQ at most once, but a queue
        of slots may depart it more often than it has legacy cells left:
        the decrement overdraws such a VOQ, and its departures past the
        first ``legacy[VOQ]`` are not legacy.
        """
        replicas, ports, _ = self.pool.shape
        left = self._legacy.reshape(-1)
        voq = (bb * ports + ii) * ports + jj
        ahead = left[voq]
        legacy = ahead > 0
        hit = voq[legacy]
        np.subtract.at(left, hit, 1)
        if weight is not None:
            overdrawn = left[hit] < 0
            if overdrawn.any():
                where = legacy.nonzero()[0][overdrawn]
                where = where[np.argsort(voq[where], kind="stable")]
                same = voq[where][1:] == voq[where][:-1]
                index = np.arange(where.size)
                first = np.maximum.accumulate(
                    np.where(np.concatenate(([False], same)), 0, index)
                )
                # Rank in time order among the VOQ's departures.
                legacy[where[index - first >= ahead[where]]] = False
                left[voq[where]] = 0
        gone = np.bincount(bb[legacy], minlength=replicas)
        if weight is None:
            weighted = gone
        else:
            weighted = np.bincount(
                bb[legacy], weights=weight[legacy], minlength=replicas
            ).astype(np.int64)
        self._legacy_integral += slots * (self._start - self._legacy_gone)
        self._legacy_integral -= weighted
        self._legacy_gone += gone
        self._tracking = bool((self._legacy_gone < self._start).any())

    @staticmethod
    def pooled_delay(backlog_integral, carried, delay_integral, delay_cells) -> float:
        """Little's-law mean delay in slots, pooled over replicas: the
        arrival-keyed pair when present, else the whole-slot pair."""
        if delay_cells is not None:
            backlog_integral, carried = delay_integral, delay_cells
        cells = int(carried.sum())
        return float(backlog_integral.sum()) / cells if cells else 0.0


def check_window(
    load: float, slots: int, drain_slots: int, warmup: int, warmup_mode: str,
    load_name: str = "load",
) -> None:
    """Reject a load, slot window or warm-up mode no run can use."""
    if not 0.0 <= load <= 1.0:
        raise ValueError(f"{load_name} must be in [0, 1], got {load}")
    if slots <= 0:
        raise ValueError(f"slots must be positive, got {slots}")
    if drain_slots < 0:
        raise ValueError(f"drain_slots must be >= 0, got {drain_slots}")
    if not 0 <= warmup < slots + drain_slots:
        raise ValueError(
            f"warmup must be in [0, {slots + drain_slots}), got {warmup}"
        )
    if warmup_mode not in ("slot", "arrival"):
        raise ValueError(
            f"warmup_mode must be 'slot' or 'arrival', got {warmup_mode!r}"
        )


def run_slots(
    switch, sources: Sequence, ledgers: Sequence[PoolLedger],
    slots: int, drain_slots: int, warmup: int,
    check: bool = False, probe=None, timer=NULL_PHASE_TIMER, observer=None,
) -> Tuple[int, int]:
    """The slot loop of the crossbar family, run inside the ``run`` span.

    One slot is ``arrivals -> [claim] -> match -> depart -> account``:
    every source's ``slot_cells()`` yields its pool's arrival cells
    (:func:`cube_cells`; :data:`NO_CELLS` in the ``drain_slots``
    arrival-free slots after ``slots``); the ledgers
    :meth:`~PoolLedger.mark` at slot ``warmup``;
    ``switch.advance(slot, arrivals, check)`` lands the arrivals,
    claims, matches and departs, returning one ``(bb, ii, jj)``
    departure triple per pool; ``observer(slot, departed)`` sees every
    slot, warm-up included; ``switch.trace(probe, slot, departed)``
    emits the switch's own events; from slot ``warmup`` on each ledger
    queues its pool's slot, settling the queue in one vectorized pass
    at its slot cap or cell budget, and once more after the last slot,
    all inside the ``update`` phase.  ``sources[k]`` feeds, and
    ``ledgers[k]`` accounts, the k-th pool in the order ``advance``
    takes and returns them.  The loop runs under :func:`repro.core.batch.read_ahead`: in
    its window a thread draws the kernel's key cubes ahead, and it is
    joined before this returns or raises.  Returns the run's
    ``(replica-slots, carried cells)``, the totals its
    ``phase_profile`` event reports once the span is closed.
    """
    traced = probe is not None and probe.enabled
    if traced:
        switch.scheduler.attach_probe(probe)
    drained = [NO_CELLS] * len(sources)
    with read_ahead(switch.scheduler):
        for slot in range(slots + drain_slots):
            with timer.phase("arrivals"):
                arrivals = (
                    [s.slot_cells() for s in sources] if slot < slots else drained
                )
            if slot == warmup:
                for ledger in ledgers:
                    ledger.mark()
            if traced:
                # Before the kernel, so its per-iteration events see the
                # right slot and sampling flag; backlog is the pre-arrival
                # occupancy (the object backends' convention).
                probe.begin_slot(
                    slot,
                    arrivals=sum(cells.size for cells in arrivals),
                    backlog=sum(int(ledger.pool.sum()) for ledger in ledgers),
                )
            with timer.phase("kernel"):
                departed = switch.advance(slot, arrivals, check)
            if observer is not None:
                observer(slot, departed)
            if traced:
                switch.trace(probe, slot, departed)
            if slot < warmup:
                continue
            with timer.phase("update"):
                for ledger, cells, served in zip(ledgers, arrivals, departed):
                    ledger.update(cells, served)
        with timer.phase("update"):
            for ledger in ledgers:
                ledger.settle()
    if traced:
        switch.scheduler.attach_probe(None)
    return (
        switch.replicas * (slots + drain_slots),
        sum(int(ledger.carried.sum()) for ledger in ledgers),
    )


def run_fastpath(
    ports: int,
    load: float,
    slots: int,
    replicas: int = 1,
    warmup: int = 0,
    iterations: Optional[int] = AN2_ITERATIONS,
    accept: AcceptPolicy = "random",
    output_capacity: int = 1,
    scheduler: str = "pim",
    seed: int = 0,
    arrival_seeds: Optional[Sequence[Optional[int]]] = None,
    sources: Optional[Sequence] = None,
    drain_slots: int = 0,
    check: bool = False,
    probe=None,
    warmup_mode: str = "slot",
    phase_timer=None,
) -> FastpathResult:
    """Simulate B replicas of an N x N PIM crossbar, vectorized.

    Parameters
    ----------
    ports, load, slots:
        Switch size N, per-link Bernoulli offered load, and number of
        arrival-carrying slots.
    replicas:
        Independent replicas B advanced in lockstep (one batched
        matching call per slot).
    warmup:
        Events in slots < warmup are excluded from every counter,
        matching the object backend's transient elimination.
    iterations, accept, output_capacity:
        Kernel configuration, as
        :func:`repro.core.batch.build_batch_scheduler` (``accept`` is
        PIM-only; ``iterations`` maps to each kernel's per-slot round
        budget).
    scheduler:
        Batched kernel registry name (``repro.core.BATCH_SCHEDULERS``:
        "pim", "islip", "lqf", "wavefront", "qps").  Every kernel is
        handed the VOQ depth counts; occupancy-aware ones read them.
    seed:
        Root seed; arrival and matching streams are derived via
        :class:`repro.sim.rng.RandomStreams` ("fastpath/arrivals",
        "fastpath/<scheduler>").
    arrival_seeds:
        When given (length B), replica b's arrivals replicate
        ``UniformTraffic(ports, load, seed=arrival_seeds[b])`` draw for
        draw instead of using the batched stream -- the seed-for-seed
        parity mode (a ``None`` entry too: both fall back to
        ``default_seed("traffic/uniform")``).
    sources:
        Scenario mode (mutually exclusive with ``arrival_seeds``): a
        length-B sequence of TrafficSource objects; replica b's
        arrivals are ``sources[b]``'s, generated ahead of the slot loop
        in chunks through ``arrivals_batch`` (sources without one have
        ``arrivals(slot)`` called once per slot).  Each source
        is ``reset()`` first (rerun contract), so an identically-seeded
        source drives the object backend to the same trace.  ``load``
        is not used for generation (pass the nominal load for the
        record).  Flow-aware sources (``flow_records()``) additionally
        produce slot-exact per-flow completion-time stats in the
        result's ``fct``.
    drain_slots:
        Arrival-free slots appended after ``slots`` so the backlog can
        flush; with enough drain the Little's-law delay identity is
        exact rather than a boundary-truncated estimate.
    check:
        Assert occupancy invariants every slot (tests; slows the run).
    probe:
        Optional :class:`repro.obs.probe.Probe`.  When enabled, every
        slot emits ``SlotBegin`` (arrivals and backlog pooled over
        replicas) and ``CrossbarTransfer`` events; slots selected by
        the probe's stride additionally emit the batched PIM
        per-iteration anatomy (counts pooled over the B replicas) and
        one pooled ``VoqSnapshot`` (``replica == -1``).  Build the probe
        with ``stride=k`` (e.g. 64) so tracing samples the volume-heavy
        events without serializing every slot.  The disabled default
        costs one boolean per slot, preserving the vectorized speedup.
    warmup_mode:
        How warmup truncation attributes delay.  ``"slot"`` (default)
        keeps the historical convention: every counter simply ignores
        slots < warmup, so cells that arrived *before* warmup but
        departed after still contribute departures (and their residual
        queueing) to the Little's-law estimate.  ``"arrival"`` matches
        :class:`repro.sim.stats.DelayStats`, which keys its warmup
        filter on the *arrival* slot (see :class:`PoolLedger`), so over
        a drained run ``mean_delay`` equals the object backend's
        arrival-keyed mean exactly.
    phase_timer:
        Optional :class:`repro.obs.perf.PhaseTimer`.  When enabled the
        run is profiled under a ``run`` root span with ``run/compile``
        (scheduler + arrival-source construction), ``run/arrivals``
        (drawing slot cells), ``run/kernel`` (the batched matching
        step) and ``run/update`` (counter accumulation) children; the
        end-of-run breakdown is also emitted through an enabled probe
        as a ``phase_profile`` event.  Disabled (the default) it costs
        one attribute read per span.

    Returns a :class:`FastpathResult`.
    """
    check_window(load, slots, drain_slots, warmup, warmup_mode)
    timer = phase_timer or NULL_PHASE_TIMER
    with timer.phase("run"):
        with timer.phase("compile"):
            streams = RandomStreams(seed)
            kernel = build_batch_scheduler(
                scheduler,
                replicas=replicas,
                ports=ports,
                iterations=iterations,
                accept=accept,
                output_capacity=output_capacity,
                rng=streams.get(f"fastpath/{scheduler}"),
                track_sizes=False,
            )
            switch = FastpathCrossbar(ports, replicas, kernel)
            observer = None
            if sources is not None:
                if arrival_seeds is not None:
                    raise ValueError(
                        "sources and arrival_seeds are mutually exclusive"
                    )
                if len(sources) != replicas:
                    raise ValueError(
                        f"sources has {len(sources)} entries for "
                        f"{replicas} replicas"
                    )
                for src in sources:
                    reset = getattr(src, "reset", None)
                    if callable(reset):
                        reset()
                source = ScenarioArrivals(ports, sources, slots)

                # Flow bookkeeping covers the whole run; FlowStats does
                # its own arrival-keyed warmup filtering at the end.
                def observer(slot, departed):
                    source.on_departures(*departed[0], slot)

            else:
                source = uniform_arrivals(
                    ports, replicas, load, arrival_seeds,
                    streams.get("fastpath/arrivals"),
                )
        ledger = PoolLedger(switch.occupancy, warmup_mode, by_port=True)
        totals = run_slots(
            switch, [source], [ledger], slots, drain_slots, warmup,
            check=check, probe=probe, timer=timer, observer=observer,
        )
    if probe is not None:
        probe.phase_profile(timer, *totals)
    return FastpathResult.from_ledger(
        switch, ledger, slots, drain_slots, warmup,
        fct=source.fct_stats(warmup) if sources is not None else None,
    )
