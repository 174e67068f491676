"""Count-based, batch-vectorized integrated CBR + VBR simulator.

The object model (:class:`repro.cbr.integrated.IntegratedSwitch`)
reproduces Section 4 -- reserved frame-schedule slots carry CBR cells,
idle reservations are donated, and a PIM pass fills every remaining
input/output pair with VBR -- one replica at a time with per-cell
Python objects.  This module is its fast path, following the same
recipe as :mod:`repro.sim.fastpath`:

- the frame schedule is *compiled once* into a dense ``(F, N)``
  reserved-output array (``reserved[p, i] == j`` when input i holds a
  reservation to output j in frame position p, else ``-1``), so the
  per-slot claim is pure array indexing instead of dict walks;
- the state of B replicas lives in two ``(B, N, N)`` count tensors --
  separate CBR and VBR pools, mirroring the paper's split buffer
  design ("VBR cells use a different set of buffers");
- per slot, the CBR claim is a batched gather (reserved pairs with a
  queued CBR cell depart; the rest are donated), then one masked
  :class:`repro.core.batch.BatchScheduler` kernel call (any registry
  scheduler -- PIM by default) fills the leftover ports with VBR.

Per-class mean delay is recovered by Little's law exactly as in
:mod:`repro.sim.fastpath`, one :class:`~repro.sim.fastpath.PoolLedger`
per pool: the pools are disjoint, so each class's end-of-slot backlog
integral equals the summed delay of that class's cells over a drained
run, in either ``warmup_mode``.

Seed-for-seed parity: with ``replicas=1``, ``vbr_arrival_seeds=[s]``
and ``match_seed=m``, this backend sees byte-identical arrivals and
makes byte-identical VBR matchings to ``IntegratedSwitch`` driven by
``UniformTraffic(seed=s)`` + ``PIMScheduler(seed=m)`` (the CBR claim
phase is deterministic, and ``BatchPIMScheduler`` at B=1 consumes its
stream draw-for-draw like ``PIMScheduler`` for N < 64) -- so per-slot
CBR and VBR departures agree slot for slot.  The Appendix B buffer
bound is enforced exactly as in the object backend: per-input CBR
occupancy is checked after arrivals land every slot and an overflow
raises :class:`repro.cbr.integrated.CBRBufferOverflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cbr.frame import FrameSchedule
from repro.cbr.integrated import (
    BoundSpec,
    CBRBufferOverflow,
    resolve_cbr_buffer_bound,
)
from repro.cbr.reservations import ReservationTable
from repro.core.batch import BatchScheduler, build_batch_scheduler
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy
from repro.obs.perf import NULL_PHASE_TIMER
from repro.sim.fastpath import (
    NO_CELLS,
    PoolLedger,
    ScenarioArrivals,
    check_switch_shape,
    check_window,
    cube_cells,
    run_slots,
    uniform_arrivals,
)
from repro.sim.rng import RandomStreams, derive_seed
from repro.switch.flow import Flow
from repro.traffic.cbr_source import CBRSource

__all__ = [
    "compile_frame_schedule",
    "compile_cbr_pattern",
    "IntegratedFastpath",
    "CbrFastpathResult",
    "run_fastpath_cbr",
]

_EMPTY = np.zeros(0, dtype=np.int64)


def compile_frame_schedule(schedule: FrameSchedule) -> np.ndarray:
    """Compile a frame schedule into a dense ``(F, N)`` claim table.

    ``reserved[p, i]`` is the output reserved for input i in frame
    position p, or ``-1`` when input i holds no reservation there.
    Because each slot's pairings form a partial matching, one int per
    (position, input) losslessly encodes the whole schedule; the
    per-slot claim then never touches the schedule's dicts.
    """
    reserved = np.full((schedule.frame_slots, schedule.ports), -1, dtype=np.int64)
    for position in range(schedule.frame_slots):
        for i, j in schedule.pairings(position):
            reserved[position, i] = j
    return reserved


def compile_cbr_pattern(
    ports: int, flows: Sequence[Flow], frame_slots: int
) -> np.ndarray:
    """Per-frame-position CBR arrival counts, ``(F, N, N)``.

    Replicates :class:`repro.traffic.cbr_source.CBRSource` with
    ``jitter=False`` exactly: flow f emits its ``cells_per_frame`` cells
    at the evenly spaced offsets ``(arange(k) * F) // k`` of every
    frame, so ``pattern[slot % F]`` is the slot's arrival count matrix
    for every replica at once (the deterministic source consumes no
    randomness).
    """
    pattern = np.zeros((frame_slots, ports, ports), dtype=np.int64)
    for flow in flows:
        if not flow.is_cbr:
            raise ValueError(f"flow {flow.flow_id} is not CBR")
        k = flow.cells_per_frame
        if k > frame_slots:
            raise ValueError(
                f"flow {flow.flow_id} reserves {k} cells in a "
                f"{frame_slots}-slot frame"
            )
        for offset in (np.arange(k) * frame_slots) // k:
            pattern[offset, flow.src, flow.dst] += 1
    return pattern


class IntegratedFastpath:
    """Count-based state of B replicas of the integrated CBR+VBR switch.

    Two ``(B, N, N)`` tensors hold the class-separated buffer pools;
    :meth:`step` advances all replicas one slot with the object
    backend's timing: arrivals land, the Appendix B bound is checked,
    reserved pairs with queued CBR cells depart (idle reservations are
    donated), and a masked batched PIM pass fills the remaining ports
    with VBR cells.

    Parameters
    ----------
    ports, replicas, frame_slots:
        Switch size N, batch size B, frame length F.
    reserved:
        Compiled ``(F, N)`` claim table (:func:`compile_frame_schedule`).
    scheduler:
        A ``replicas x ports`` :class:`repro.core.batch.BatchScheduler`
        kernel for the VBR gap fill (any registry kernel works; the
        claim-phase mask keeps it off reserved inputs/outputs).
    cbr_buffer_bound:
        Optional per-input ``(N,)`` bound vector (already resolved);
        ``None`` disables enforcement.
    """

    def __init__(
        self,
        ports: int,
        replicas: int,
        frame_slots: int,
        reserved: np.ndarray,
        scheduler: BatchScheduler,
        cbr_buffer_bound: Optional[np.ndarray] = None,
    ):
        check_switch_shape(ports, replicas, scheduler)
        reserved = np.asarray(reserved, dtype=np.int64)
        if reserved.shape != (frame_slots, ports):
            raise ValueError(
                f"reserved table must have shape ({frame_slots}, {ports}), "
                f"got {reserved.shape}"
            )
        self.ports = ports
        self.replicas = replicas
        self.frame_slots = frame_slots
        self.reserved = reserved
        self.scheduler = scheduler
        self.cbr_buffer_bound = cbr_buffer_bound
        self.cbr = np.zeros((replicas, ports, ports), dtype=np.int64)
        self.vbr = np.zeros((replicas, ports, ports), dtype=np.int64)
        # Per-input CBR occupancy, ``cbr.sum(axis=2)`` kept by arrivals
        # and claims: the Appendix B check reads it every slot.
        self.cbr_per_input = np.zeros((replicas, ports), dtype=np.int64)
        self.cbr_slots_used = np.zeros(replicas, dtype=np.int64)
        self.cbr_slots_donated = np.zeros(replicas, dtype=np.int64)
        self.peak_cbr_buffer = np.zeros(replicas, dtype=np.int64)
        # Per-position reserved (input, output) index vectors, so the
        # hot loop never recomputes the nonzero scan.
        self._res_inputs: List[np.ndarray] = []
        self._res_outputs: List[np.ndarray] = []
        for position in range(frame_slots):
            inputs = np.nonzero(reserved[position] >= 0)[0]
            self._res_inputs.append(inputs)
            self._res_outputs.append(reserved[position, inputs])

    def step(
        self,
        slot: int,
        cbr_arrivals: Optional[np.ndarray] = None,
        vbr_arrivals: Optional[np.ndarray] = None,
        check: bool = False,
    ) -> Tuple[
        Tuple[np.ndarray, np.ndarray, np.ndarray],
        Tuple[np.ndarray, np.ndarray, np.ndarray],
    ]:
        """Advance one slot; returns per-class departure index arrays.

        ``cbr_arrivals`` / ``vbr_arrivals`` are the slot's (B, N, N)
        non-negative arrival counts per class, or None for none.

        Returns ``((bb_c, ii_c, jj_c), (bb_v, ii_v, jj_v))``: CBR cell
        k departed input ``ii_c[k]`` of replica ``bb_c[k]`` through
        output ``jj_c[k]``, likewise for VBR.

        Raises :class:`CBRBufferOverflow` when a per-input CBR
        occupancy exceeds the bound after this slot's arrivals land.
        """
        cells = []
        for counts, name in ((cbr_arrivals, "CBR"), (vbr_arrivals, "VBR")):
            if counts is None:
                cells.append(NO_CELLS)
                continue
            if check and (np.asarray(counts) < 0).any():
                raise ValueError(f"negative {name} arrival counts")
            cells.append(cube_cells(counts))
        return self.advance(slot, cells, check)

    def advance(self, slot: int, arrivals: Sequence, check: bool = False):
        """:func:`run_slots` stage: one slot of the (CBR, VBR) pools, their
        arrivals given as cells; returns and raises as :meth:`step`."""
        cbr_cells, vbr_cells = arrivals
        np.add.at(self.cbr.reshape(-1), cbr_cells, 1)
        np.add.at(self.vbr.reshape(-1), vbr_cells, 1)
        per_input = self.cbr_per_input
        np.add.at(per_input.reshape(-1), cbr_cells // self.ports, 1)
        np.maximum(self.peak_cbr_buffer, per_input.max(axis=1), out=self.peak_cbr_buffer)
        if self.cbr_buffer_bound is not None:
            over = per_input > self.cbr_buffer_bound
            if over.any():
                b, i = np.argwhere(over)[0]
                raise CBRBufferOverflow(
                    slot,
                    int(i),
                    int(per_input[b, i]),
                    int(self.cbr_buffer_bound[i]),
                    replica=int(b),
                )

        # Phase 1: batched claim of this position's reserved pairings.
        position = slot % self.frame_slots
        res_in = self._res_inputs[position]
        res_out = self._res_outputs[position]
        if res_in.size:
            have = self.cbr[:, res_in, res_out] > 0  # (B, K)
            bb_c, kk = np.nonzero(have)
            ii_c = res_in[kk]
            jj_c = res_out[kk]
            # The slot's pairings form a partial matching, so the
            # claimed (b, i, j) triples are unique per replica and a
            # fancy-indexed decrement is safe.
            self.cbr[bb_c, ii_c, jj_c] -= 1
            per_input[bb_c, ii_c] -= 1
            used = have.sum(axis=1)
            self.cbr_slots_used += used
            self.cbr_slots_donated += res_in.size - used
        else:
            bb_c = ii_c = jj_c = _EMPTY

        # Phase 2: masked batched PIM fills the remaining ports with VBR.
        requests = self.vbr > 0
        if bb_c.size:
            requests[bb_c, ii_c, :] = False
            requests[bb_c, :, jj_c] = False
        # Unmasked depths: kernels read them at requested cells only.
        match = self.scheduler.schedule(requests, self.vbr)
        bb_v, ii_v = np.nonzero(match >= 0)
        jj_v = match[bb_v, ii_v]
        if check:
            if (self.vbr[bb_v, ii_v, jj_v] <= 0).any():
                raise AssertionError("PIM matched an empty VBR VOQ")
            # Queued yet not requested: a row or column the claim masked.
            if not requests[bb_v, ii_v, jj_v].all():
                raise AssertionError("VBR fill collided with a CBR claim")
        self.vbr[bb_v, ii_v, jj_v] -= 1
        if check and ((self.cbr < 0).any() or (self.vbr < 0).any()):
            raise AssertionError("negative VOQ occupancy")
        return (bb_c, ii_c, jj_c), (bb_v, ii_v, jj_v)

    def trace(self, probe, slot: int, departed) -> None:
        """The slot's events after the kernel's own (``probe`` is enabled)."""
        cbr_cells, vbr_cells = (int(cells[0].size) for cells in departed)
        position = slot % self.frame_slots
        reserved = self._res_inputs[position].size * self.replicas
        probe.transfer(cbr_cells + vbr_cells)
        probe.cbr_slot(
            position=position,
            reserved=reserved,
            cbr_cells=cbr_cells,
            vbr_cells=vbr_cells,
            donated=reserved - cbr_cells,
            cbr_backlog=int(self.cbr.sum()),
            vbr_backlog=int(self.vbr.sum()),
            replicas=self.replicas,
        )
        if probe.sampling:
            probe.voq_snapshot((self.cbr + self.vbr).sum(axis=0), replica=-1)

    def backlog(self) -> np.ndarray:
        """(B,) cells buffered per replica, both pools."""
        return self.cbr.sum(axis=(1, 2)) + self.vbr.sum(axis=(1, 2))


@dataclass
class CbrFastpathResult:
    """Aggregates of an integrated fast-path run, per replica and pooled.

    Mirrors the per-class accounting of
    :class:`repro.cbr.integrated.IntegratedResult` (CBR vs VBR delay,
    used/donated reserved slots, peak CBR buffer, enforced bound) with
    the per-replica array layout of
    :class:`repro.sim.fastpath.FastpathResult`.

    Attributes
    ----------
    offered_cbr, offered_vbr, carried_cbr, carried_vbr:
        (B,) per-class arrival/departure counts inside the measurement
        window (slots >= warmup).
    cbr_backlog_integral, vbr_backlog_integral:
        (B,) per-class end-of-slot backlog sums over the window -- the
        Little's-law numerators.
    cbr_slots_used, cbr_slots_donated:
        (B,) reserved slots used by CBR cells / donated to VBR, over
        the *whole* run (matching the object backend's counters).
    peak_cbr_buffer:
        (B,) largest per-input CBR occupancy seen (whole run).
    cbr_buffer_bound:
        Per-input Appendix B bound enforced during the run, or None.
    cbr_delay_cells, cbr_delay_integral, vbr_delay_cells,
    vbr_delay_integral:
        Arrival-keyed warmup accounting ((B,) arrays, ``warmup_mode ==
        "arrival"`` only, else None), as in
        :class:`repro.sim.fastpath.FastpathResult`.
    """

    ports: int
    replicas: int
    frame_slots: int
    slots: int
    drain_slots: int
    warmup: int
    window: int
    offered_cbr: np.ndarray
    offered_vbr: np.ndarray
    carried_cbr: np.ndarray
    carried_vbr: np.ndarray
    cbr_backlog_integral: np.ndarray
    vbr_backlog_integral: np.ndarray
    cbr_slots_used: np.ndarray
    cbr_slots_donated: np.ndarray
    peak_cbr_buffer: np.ndarray
    final_backlog: np.ndarray
    warmup_mode: str = "slot"
    cbr_buffer_bound: Optional[Tuple[int, ...]] = None
    cbr_delay_cells: Optional[np.ndarray] = None
    cbr_delay_integral: Optional[np.ndarray] = None
    vbr_delay_cells: Optional[np.ndarray] = None
    vbr_delay_integral: Optional[np.ndarray] = None

    @property
    def mean_cbr_delay(self) -> float:
        """Pooled mean CBR queueing delay in slots (Little's law)."""
        return PoolLedger.pooled_delay(
            self.cbr_backlog_integral, self.carried_cbr,
            self.cbr_delay_integral, self.cbr_delay_cells,
        )

    @property
    def mean_vbr_delay(self) -> float:
        """Pooled mean VBR queueing delay in slots (Little's law)."""
        return PoolLedger.pooled_delay(
            self.vbr_backlog_integral, self.carried_vbr,
            self.vbr_delay_integral, self.vbr_delay_cells,
        )

    @property
    def mean_delay(self) -> float:
        """Pooled mean delay over both classes."""
        keyed = self.cbr_delay_cells is not None
        return PoolLedger.pooled_delay(
            self.cbr_backlog_integral + self.vbr_backlog_integral,
            self.carried_cbr + self.carried_vbr,
            self.cbr_delay_integral + self.vbr_delay_integral if keyed else None,
            self.cbr_delay_cells + self.vbr_delay_cells if keyed else None,
        )

    @property
    def carried_cells(self) -> np.ndarray:
        """(B,) total departures inside the window, both classes."""
        return self.carried_cbr + self.carried_vbr

    @property
    def offered_cells(self) -> np.ndarray:
        """(B,) total arrivals inside the window, both classes."""
        return self.offered_cbr + self.offered_vbr

    @property
    def throughput(self) -> float:
        """Carried cells per slot per port, pooled over replicas."""
        if self.window == 0:
            return 0.0
        return int(self.carried_cells.sum()) / (
            self.window * self.ports * self.replicas
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        used = int(self.cbr_slots_used.sum())
        donated = int(self.cbr_slots_donated.sum())
        return (
            f"{self.ports}x{self.ports} cbr-fastpath x{self.replicas} replicas, "
            f"F={self.frame_slots}, {self.slots}+{self.drain_slots} slots: "
            f"cbr delay {self.mean_cbr_delay:.2f}, vbr delay "
            f"{self.mean_vbr_delay:.2f} slots; reserved slots used {used}, "
            f"donated {donated}; peak cbr buffer "
            f"{int(self.peak_cbr_buffer.max(initial=0))}"
        )


class _FramePattern:
    """The deterministic CBR emission pattern as an arrival source.

    The pattern consumes no randomness, so every replica sees the same
    arrivals.  Each frame position of :func:`compile_cbr_pattern` is
    compiled once into its arrival cells: the position's VOQs, each
    repeated by its count, tiled across the B replicas.  A slot's
    arrivals are then that read-only array, no copy.
    """

    def __init__(self, pattern: np.ndarray, replicas: int):
        _, ports, _ = pattern.shape
        replica_base = np.arange(replicas)[:, None] * (ports * ports)
        self._cells = []
        for counts in pattern:
            cells = (replica_base + cube_cells(counts)).reshape(-1)
            cells.flags.writeable = False
            self._cells.append(cells)
        self._slot = 0

    def slot_cells(self) -> np.ndarray:
        """The next slot's arrival cells (see :func:`cube_cells`)."""
        cells = self._cells[self._slot % len(self._cells)]
        self._slot += 1
        return cells


def run_fastpath_cbr(
    reservations: ReservationTable,
    vbr_load: float,
    slots: int,
    replicas: int = 1,
    warmup: int = 0,
    warmup_mode: str = "slot",
    iterations: Optional[int] = AN2_ITERATIONS,
    accept: AcceptPolicy = "random",
    scheduler: str = "pim",
    seed: int = 0,
    match_seed: Optional[int] = None,
    vbr_arrival_seeds: Optional[Sequence[Optional[int]]] = None,
    cbr_jitter: bool = False,
    cbr_jitter_seeds: Optional[Sequence[Optional[int]]] = None,
    drain_slots: int = 0,
    check: bool = False,
    probe=None,
    cbr_buffer_bound: BoundSpec = "auto",
    phase_timer=None,
) -> CbrFastpathResult:
    """Simulate B replicas of the integrated CBR+VBR switch, vectorized.

    Parameters
    ----------
    reservations:
        The switch's :class:`ReservationTable`; its frame schedule is
        compiled once and its flows drive the CBR arrival pattern.
    vbr_load:
        Per-link Bernoulli offered VBR load (the Section 3.5 uniform
        workload riding on top of the reserved traffic).
    slots, drain_slots:
        Arrival-carrying slots, plus arrival-free slots appended so
        both pools can flush (making the Little's-law identity exact).
    replicas, warmup, warmup_mode, iterations, accept, check, probe,
    phase_timer:
        As :func:`repro.sim.fastpath.run_fastpath`; ``warmup_mode=
        "arrival"`` tracks legacy cells per class pool, and an enabled
        probe additionally gets one ``cbr_slot`` event per slot.
    scheduler:
        Batched kernel registry name for the VBR gap fill
        (``repro.core.BATCH_SCHEDULERS``); occupancy-aware kernels see
        the VBR queue depths of the unreserved ports.
    seed:
        Root seed; VBR arrival and matching streams derive from it
        ("cbr-fastpath/vbr-arrivals", "cbr-fastpath/<scheduler>").
    match_seed:
        When given, seeds the VBR kernel directly instead of deriving
        from ``seed`` -- pass the object backend's scheduler seed for
        seed-for-seed parity at B=1.
    vbr_arrival_seeds:
        When given (length B), replica b's VBR arrivals replicate
        ``UniformTraffic(ports, vbr_load, seed=...)`` draw for draw.
    cbr_jitter, cbr_jitter_seeds:
        ``False`` (default) uses the deterministic evenly-spaced
        emission pattern, compiled once and shared by every replica
        (it consumes no randomness).  ``True`` drives one jittered
        :class:`CBRSource` per replica, seeded from
        ``cbr_jitter_seeds`` (or derived from ``seed``), each consuming
        its jitter stream draw for draw like an object-backend run
        with the same seed.
    cbr_buffer_bound:
        Appendix B enforcement, as
        :class:`repro.cbr.integrated.IntegratedSwitch`: ``"auto"``
        derives per-input ``2 x input_committed(i)`` from the
        reservation table; an overflow raises
        :class:`CBRBufferOverflow`.

    Returns a :class:`CbrFastpathResult`.
    """
    check_window(vbr_load, slots, drain_slots, warmup, warmup_mode, "vbr_load")
    timer = phase_timer or NULL_PHASE_TIMER
    with timer.phase("run"):
        with timer.phase("compile"):
            ports = reservations.ports
            frame_slots = reservations.frame_slots
            streams = RandomStreams(seed)
            kernel = build_batch_scheduler(
                scheduler,
                replicas=replicas,
                ports=ports,
                iterations=iterations,
                accept=accept,
                rng=np.random.default_rng(match_seed)
                if match_seed is not None
                else streams.get(f"cbr-fastpath/{scheduler}"),
                track_sizes=False,
            )
            bound = resolve_cbr_buffer_bound(
                cbr_buffer_bound, reservations.reserved_matrix()
            )
            switch = IntegratedFastpath(
                ports,
                replicas,
                frame_slots,
                compile_frame_schedule(reservations.schedule),
                kernel,
                cbr_buffer_bound=bound,
            )

            flows = reservations.flows()
            if cbr_jitter:
                if cbr_jitter_seeds is None:
                    cbr_jitter_seeds = [
                        derive_seed(seed, f"cbr-fastpath/jitter/{b}")
                        for b in range(replicas)
                    ]
                elif len(cbr_jitter_seeds) != replicas:
                    raise ValueError(
                        f"cbr_jitter_seeds has {len(cbr_jitter_seeds)} entries "
                        f"for {replicas} replicas"
                    )
                cbr_source = ScenarioArrivals(
                    ports,
                    [
                        CBRSource(ports, flows, frame_slots, jitter=True, seed=s)
                        for s in cbr_jitter_seeds
                    ],
                    slots,
                )
            else:
                cbr_source = _FramePattern(
                    compile_cbr_pattern(ports, flows, frame_slots), replicas
                )
            vbr_source = uniform_arrivals(
                ports, replicas, vbr_load, vbr_arrival_seeds,
                streams.get("cbr-fastpath/vbr-arrivals"), "vbr_arrival_seeds",
            )
        cbr = PoolLedger(switch.cbr, warmup_mode)
        vbr = PoolLedger(switch.vbr, warmup_mode)
        totals = run_slots(
            switch, [cbr_source, vbr_source], [cbr, vbr], slots, drain_slots,
            warmup, check=check, probe=probe, timer=timer,
        )
    if probe is not None:
        probe.phase_profile(timer, *totals)
    return CbrFastpathResult(
        ports=ports,
        replicas=replicas,
        frame_slots=frame_slots,
        slots=slots,
        drain_slots=drain_slots,
        warmup=warmup,
        window=slots + drain_slots - warmup,
        offered_cbr=cbr.offered,
        offered_vbr=vbr.offered,
        carried_cbr=cbr.carried,
        carried_vbr=vbr.carried,
        cbr_backlog_integral=cbr.backlog_integral,
        vbr_backlog_integral=vbr.backlog_integral,
        cbr_slots_used=switch.cbr_slots_used.copy(),
        cbr_slots_donated=switch.cbr_slots_donated.copy(),
        peak_cbr_buffer=switch.peak_cbr_buffer.copy(),
        final_backlog=switch.backlog(),
        warmup_mode=warmup_mode,
        cbr_buffer_bound=tuple(int(b) for b in bound) if bound is not None else None,
        cbr_delay_cells=cbr.delay_cells,
        cbr_delay_integral=cbr.delay_integral,
        vbr_delay_cells=vbr.delay_cells,
        vbr_delay_integral=vbr.delay_integral,
    )
