"""Test-only oracle: the count-cube arrival sources and ledger.

Before arrivals travelled as flat VOQ cells, every source built a
fresh ``(B, N, N)`` int64 count cube per slot, the switches added it to
their pools and ``PoolLedger.update`` reduced whole cubes: the einsum
for per-input arrivals, ``pool.sum`` for the backlog and
``(pool - legacy).sum`` for the arrival-keyed integral.  This module
keeps that code verbatim -- the four sources' ``slot_counts``, the
ledger and ``IntegratedFastpath.step`` -- so
``test_flat_arrivals_reference.py`` can pin the cell path against it:
the same cells, the same generator states, byte-equal counters.  Not a
second production path: nothing under ``src/`` imports it.
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cbr.integrated import CBRBufferOverflow
from repro.sim.fastpath import _ARRIVAL_CHUNK_CELLS, ScenarioArrivals
from repro.sim.fastpath_cbr import IntegratedFastpath

_EMPTY = np.zeros(0, dtype=np.int64)


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

    def slot_counts(self) -> np.ndarray:
        """(B, N, N) arrival counts for the next slot."""
        if self._active is None or self._cursor >= self._active.shape[0]:
            shape = (self._chunk, self.replicas, self.ports)
            self._active = self._rng.random(shape) < self.load
            self._dest = self._rng.integers(0, self.ports, size=shape)
            self._cursor = 0
        active = self._active[self._cursor]
        dest = self._dest[self._cursor]
        self._cursor += 1
        counts = np.zeros((self.replicas, self.ports, self.ports), dtype=np.int64)
        bb, ii = np.nonzero(active)
        # At most one arrival per (replica, input) per slot, so the
        # target indices are unique and plain assignment suffices.
        counts[bb, ii, dest[bb, ii]] = 1
        return counts



class _ObjectCompatArrivals:
    """Arrival streams that replicate UniformTraffic draw for draw.

    Replica b consumes ``default_rng(arrival_seeds[b])`` exactly as
    :class:`repro.traffic.uniform.UniformTraffic` does -- one
    ``random(N)`` per slot, then one destination integer per active
    input -- so a fast-path replica and an object-backend run given the
    same seed see byte-identical offered traffic (the basis of the
    seed-for-seed parity tests).
    """

    def __init__(
        self, ports: int, load: float, arrival_seeds: Sequence[Optional[int]]
    ):
        self.ports = ports
        self.replicas = len(arrival_seeds)
        self.load = load
        self._rngs = [np.random.default_rng(seed) for seed in arrival_seeds]

    def slot_counts(self) -> np.ndarray:
        """(B, N, N) arrival counts for the next slot."""
        counts = np.zeros((self.replicas, self.ports, self.ports), dtype=np.int64)
        for b, rng in enumerate(self._rngs):
            active = np.nonzero(rng.random(self.ports) < self.load)[0]
            if active.size:
                dest = rng.integers(self.ports, size=active.size)
                counts[b, active, dest] = 1
        return counts


class CubeScenarioArrivals(ScenarioArrivals):
    """``ScenarioArrivals`` with its count-cube ``slot_counts``."""

    def slot_counts(self) -> np.ndarray:
        """(B, N, N) arrival counts for the next slot."""
        slot = self._slot
        self._slot += 1
        if slot >= self._chunk_end:
            self._compile(slot)
        lo = self._offsets[slot - self._chunk_start]
        hi = self._offsets[slot - self._chunk_start + 1]
        voq = self._voq[lo:hi]
        n = self.ports
        counts = np.bincount(voq, minlength=self.replicas * n * n)
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
        return counts.reshape(self.replicas, n, n)


class _FramePattern:
    """The deterministic CBR emission pattern as an arrival source.

    The pattern consumes no randomness, so every replica sees the same
    counts: a slot's arrivals are a zero-stride ``(B, N, N)`` view of
    one frame position of :func:`compile_cbr_pattern`, no copy.
    """

    def __init__(self, pattern: np.ndarray, replicas: int):
        frame_slots, ports, _ = pattern.shape
        self._frames = np.broadcast_to(
            pattern[:, None], (frame_slots, replicas, ports, ports)
        )
        self._slot = 0

    def slot_counts(self) -> np.ndarray:
        """(B, N, N) arrival counts for the next slot."""
        counts = self._frames[self._slot % self._frames.shape[0]]
        self._slot += 1
        return counts


class PoolLedger:
    """Measurement-window accounting of one ``(B, N, N)`` buffer pool.

    :func:`run_slots` calls :meth:`update` once per slot >= warmup, so
    the (B,) counters ``offered``, ``carried`` and ``backlog_integral``
    (the Little's-law numerator) ignore the slots before it.
    ``warmup_mode="arrival"`` also keys delay on the *arrival* slot, as
    :class:`repro.sim.stats.DelayStats` does: cells queued at the start
    of slot ``warmup`` are snapshotted per VOQ as ``legacy`` (per-VOQ
    FIFO order, exact when each connection carries one flow, makes them
    depart before anything arriving later), their departures kept out of
    ``delay_cells`` and their occupancy out of ``delay_integral`` (both
    None in slot mode).  ``by_port`` adds the (B, N)
    ``arrivals_by_input`` / ``departures_by_output`` -- only for results
    that expose them: they cost two more reductions per slot.
    """

    def __init__(self, pool: np.ndarray, warmup_mode: str, by_port: bool = False):
        replicas, ports, _ = pool.shape
        self.pool = pool
        self.warmup_mode = warmup_mode
        self.offered = np.zeros(replicas, dtype=np.int64)
        self.carried = np.zeros(replicas, dtype=np.int64)
        self.backlog_integral = np.zeros(replicas, dtype=np.int64)
        self.arrivals_by_input = self.departures_by_output = None
        if by_port:
            self.arrivals_by_input = np.zeros((replicas, ports), dtype=np.int64)
            self.departures_by_output = np.zeros((replicas, ports), dtype=np.int64)
        self.legacy: Optional[np.ndarray] = None
        self.delay_cells = self.delay_integral = None
        if warmup_mode == "arrival":
            self.delay_cells = np.zeros(replicas, dtype=np.int64)
            self.delay_integral = np.zeros(replicas, dtype=np.int64)

    def mark(self) -> None:
        """Start of slot ``warmup``: snapshot the cells that predate it."""
        if self.delay_cells is not None:
            self.legacy = self.pool.copy()

    def update(self, counts: Optional[np.ndarray], departed) -> None:
        """Account one in-window slot: its arrivals, departures, backlog."""
        bb, ii, jj = departed
        replicas, ports, _ = self.pool.shape
        if counts is not None:
            if self.arrivals_by_input is None:
                self.offered += counts.sum(axis=(1, 2))
            else:
                # einsum, not sum(axis=2): numpy's short-axis reduce
                # costs about 3x as much at these shapes.
                per_input = np.einsum("bij->bi", counts)
                self.arrivals_by_input += per_input
                self.offered += per_input.sum(axis=1)
        self.carried += np.bincount(bb, minlength=replicas)
        if self.departures_by_output is not None:
            self.departures_by_output += np.bincount(
                bb * ports + jj, minlength=replicas * ports
            ).reshape(replicas, ports)
        self.backlog_integral += self.pool.sum(axis=(1, 2))
        if self.legacy is not None:
            # At most one departure per (replica, input) of a pool per
            # slot, so the (bb, ii, jj) triples are unique and
            # fancy-indexed decrements are safe.
            was_legacy = self.legacy[bb, ii, jj] > 0
            self.legacy[bb[was_legacy], ii[was_legacy], jj[was_legacy]] -= 1
            self.delay_cells += np.bincount(bb[~was_legacy], minlength=replicas)
            self.delay_integral += (self.pool - self.legacy).sum(axis=(1, 2))

    @staticmethod
    def pooled_delay(backlog_integral, carried, delay_integral, delay_cells) -> float:
        """Little's-law mean delay in slots, pooled over replicas: the
        arrival-keyed pair when present, else the whole-slot pair."""
        if delay_cells is not None:
            backlog_integral, carried = delay_integral, delay_cells
        cells = int(carried.sum())
        return float(backlog_integral.sum()) / cells if cells else 0.0


class CubeIntegratedFastpath(IntegratedFastpath):
    """``IntegratedFastpath`` with its count-cube ``step``."""

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

        Returns ``((bb_c, ii_c, jj_c), (bb_v, ii_v, jj_v))``: CBR cell
        k departed input ``ii_c[k]`` of replica ``bb_c[k]`` through
        output ``jj_c[k]``, likewise for VBR.

        Raises :class:`CBRBufferOverflow` when a per-input CBR
        occupancy exceeds the bound after this slot's arrivals land.
        """
        if cbr_arrivals is not None:
            if check and (np.asarray(cbr_arrivals) < 0).any():
                raise ValueError("negative CBR arrival counts")
            self.cbr += cbr_arrivals
        if vbr_arrivals is not None:
            if check and (np.asarray(vbr_arrivals) < 0).any():
                raise ValueError("negative VBR arrival counts")
            self.vbr += vbr_arrivals
        per_input = np.einsum("bij->bi", self.cbr)  # 3x sum(axis=2)'s speed
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
