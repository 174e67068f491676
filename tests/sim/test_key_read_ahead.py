"""The key read-ahead of ``run_slots``: same draws, same matchings.

Inside :func:`repro.sim.fastpath.run_slots` a PIM or LQF kernel on one
PCG64 stream whose cube holds ``_AHEAD_MIN_CUBE`` to ``_VECTOR_FIXED``
doubles has its key cubes
drawn by a producer thread (:func:`repro.core.batch.read_ahead`).  The
kernel must read exactly the keys, and leave its stream exactly where,
the on-thread reader would: results and final stream state are
byte-equal to the same run with the window shut, and to the kernel
stepped by hand through ``FastpathCrossbar.step``.  The thread lives
only inside the run, starts only inside the window, and a stream moved
behind the ring's back raises.
"""

import os
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

import repro.core.batch as batch
import repro.sim.fastpath as fastpath
from repro.cbr.reservations import ReservationTable
from repro.core.batch import build_batch_scheduler
from repro.core.pim import AN2_ITERATIONS, BatchPIMScheduler
from repro.hardware.random_select import lfsr_pim_rng
from repro.sim.fastpath import (
    FastpathCrossbar,
    PoolLedger,
    run_fastpath,
    run_slots,
    uniform_arrivals,
)
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.sim.rng import RandomStreams
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.traffic.flows import WindowedSource
from repro.traffic.scenarios import get_scenario

PORTS, REPLICAS, SLOTS, LOAD, SEED = 16, 64, 200, 0.9, 5


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """The window wants two CPUs in the affinity mask; grant them on any
    host, so these tests check the ring rather than the host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def shut(monkeypatch):
    """Close the window: every key is read on the kernel's thread."""
    monkeypatch.setattr(batch, "in_ahead_window", lambda kernel: False)


def count_rings(monkeypatch):
    """The rings :func:`read_ahead` builds from here on."""
    rings = []

    class Counted(batch.KeyRing):
        def __init__(self, *args):
            super().__init__(*args)
            rings.append(self)

    monkeypatch.setattr(batch, "KeyRing", Counted)
    return rings


def assert_results_equal(a, b):
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name


def run_captured(monkeypatch, scheduler):
    """``run_fastpath`` at the headline shape, and its kernel."""
    kernels = []
    build = fastpath.build_batch_scheduler

    def capture(*args, **kwargs):
        kernels.append(build(*args, **kwargs))
        return kernels[-1]

    monkeypatch.setattr(fastpath, "build_batch_scheduler", capture)
    result = run_fastpath(
        PORTS, LOAD, SLOTS, replicas=REPLICAS, seed=SEED, scheduler=scheduler
    )
    return result, kernels[-1]


def crossbar(scheduler="pim", ports=PORTS, replicas=REPLICAS, rng=None):
    """A switch and arrivals built as ``run_fastpath`` builds them."""
    streams = RandomStreams(SEED)
    kernel = build_batch_scheduler(
        scheduler, replicas, ports, iterations=AN2_ITERATIONS,
        rng=streams.get(f"fastpath/{scheduler}") if rng is None else rng,
    )
    source = uniform_arrivals(
        ports, replicas, LOAD, None, streams.get("fastpath/arrivals")
    )
    return FastpathCrossbar(ports, replicas, kernel), source


def run_observed(switch, source, slots, observer):
    ledger = PoolLedger(switch.occupancy, "slot")
    run_slots(switch, [source], [ledger], slots, 0, 0, observer=observer)


@pytest.mark.parametrize("slow", [False, True], ids=["free", "slowed"])
@pytest.mark.parametrize("scheduler", ["pim", "lqf"])
def test_same_results_and_stream_as_the_on_thread_reader(monkeypatch, scheduler, slow):
    if slow:  # the reader outruns the producer and waits on the ring
        fill = batch._fill

        def slowed(generator, chunk):
            time.sleep(0.002)
            fill(generator, chunk)

        monkeypatch.setattr(batch, "_fill", slowed)
    rings = count_rings(monkeypatch)
    ahead, kernel = run_captured(monkeypatch, scheduler)
    assert len(rings) == 1 and kernel._ring is None
    state = kernel._rng.bit_generator.state
    shut(monkeypatch)
    on_thread, kernel = run_captured(monkeypatch, scheduler)
    assert len(rings) == 1
    assert_results_equal(ahead, on_thread)
    assert state == kernel._rng.bit_generator.state


@pytest.mark.parametrize("scheduler", ["pim", "lqf"])
def test_same_departures_as_stepping_the_kernel(scheduler):
    switch, source = crossbar(scheduler)
    departed = []
    run_observed(switch, source, SLOTS, lambda slot, d: departed.append(d[0]))
    stepped, source = crossbar(scheduler)
    for slot in range(SLOTS):
        counts = np.bincount(
            source.slot_cells(), minlength=REPLICAS * PORTS * PORTS
        ).reshape(REPLICAS, PORTS, PORTS)
        for got, want in zip(departed[slot], stepped.step(counts)):
            assert np.array_equal(got, want), f"slot {slot}"
    assert np.array_equal(switch.occupancy, stepped.occupancy)
    assert (
        switch.scheduler._rng.bit_generator.state
        == stepped.scheduler._rng.bit_generator.state
    )


def cbr_table():
    table = ReservationTable(PORTS, 20)
    for i in range(PORTS):
        table.admit(Flow(
            flow_id=i + 1, src=i, dst=(i + 3) % PORTS,
            service=ServiceClass.CBR, cells_per_frame=8,
        ))
    return table


ALLOCATIONS = np.roll(np.eye(PORTS, dtype=np.int64) * 12, 5, axis=1)

def run_cbr():
    return run_fastpath_cbr(
        cbr_table(), 0.6, SLOTS, replicas=REPLICAS, iterations=4, seed=SEED
    )


def test_the_gap_fill_reads_the_same_keys(monkeypatch):
    rings = count_rings(monkeypatch)
    ahead = run_cbr()
    assert len(rings) == 1
    shut(monkeypatch)
    assert_results_equal(ahead, run_cbr())


def test_no_ring_for_the_lottery_fill(monkeypatch):
    """The statistical matcher's PIM fill reads its keys in line: drawn
    ahead, its cubes slowed the lottery runner."""
    rings = count_rings(monkeypatch)
    run_fastpath_statistical(ALLOCATIONS, 16, 0.8, 20, replicas=REPLICAS, seed=SEED)
    assert rings == []


def test_no_thread_outlives_a_run():
    before = threading.active_count()
    seen = []
    switch, source = crossbar()
    run_observed(switch, source, 60, lambda slot, d: seen.append(threading.active_count()))
    assert set(seen) == {before + 1}
    assert threading.active_count() == before


class Failing:
    """Arrivals that raise at slot ``at``."""

    def __init__(self, source, at):
        self.source, self.at, self.slot = source, at, 0

    def slot_cells(self):
        if self.slot == self.at:
            raise RuntimeError("source failed")
        self.slot += 1
        return self.source.slot_cells()


def test_no_thread_outlives_a_failed_run():
    before = threading.active_count()
    seen = []
    switch, source = crossbar()
    with pytest.raises(RuntimeError, match="source failed"):
        run_observed(
            switch, Failing(source, 50), SLOTS,
            lambda slot, d: seen.append(threading.active_count()),
        )
    assert len(seen) == 50 and set(seen) == {before + 1}
    assert threading.active_count() == before
    assert switch.scheduler._ring is None


@pytest.mark.parametrize("moved", [20, 21, 22, 23])
def test_a_stream_moved_behind_the_ring_raises_at_the_next_take(moved):
    """Drawn from after slot ``moved`` (at a chunk's start or inside
    it: at B = 16 a chunk holds 16 cubes, a few slots' worth), the
    kernel's stream raises at the next key cube: no matching of a
    stale cube reaches the observer."""
    switch, source = crossbar(replicas=16)
    seen = []

    def draw(slot, departed):
        seen.append(slot)
        if slot == moved:
            switch.scheduler._rng.random()

    with pytest.raises(RuntimeError, match="out of step"):
        run_observed(switch, source, SLOTS, draw)
    assert seen[-1] == moved


def test_a_failed_producer_raises_in_the_run(monkeypatch):
    def broken(generator, chunk):
        raise ValueError("no draws")

    monkeypatch.setattr(batch, "_fill", broken)
    before = threading.active_count()
    switch, source = crossbar()
    with pytest.raises(RuntimeError, match="read-ahead failed") as caught:
        run_observed(switch, source, SLOTS, None)
    assert isinstance(caught.value.__cause__, ValueError)
    assert threading.active_count() == before


def test_concurrent_runs_under_a_short_switch_interval(monkeypatch):
    """Two runs at once (two readers, two producers), the interpreter
    switching threads every 10 us: each run still reads the keys of its
    own stream."""
    with pytest.MonkeyPatch.context() as patch:
        shut(patch)
        want = [
            run_fastpath(PORTS, LOAD, 60, replicas=REPLICAS, seed=s) for s in (1, 2)
        ]
    got = [None, None]

    def run(k):
        got[k] = run_fastpath(PORTS, LOAD, 60, replicas=REPLICAS, seed=k + 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, want):
        assert_results_equal(a, b)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    return crossbar()


OUTSIDE_THE_WINDOW = {
    "b1": lambda monkeypatch: crossbar(replicas=1),
    "n32_b256": lambda monkeypatch: crossbar(ports=32, replicas=256),
    "stream_bank": lambda monkeypatch: crossbar(
        rng=[np.random.default_rng(k) for k in range(4)]
    ),
    "lfsr": lambda monkeypatch: crossbar(replicas=16, rng=lfsr_pim_rng()),
    "one_cpu": one_cpu,
    "islip": lambda monkeypatch: crossbar("islip"),
    "qps": lambda monkeypatch: crossbar("qps"),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_WINDOW))
def test_no_thread_outside_the_window(monkeypatch, case):
    before = threading.active_count()
    seen = []
    switch, source = OUTSIDE_THE_WINDOW[case](monkeypatch)
    run_observed(switch, source, 3, lambda slot, d: seen.append(threading.active_count()))
    assert set(seen) == {before}


def test_window_edges():
    """From ``_AHEAD_MIN_CUBE`` to ``_VECTOR_FIXED`` doubles a cube is in
    (N = 1, B = cube), one double either side it is out, and so is a
    stream holding a buffered 32-bit half."""
    low, high = batch._AHEAD_MIN_CUBE, batch._VECTOR_FIXED
    for cube in (low, high):
        assert batch.in_ahead_window(BatchPIMScheduler(cube, 1, seed=0))
    for cube in (low - 1, high + 1):
        assert not batch.in_ahead_window(BatchPIMScheduler(cube, 1, seed=0))
    inside = BatchPIMScheduler(64, 16, seed=0)
    assert batch.in_ahead_window(inside)
    assert not batch.in_ahead_window(BatchPIMScheduler(64, 32, seed=0))
    inside._rng.integers(0, 2, dtype=np.uint32)  # buffers a 32-bit half
    assert not batch.in_ahead_window(inside)


def test_one_source_object_for_two_replicas_is_rejected():
    spec = get_scenario("websearch-incast")
    source = spec.build_source(7)
    for sources in ([source, source], [source, WindowedSource(source, 400)]):
        with pytest.raises(ValueError, match=r"sources\[0\] and sources\[1\]"):
            run_fastpath(
                spec.ports, spec.load, 400, replicas=2, sources=sources,
                drain_slots=400, scheduler="islip",
            )
    alike = [spec.build_source(7), spec.build_source(7)]
    result = run_fastpath(
        spec.ports, spec.load, 400, replicas=2, sources=alike,
        drain_slots=400, scheduler="islip",
    )
    assert result.offered_cells[0] == result.offered_cells[1]
