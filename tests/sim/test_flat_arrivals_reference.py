"""The flat arrival cells against the count-cube code they replaced.

Arrivals travel as a flat int64 array of VOQ cells (``cube_cells``):
sources yield them, the pools land them with one ``np.add.at`` and the
ledgers count them with ``bincount``, keeping running (B,) backlogs
instead of reducing the pool.  ``_cube_arrivals_reference`` keeps the
cube code verbatim.  Built from twin generators the two must agree per
slot: ``bincount(cells)`` is the old cube and the generators end where
the old draws left them; every ledger counter is byte-equal in either
warm-up mode, with and without per-port counters, from slot 0 or
mid-run, through drain slots; and the integrated switch's
``peak_cbr_buffer`` and ``CBRBufferOverflow`` are unchanged.
"""

import inspect
import textwrap

import numpy as np
import pytest

from repro.cbr.integrated import CBRBufferOverflow
from repro.cbr.reservations import ReservationTable
from repro.core.pim import BatchPIMScheduler
from repro.sim import fastpath
from repro.sim.fastpath import (
    NO_CELLS,
    FastpathCrossbar,
    PoolLedger,
    ScenarioArrivals,
    _BatchedArrivals,
    _ObjectCompatArrivals,
    cube_cells,
)
from repro.sim.fastpath_cbr import (
    IntegratedFastpath,
    _FramePattern,
    compile_cbr_pattern,
    compile_frame_schedule,
)
from repro.switch.cell import Cell, ServiceClass
from repro.switch.flow import Flow
from repro.traffic.cbr_source import CBRSource
from repro.traffic.scenarios import get_scenario

from . import _cube_arrivals_reference as cube


def _same(got, want, where):
    if want is None:
        assert got is None, where
        return
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


def _assert_same_slot(cells, counts, where):
    """``cells`` is ascending and ``bincount(cells)`` is ``counts``."""
    assert cells.dtype == np.int64, where
    assert (np.diff(cells) >= 0).all(), where
    _same(np.bincount(cells, minlength=counts.size), counts.reshape(-1), where)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_cube_cells_round_trip(dtype):
    counts = np.random.default_rng(0).integers(0, 4, size=(5, 3, 3)).astype(dtype)
    counts[2] = 0
    _assert_same_slot(cube_cells(counts), counts.astype(np.int64), "round trip")
    assert cube_cells(np.zeros((2, 3, 3), dtype=np.int64)).size == 0


# -- sources -----------------------------------------------------------------


@pytest.mark.parametrize(
    "replicas, ports, load, slots",
    # Chunks of 64, 64 and 8 slots, so these runs cross refills; the
    # 3 x 5 switch stays inside its first chunk.
    [(64, 16, 0.8, 150), (64, 16, 1.0, 70), (256, 32, 0.8, 20), (3, 5, 0.3, 40)],
)
def test_batched_source(replicas, ports, load, slots):
    new = _BatchedArrivals(ports, replicas, load, np.random.default_rng(9))
    old = cube._BatchedArrivals(ports, replicas, load, np.random.default_rng(9))
    for slot in range(slots):
        _assert_same_slot(new.slot_cells(), old.slot_counts(), slot)
        assert new._rng.bit_generator.state == old._rng.bit_generator.state


def test_object_compat_source():
    seeds = [3, 7, 11]
    new = _ObjectCompatArrivals(16, 0.7, seeds)
    old = cube._ObjectCompatArrivals(16, 0.7, seeds)
    for slot in range(60):
        _assert_same_slot(new.slot_cells(), old.slot_counts(), slot)
        for a, b in zip(new._rngs, old._rngs):
            assert a.bit_generator.state == b.bit_generator.state
    # An idle slot everywhere is no cells.
    assert _ObjectCompatArrivals(4, 0.0, [1, 2]).slot_cells().size == 0


class _Crowd:
    """Up to 2N random cells a slot, all on the VOQs of inputs and
    outputs 0 and 1: one VOQ often gets several cells in one slot."""

    def __init__(self, ports, seed):
        self.ports = ports
        self._seed = seed
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng(self._seed)

    def arrivals(self, slot):
        count = int(self._rng.integers(0, 2 * self.ports))
        pairs = self._rng.integers(0, 2, size=(count, 2)).tolist()
        return [(i, Cell(flow_id=10 * i + j, output=j)) for i, j in pairs]


def _incast(seed):
    return get_scenario("websearch-incast").build_source(seed, ports=8)


@pytest.mark.parametrize(
    "build, ports, slots",
    [(lambda s: _Crowd(4, s), 4, 60), (_incast, 8, 300)],
    ids=["crowded-voq", "incast-flows"],
)
def test_scenario_source(build, ports, slots):
    new = ScenarioArrivals(ports, [build(s) for s in range(3)], slots)
    old = cube.CubeScenarioArrivals(ports, [build(s) for s in range(3)], slots)
    crowded = 0
    for slot in range(slots):
        counts = old.slot_counts()
        _assert_same_slot(new.slot_cells(), counts, slot)
        crowded += int(counts.max(initial=0) >= 2)
        _same(new._queued, old._queued, (slot, "flow shadow"))
    if build is not _incast:
        assert crowded > 10  # the repeated-VOQ slots were reached


def _frame_pattern():
    """Position 1 queues two cells on VOQ (0, 1); position 2 is empty."""
    pattern = np.zeros((3, 4, 4), dtype=np.int64)
    pattern[0, 2, 3] = pattern[0, 3, 0] = 1
    pattern[1, 0, 1] = 2
    pattern[1, 1, 1] = 1
    return pattern


def _table(ports=4, frame_slots=6):
    """Every input reserves 3 of 6 slots; input 0 holds two flows to
    output 1, so jittered CBR can queue two cells on one VOQ at once."""
    table = ReservationTable(ports, frame_slots)
    flows = [(0, 1, 2), (0, 1, 1), (1, 2, 3), (2, 0, 2), (2, 3, 1), (3, 3, 3)]
    for flow_id, (i, j, k) in enumerate(flows, start=1):
        table.admit(
            Flow(flow_id=flow_id, src=i, dst=j, service=ServiceClass.CBR,
                 cells_per_frame=k)
        )
    return table


@pytest.mark.parametrize("replicas", [1, 5])
def test_frame_pattern(replicas):
    table = _table()
    for pattern in (_frame_pattern(), compile_cbr_pattern(4, table.flows(), 6)):
        new = _FramePattern(pattern, replicas)
        old = cube._FramePattern(pattern, replicas)
        for slot in range(3 * pattern.shape[0] + 1):
            _assert_same_slot(new.slot_cells(), old.slot_counts(), slot)


def _jittered(table, seeds, slots, cls):
    return cls(
        table.ports,
        [CBRSource(table.ports, table.flows(), table.frame_slots, jitter=True, seed=s)
         for s in seeds],
        slots,
    )


def test_jittered_cbr_source():
    table = _table()
    new = _jittered(table, [1, 2, 3], 90, ScenarioArrivals)
    old = _jittered(table, [1, 2, 3], 90, cube.CubeScenarioArrivals)
    crowded = 0
    for slot in range(90):
        counts = old.slot_counts()
        _assert_same_slot(new.slot_cells(), counts, slot)
        crowded += int(counts.max() >= 2)
        for a, b in zip(new.sources, old.sources):
            assert a._rng.bit_generator.state == b._rng.bit_generator.state
    assert crowded > 0


# -- ledgers -----------------------------------------------------------------

_COUNTERS = (
    "offered", "carried", "backlog_integral", "arrivals_by_input",
    "departures_by_output", "delay_cells", "delay_integral", "legacy",
)


def assert_same_ledgers(
    ledger_class, warmup_mode, by_port, warmup, slots=30, drain=12, seed=0
):
    """``ledger_class`` and the cube ledger over one random run: cells
    land on one pool and counts on another, up to one departure per
    (replica, input) leaves both, and every counter matches per slot.
    The slot order is ``run_slots``': mark, land, depart, update."""
    shape = (6, 5, 5)
    rng = np.random.default_rng(seed)
    pools = [np.zeros(shape, dtype=np.int64) for _ in range(2)]
    new = ledger_class(pools[0], warmup_mode, by_port)
    old = cube.PoolLedger(pools[1], warmup_mode, by_port)
    for slot in range(slots + drain):
        if slot == warmup:
            new.mark()
            old.mark()
        if slot < slots:
            counts = rng.integers(1, 4, size=shape) * (rng.random(shape) < 0.1)
            cells = cube_cells(counts)
            pools[1] += counts
        else:
            counts, cells = None, NO_CELLS
        np.add.at(pools[0].reshape(-1), cells, 1)
        keys = np.where(pools[0] > 0, rng.random(shape), -1.0)
        bb, ii = np.nonzero((keys.max(axis=2) >= 0) & (rng.random(shape[:2]) < 0.7))
        jj = keys.argmax(axis=2)[bb, ii]
        for pool in pools:
            pool[bb, ii, jj] -= 1
        _same(pools[0], pools[1], (slot, "pool"))
        if slot < warmup:
            continue
        new.update(cells, (bb, ii, jj))
        old.update(counts, (bb, ii, jj))
        for name in _COUNTERS:
            _same(getattr(new, name), getattr(old, name), (slot, name))
    assert int(new.carried.sum()) > 0


@pytest.mark.parametrize("warmup", [0, 9])
@pytest.mark.parametrize("by_port", [True, False])
@pytest.mark.parametrize("warmup_mode", ["slot", "arrival"])
def test_ledger(warmup_mode, by_port, warmup):
    assert_same_ledgers(PoolLedger, warmup_mode, by_port, warmup)


def _mutant(old, new):
    """``PoolLedger`` with one edit to its ``update`` source."""
    source = textwrap.dedent(inspect.getsource(PoolLedger.update))
    assert source.count(old) == 1, f"update no longer spells {old!r}"
    namespace = dict(vars(fastpath))
    exec(source.replace(old, new), namespace)
    return type("Mutant", (PoolLedger,), {"update": namespace["update"]})


def test_the_grid_catches_a_backlog_without_departures():
    old = "self.backlog += offered - carried"
    with pytest.raises(AssertionError):
        assert_same_ledgers(_mutant(old, "self.backlog += offered"), "slot", False, 9)
    # The untouched source, rebuilt the same way, still passes.
    assert_same_ledgers(_mutant(old, old), "slot", False, 9)


# -- switches ----------------------------------------------------------------


def test_crossbar_step_takes_cubes_at_the_door():
    """``step(counts)`` and ``advance(slot, [cells])`` are one path."""
    replicas, ports = 8, 6
    switches = [
        FastpathCrossbar(ports, replicas, BatchPIMScheduler(replicas, ports, seed=4))
        for _ in range(2)
    ]
    source = _BatchedArrivals(ports, replicas, 0.9, np.random.default_rng(1))
    for slot in range(40):
        cells = source.slot_cells()
        counts = np.bincount(cells, minlength=replicas * ports * ports)
        by_cube = switches[0].step(counts.reshape(replicas, ports, ports), check=True)
        (by_cells,) = switches[1].advance(slot, [cells], check=True)
        for a, b in zip(by_cube, by_cells):
            _same(a, b, slot)
        _same(switches[0].occupancy, switches[1].occupancy, slot)


def _outcome(step):
    """One slot's departure arrays, flattened, or its overflow's fields."""
    try:
        claimed, filled = step()
    except CBRBufferOverflow as error:
        fields = (error.slot, error.input_port, error.occupancy, error.bound)
        return "overflow", fields + (error.replica,)
    return "served", claimed + filled


@pytest.mark.parametrize("door", ["cells", "cube"])
@pytest.mark.parametrize("bound", ["auto", "tight", None])
def test_integrated_switch(bound, door):
    """Jittered CBR plus uniform VBR through both switches: the same
    claims and fills, the same ``peak_cbr_buffer`` and, under a bound
    the jitter breaks, the same ``CBRBufferOverflow``.  ``door="cube"``
    hands the new switch count cubes through ``step``."""
    replicas, slots = 4, 80
    table = _table()
    ports, frames = table.ports, table.frame_slots
    committed = table.reserved_matrix().sum(axis=1)
    limit = {"auto": 2 * committed, "tight": committed, None: None}[bound]
    new, old = (
        cls(ports, replicas, frames, compile_frame_schedule(table.schedule),
            BatchPIMScheduler(replicas, ports, seed=6), cbr_buffer_bound=limit)
        for cls in (IntegratedFastpath, cube.CubeIntegratedFastpath)
    )
    cbr = [
        _jittered(table, [5, 6, 7, 8], slots, cls)
        for cls in (ScenarioArrivals, cube.CubeScenarioArrivals)
    ]
    vbr = [
        cls(ports, replicas, 0.5, np.random.default_rng(2))
        for cls in (_BatchedArrivals, cube._BatchedArrivals)
    ]
    overflow = None
    for slot in range(slots):
        cells = [cbr[0].slot_cells(), vbr[0].slot_cells()]
        counts = [cbr[1].slot_counts(), vbr[1].slot_counts()]
        if door == "cells":
            kind, got = _outcome(lambda: new.advance(slot, cells, check=True))
        else:
            cubes = [
                np.bincount(c, minlength=m.size).reshape(m.shape)
                for c, m in zip(cells, counts)
            ]
            kind, got = _outcome(lambda: new.step(slot, *cubes, check=True))
        want_kind, want = _outcome(lambda: old.step(slot, *counts, check=True))
        assert kind == want_kind, slot
        if kind == "overflow":
            assert got == want
            overflow = got
            break
        for a, b in zip(got, want):
            _same(a, b, slot)
        for name in ("cbr", "vbr", "peak_cbr_buffer", "cbr_slots_used",
                     "cbr_slots_donated"):
            _same(getattr(new, name), getattr(old, name), (slot, name))
        _same(new.cbr_per_input, new.cbr.sum(axis=2), (slot, "cbr_per_input"))
    assert (overflow is not None) == (bound == "tight")
    assert new.peak_cbr_buffer.max() >= 2
