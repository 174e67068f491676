"""Exact perf tests of the crossbar fast path.

Speed itself is measured by ``benchmarks/suite`` in absolute units;
tier-1 keeps only checks that repeat exactly.  Arrivals travel as flat
VOQ cells, so a slot allocates no ``(B, N, N)`` count cube outside the
pool and the kernel, and the run's ``tracemalloc`` peak stays under a
fixed number of int64 cubes.  So is the key-draw count: how many of a
wide run's PIM key reads draw the whole cube, and how many jump.  And
so is where the accounting runs: every ledger settle that folds queued
slots runs inside the ``run/update`` phase, the one the suite reports
as ``sim.account_s``.
"""

import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cbr.reservations import ReservationTable
from repro.core.batch import BatchScheduler
from repro.obs.perf import PhaseTimer
from repro.sim.fastpath import PoolLedger, run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from tests.core.test_pim_batch_reference import Cells

LOAD = 0.8


def test_wide_run_allocates_no_arrival_cubes():
    """At N=32, B=256 one int64 cube is 2 MiB.  The pool is one; the
    kernel's working set, the arrival chunk and the slot's temporaries
    make up the rest: 3.2 cubes (6.7 MB) in all, against 5.2 (10.8 MB)
    when every slot built, added and reduced count cubes."""
    ports, replicas = 32, 256
    run_fastpath(ports, LOAD, 5, replicas=replicas, seed=0)  # warm caches
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        run_fastpath(ports, LOAD, 60, replicas=replicas, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    cube = replicas * ports * ports * 8
    assert peak <= 3.5 * cube, f"peak {peak / cube:.2f} int64 cubes"


def test_wide_run_draws_few_dense_cubes(monkeypatch):
    """At N=32, B=256 a dense key draw is 262,144 uniforms, and most PIM
    rounds want a few percent of them: at most a slot's first grant
    draws its cube, mid-density rounds compute their keys in one
    vectorized jump and the last few keys are jumped to one by one.  Every
    key read of the run, by way (``Cells.way``); 233 dense and 155
    scalar-jumped before the vectorized jump."""
    ways = Counter()
    cube_keys = BatchScheduler._cube_keys

    def counting(self, cells):
        cells = cells.view(Cells)
        keys = cube_keys(self, cells)
        ways[cells.way] += 1
        return keys

    monkeypatch.setattr(BatchScheduler, "_cube_keys", counting)
    run_fastpath(32, LOAD, 60, replicas=256, seed=0)
    assert dict(ways) == {"dense": 54, "scalar": 66, "vector": 268}


class _OpenSpans(PhaseTimer):
    """A PhaseTimer that also keeps the path of its open spans."""

    def __init__(self):
        super().__init__()
        self.open = []

    @contextmanager
    def phase(self, name):
        self.open.append(name)
        try:
            with super().phase(name):
                yield
        finally:
            self.open.pop()


def _cbr_run(timer):
    table = ReservationTable(4, 10)
    for i in range(4):
        table.admit(Flow(
            flow_id=i + 1, src=i, dst=(i + 1) % 4,
            service=ServiceClass.CBR, cells_per_frame=4,
        ))
    run_fastpath_cbr(
        table, 0.5, 700, replicas=2, warmup=50, warmup_mode="arrival",
        drain_slots=40, seed=1, phase_timer=timer,
    )


_RUNS = {
    "crossbar": lambda timer: run_fastpath(
        16, LOAD, 900, warmup=100, arrival_seeds=[3], drain_slots=30,
        phase_timer=timer,
    ),
    "crossbar-arrival": lambda timer: run_fastpath(
        8, LOAD, 400, replicas=16, warmup=50, warmup_mode="arrival",
        drain_slots=30, seed=2, phase_timer=timer,
    ),
    "cbr": _cbr_run,
    "statistical": lambda timer: run_fastpath_statistical(
        np.roll(np.eye(4, dtype=np.int64) * 2, 1, axis=1), 4, LOAD, 800,
        warmup=60, seed=3, phase_timer=timer,
    ),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_settles_run_inside_the_update_phase(monkeypatch, run):
    """Every fold of queued or wide slots -- at the slot cap or cell
    budget, and the last one, before the run's counters are read -- runs
    in ``run/update``, so that phase holds all of the accounting."""
    timer = _OpenSpans()
    where = []
    settle, fold = PoolLedger.settle, PoolLedger._fold_slot

    def watched_settle(ledger):
        if ledger._cells:
            where.append("/".join(timer.open))
        settle(ledger)

    def watched_fold(ledger, cells, departed):
        where.append("/".join(timer.open))
        fold(ledger, cells, departed)

    monkeypatch.setattr(PoolLedger, "settle", watched_settle)
    monkeypatch.setattr(PoolLedger, "_fold_slot", watched_fold)
    _RUNS[run](timer)
    assert len(where) > 2 and set(where) == {"run/update"}, Counter(where)
