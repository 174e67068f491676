"""The shared slot loop emits the traces the three per-backend loops did.

Each digest below is the sha256 of the JSONL trace of a seeded 50-slot,
B=4, ``Probe(stride=5)`` run, recorded with the three separate slot
loops (commit c335187) before ``run_slots`` replaced them.  Event order
is part of the bytes: ``slot_begin``, the kernel's own events
(``pim_iteration``), ``stat_round``, ``crossbar_transfer``,
``cbr_slot``, ``voq_snapshot``.  A behaviour change in the shared
driver, a ledger or a kernel's draw order shows here first.
"""

import hashlib

import numpy as np
import pytest

from repro.cbr.reservations import ReservationTable
from repro.obs.probe import Probe
from repro.obs.sinks import JSONLSink
from repro.sim.fastpath import run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_statistical import run_fastpath_statistical
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.traffic.scenarios import get_scenario


def _table():
    table = ReservationTable(8, 10)
    connections = [(0, 1, 3), (1, 2, 2), (2, 0, 4), (5, 5, 1), (7, 3, 6)]
    for flow_id, (i, j, k) in enumerate(connections, 1):
        table.admit(
            Flow(flow_id=flow_id, src=i, dst=j, service=ServiceClass.CBR,
                 cells_per_frame=k)
        )
    return table


def _allocations():
    alloc = np.zeros((8, 8), dtype=np.int64)
    rng = np.random.default_rng(5)
    for _ in range(6):
        alloc[np.arange(8), rng.permutation(8)] += 1
    return alloc


def _incast_sources():
    spec = get_scenario("websearch-incast")
    return [spec.build_source(100 + b, ports=8) for b in range(4)]


RUNS = {
    "xbar-pim": (
        "14f38f093e38fa37",
        lambda p: run_fastpath(8, 0.8, 50, replicas=4, seed=3, warmup=10, probe=p),
    ),
    "xbar-lqf": (
        "0ee77d41867f01aa",
        lambda p: run_fastpath(
            8, 0.8, 50, replicas=4, seed=3, scheduler="lqf", warmup=10,
            warmup_mode="arrival", drain_slots=10, probe=p,
        ),
    ),
    "xbar-scenario-islip": (
        "7ebdcf0343ec3bc4",
        lambda p: run_fastpath(
            8, 0.5, 50, replicas=4, seed=3, scheduler="islip",
            sources=_incast_sources(), drain_slots=20, probe=p,
        ),
    ),
    "cbr-pim": (
        "4a75829cbc164121",
        lambda p: run_fastpath_cbr(
            _table(), 0.5, 50, replicas=4, seed=3, warmup=10, probe=p
        ),
    ),
    "cbr-lqf": (
        "677605428e771937",
        lambda p: run_fastpath_cbr(
            _table(), 0.5, 50, replicas=4, seed=3, scheduler="lqf", warmup=5,
            warmup_mode="arrival", drain_slots=10, probe=p,
        ),
    ),
    "cbr-jitter-pim": (
        "6ebdcaa1ebfc15ad",
        lambda p: run_fastpath_cbr(
            _table(), 0.5, 50, replicas=4, seed=3, cbr_jitter=True, probe=p
        ),
    ),
    "stat-fill": (
        "663509003d1d045f",
        lambda p: run_fastpath_statistical(
            _allocations(), 8, 0.8, 50, replicas=4, seed=3, warmup=10, probe=p
        ),
    ),
    "stat-nofill": (
        "3e74499de445c828",
        lambda p: run_fastpath_statistical(
            _allocations(), 8, 0.8, 50, replicas=4, seed=3, fill=False,
            warmup_mode="arrival", warmup=10, drain_slots=10, probe=p,
        ),
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_trace_bytes_match_the_per_backend_loops(name, tmp_path):
    digest, run = RUNS[name]
    path = tmp_path / f"{name}.jsonl"
    probe = Probe(JSONLSink(str(path)), stride=5)
    run(probe)
    probe.close()
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest
