"""The reset/rerun contract, audited across the whole scheduler zoo.

Contract (the bug class behind the LQF, FIFO, windowed-FIFO, PIM and
StatisticalMatcher regressions): ``reset()`` must restore *all*
cross-slot state -- pointers, rotating priorities, **and every RNG
stream** -- so that driving the same scheduler twice over the same
input sequence replays the same matchings draw for draw.  A reset()
that forgets an RNG makes rerun experiments silently non-reproducible
(``CrossbarSwitch.run`` resets the scheduler, then produces a
different trajectory anyway).

One parametrized test drives every scheduler in ``repro.core`` through
its own interface (``schedule`` for crossbar matchers, ``arbitrate``
for the FIFO pair, ``schedule(heads, ports)`` for multicast PIM) and asserts rerun determinism after reset().

The batched kernels -- the registry's and the statistical matcher, fill
on and off -- are also checked to leave their ``requests`` /
``occupancy`` arguments untouched: ``as_request_batch`` hands a boolean
batch through without copying it, which is only safe while every
kernel treats its input as read-only (the matcher masks the lottery's
ports on a copy).  Every kernel is handed the counts, as the fast paths
do, whether or not it weighs them.
"""

import numpy as np
import pytest

from repro.core import (
    FIFOScheduler,
    ISLIPScheduler,
    LQFScheduler,
    MaximumMatchingScheduler,
    PIMScheduler,
    QPSScheduler,
    RRMScheduler,
    StatisticalMatcher,
    WavefrontScheduler,
    WindowedFIFOScheduler,
)
from repro.core.batch import BATCH_SCHEDULERS, build_batch_scheduler
from repro.sim.fastpath_statistical import BatchStatisticalMatcher
from repro.switch.multicast import MulticastPIMScheduler

_ALLOC = np.array(
    [[2, 1, 0, 1], [0, 2, 2, 0], [1, 0, 2, 1], [1, 1, 0, 2]], dtype=int
)


def _drive_schedule(scheduler, slots=60, ports=4, traffic_seed=11):
    """Trajectory of a ``schedule``-interface scheduler on random occupancy."""
    rng = np.random.default_rng(traffic_seed)
    out = []
    for _ in range(slots):
        occupancy = rng.integers(0, 4, size=(ports, ports))
        requests = occupancy > 0
        if getattr(scheduler, "needs_occupancy", False):
            matching = scheduler.schedule(requests, occupancy)
        else:
            matching = scheduler.schedule(requests)
        out.append(sorted(matching.pairs))
    return out


def _drive_fifo(scheduler, slots=60, ports=4, traffic_seed=11):
    """Trajectory of FIFOScheduler through ``arbitrate``."""
    rng = np.random.default_rng(traffic_seed)
    out = []
    for _ in range(slots):
        heads = rng.integers(-1, ports, size=ports)
        out.append(sorted(scheduler.arbitrate(heads).pairs))
    return out


def _drive_windowed(scheduler, slots=60, ports=4, traffic_seed=11):
    """Trajectory of WindowedFIFOScheduler through ``arbitrate``."""
    rng = np.random.default_rng(traffic_seed)
    out = []
    for _ in range(slots):
        windows = [
            list(rng.integers(0, ports, size=rng.integers(0, 3)))
            for _ in range(ports)
        ]
        out.append(sorted(scheduler.arbitrate(windows)))
    return out


def _drive_multicast(scheduler, slots=60, ports=4, traffic_seed=11):
    """Trajectory of MulticastPIMScheduler through ``schedule(heads, ports)``."""
    rng = np.random.default_rng(traffic_seed)
    out = []
    for _ in range(slots):
        heads = [
            set(int(j) for j in np.flatnonzero(rng.random(ports) < 0.5)) or None
            for _ in range(ports)
        ]
        out.append([sorted(granted) for granted in scheduler.schedule(heads, ports)])
    return out


REGISTRY = [
    ("pim", lambda: PIMScheduler(iterations=2, seed=3), _drive_schedule),
    ("pim-inf", lambda: PIMScheduler(iterations=None, seed=3), _drive_schedule),
    ("islip", lambda: ISLIPScheduler(iterations=2), _drive_schedule),
    ("rrm", lambda: RRMScheduler(iterations=2), _drive_schedule),
    ("lqf", lambda: LQFScheduler(seed=3), _drive_schedule),
    ("wavefront", lambda: WavefrontScheduler(), _drive_schedule),
    ("qps", lambda: QPSScheduler(rounds=2, seed=3), _drive_schedule),
    ("maximum", lambda: MaximumMatchingScheduler(), _drive_schedule),
    (
        "statistical",
        lambda: StatisticalMatcher(_ALLOC, units=8, rounds=2, seed=3, fill=True),
        _drive_schedule,
    ),
    ("fifo-random", lambda: FIFOScheduler(policy="random", seed=3), _drive_fifo),
    ("fifo-rotating", lambda: FIFOScheduler(policy="rotating"), _drive_fifo),
    (
        "windowed_fifo",
        lambda: WindowedFIFOScheduler(window=2, seed=3),
        _drive_windowed,
    ),
    ("multicast_pim", lambda: MulticastPIMScheduler(seed=3), _drive_multicast),
]


@pytest.mark.parametrize(
    "build,drive", [(b, d) for _, b, d in REGISTRY],
    ids=[name for name, _, _ in REGISTRY],
)
def test_reset_makes_reruns_trace_identical(build, drive):
    scheduler = build()
    first = drive(scheduler)
    scheduler.reset()
    second = drive(scheduler)
    assert first == second


@pytest.mark.parametrize(
    "build,drive", [(b, d) for _, b, d in REGISTRY],
    ids=[name for name, _, _ in REGISTRY],
)
def test_fresh_instance_matches_reset_instance(build, drive):
    """reset() must land exactly on the as-constructed state, not just
    *some* repeatable state."""
    used = build()
    drive(used)
    used.reset()
    assert drive(used) == drive(build())


def _registry_kernel(name, accept):
    return lambda replicas, ports: build_batch_scheduler(
        name, replicas, ports, iterations=3, accept=accept, seed=3
    )


def _statistical_kernel(fill):
    def build(replicas, ports):
        allocations = 2 * np.eye(ports, dtype=int) + np.eye(ports, k=1, dtype=int)
        return BatchStatisticalMatcher(
            allocations, 4, rounds=2, replicas=replicas, seed=3, fill=fill
        )

    return build


BATCH_KERNELS = [
    (f"{accept}-{name}", _registry_kernel(name, accept))
    for accept in ("random", "round_robin")
    for name in BATCH_SCHEDULERS
] + [
    ("statistical", _statistical_kernel(fill=False)),
    ("statistical-fill", _statistical_kernel(fill=True)),
]


def _drive_batch(scheduler, slots=20, replicas=5, ports=6, traffic_seed=11):
    """Match trajectory of a batched kernel; asserts its inputs come back intact."""
    rng = np.random.default_rng(traffic_seed)
    out = []
    for _ in range(slots):
        occupancy = rng.integers(0, 3, size=(replicas, ports, ports))
        requests = occupancy > 0
        requests_before, occupancy_before = requests.copy(), occupancy.copy()
        out.append(scheduler.schedule(requests, occupancy).copy())
        assert np.array_equal(requests, requests_before)
        assert np.array_equal(occupancy, occupancy_before)
    return out


@pytest.mark.parametrize(
    "build", [b for _, b in BATCH_KERNELS], ids=[name for name, _ in BATCH_KERNELS]
)
def test_batch_kernels_leave_their_arguments_unmodified(build):
    _drive_batch(build(5, 6))


@pytest.mark.parametrize("fill", [False, True], ids=["lottery", "lottery+fill"])
def test_batch_statistical_reset_replays_lottery_and_fill(fill):
    """reset() rewinds both of the matcher's streams: the rerun equals the
    first run and a fresh instance, and with fill on the trajectory is
    not the lottery's alone (so the fill stream is really under test)."""
    build = _statistical_kernel(fill)
    used = build(5, 6)
    first = _drive_batch(used)
    assert used.stat_cells.any()
    used.reset()
    # The last slot's lottery share is run state too.
    fresh_cells = build(5, 6).stat_cells
    assert used.stat_cells.dtype == fresh_cells.dtype
    assert np.array_equal(used.stat_cells, fresh_cells)
    second = _drive_batch(used)
    fresh = _drive_batch(build(5, 6))
    for a, b, c in zip(first, second, fresh):
        assert np.array_equal(a, b) and np.array_equal(a, c)
    if fill:
        lottery = _drive_batch(_statistical_kernel(False)(5, 6))
        assert any(not np.array_equal(a, b) for a, b in zip(first, lottery))
