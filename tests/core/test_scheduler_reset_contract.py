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
for the FIFO pair) and asserts rerun determinism after reset().

The batched registry kernels are also checked to leave their
``requests`` / ``occupancy`` arguments untouched: ``as_request_batch``
hands a boolean batch through without copying it, which is only safe
while every kernel treats its input as read-only.
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


@pytest.mark.parametrize("name", BATCH_SCHEDULERS)
@pytest.mark.parametrize("accept", ["random", "round_robin"])
def test_batch_kernels_leave_their_arguments_unmodified(name, accept):
    replicas, ports = 5, 6
    scheduler = build_batch_scheduler(
        name, replicas, ports, iterations=3, accept=accept, seed=3
    )
    rng = np.random.default_rng(11)
    for _ in range(20):
        occupancy = rng.integers(0, 3, size=(replicas, ports, ports))
        requests = occupancy > 0
        requests_before, occupancy_before = requests.copy(), occupancy.copy()
        if scheduler.needs_occupancy:
            scheduler.schedule(requests, occupancy)
        else:
            scheduler.schedule(requests)
        assert np.array_equal(requests, requests_before)
        assert np.array_equal(occupancy, occupancy_before)
