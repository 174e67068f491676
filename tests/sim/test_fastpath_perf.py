"""Perf tests of the crossbar fast path.

The wall-clock smoke test -- the fast path beats the object backend by
>= 5x at the acceptance config N=16, B=256 -- is marked ``slow``;
deselect it with ``pytest -m "not slow"``.  The full perf trajectory
lives in ``benchmarks/perf/bench_fastpath.py`` (run via ``make
bench-fastpath``).

The memory test is exact and runs in tier-1: arrivals travel as flat
VOQ cells, so a slot allocates no ``(B, N, N)`` count cube outside the
pool and the kernel, and the run's ``tracemalloc`` peak stays under a
fixed number of int64 cubes.
"""

import time
import tracemalloc

import pytest

from repro.core.pim import PIMScheduler
from repro.sim.fastpath import run_fastpath
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

PORTS = 16
REPLICAS = 256
LOAD = 0.8


@pytest.mark.slow
def test_fastpath_at_least_5x_object_backend():
    # Warm both paths first so one-time numpy/import costs don't skew
    # the comparison.
    run_fastpath(PORTS, LOAD, 10, replicas=REPLICAS, seed=0)
    CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=0)).run(
        UniformTraffic(PORTS, load=LOAD, seed=1), slots=10
    )

    object_slots = 300
    start = time.perf_counter()
    CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=2)).run(
        UniformTraffic(PORTS, load=LOAD, seed=3), slots=object_slots
    )
    object_sps = object_slots / (time.perf_counter() - start)

    fast_slots = 300
    start = time.perf_counter()
    run_fastpath(PORTS, LOAD, fast_slots, replicas=REPLICAS, seed=4)
    fast_sps = REPLICAS * fast_slots / (time.perf_counter() - start)

    speedup = fast_sps / object_sps
    print(
        f"\nobject {object_sps:.0f} slots/s, fastpath {fast_sps:.0f} "
        f"replica-slots/s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"fastpath regressed: only {speedup:.1f}x object backend "
        f"({fast_sps:.0f} vs {object_sps:.0f} slots/s)"
    )


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
