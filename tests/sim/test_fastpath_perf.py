"""Exact perf tests of the crossbar fast path.

Speed itself is measured by ``benchmarks/suite`` in absolute units;
tier-1 keeps only checks that repeat exactly.  Arrivals travel as flat
VOQ cells, so a slot allocates no ``(B, N, N)`` count cube outside the
pool and the kernel, and the run's ``tracemalloc`` peak stays under a
fixed number of int64 cubes.  So is the key-draw count: how many of a
wide run's PIM key reads draw the whole cube, and how many jump.
"""

import tracemalloc
from collections import Counter

from repro.core.batch import BatchScheduler
from repro.sim.fastpath import run_fastpath
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
