"""Section 2.4: a window on the FIFO reduces head-of-line blocking but
does not eliminate it.

"Karol et al. suggest that iteration can be used to increase switch
throughput ... this reduces the impact of head-of-line blocking but
does not eliminate it, since only the first k cells in each queue are
eligible for transmission."  Two orderings of saturation throughput:
a window of 8 carries more than plain FIFO (window 1), and less than
random-access input buffers scheduled by PIM-4.  Plain FIFO against
Karol's limit is ``test_fig3.py``'s FIFO claim.

**Sample.**  16 runs at load 1.0, 16 x 16.  Run r replays
``UniformTraffic(16, 1.0, seed=700 + r)`` into the object
:class:`repro.core.windowed_fifo.WindowedFIFOSwitch` with
``WindowedFIFOScheduler(window=w, seed=r)`` for w = 1 and w = 8, and
into PIM-4 on the fast path (``run_fastpath`` with the same 16 sources
as replicas, seed 7), so all three see the same cells.  400 slots, the
first 100 a warm-up; a run's statistic is the carried cells per link
per slot over the window.  The runs share nothing, so per ordering the
16 paired differences (w = 8 minus w = 1, PIM-4 minus w = 8) are i.i.d.

**Test.**  H0 per ordering: the mean difference is <= 0.  One-sided at
99.9 %: the test passes when ``mean - t * s / 4`` (t = 3.7329, the
0.999 quantile of Student's t at 15 d.o.f., from ``_stats``) is above
0.  A pilot run at another seed carried 0.60 at w = 1, 0.87 at
w = 8 and 0.98 under PIM-4.
"""

import numpy as np

from repro.core.windowed_fifo import WindowedFIFOScheduler, WindowedFIFOSwitch
from repro.sim.fastpath import run_fastpath
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic

from ._stats import half_width

PORTS = 16
RUNS = 16
SLOTS = 400
WARMUP = 100


def windowed(run: int):
    """Carried load per link at windows 1 and 8 on run ``run``'s trace."""
    recorder = TraceRecorder(UniformTraffic(PORTS, 1.0, seed=700 + run))
    carried = []
    for window in (1, 8):
        switch = WindowedFIFOSwitch(PORTS, WindowedFIFOScheduler(window=window, seed=run))
        traffic = recorder if not carried else recorder.replay()
        carried.append(switch.run(traffic, slots=SLOTS, warmup=WARMUP).throughput)
    return carried


def test_a_window_of_8_beats_fifo_and_stays_below_pim4():
    fifo, window8 = np.array([windowed(run) for run in range(RUNS)]).T
    pim4 = run_fastpath(
        PORTS, 1.0, SLOTS, replicas=RUNS, warmup=WARMUP, iterations=4, seed=7,
        sources=[UniformTraffic(PORTS, 1.0, seed=700 + run) for run in range(RUNS)],
    )
    pim4 = pim4.carried_cells / (PORTS * (SLOTS - WARMUP))
    for name, gap in [("window 8 - fifo", window8 - fifo), ("pim4 - window 8", pim4 - window8)]:
        lower = gap.mean() - half_width(gap, 0.999)
        assert lower > 0, (name, gap.mean(), lower)
