"""Ablation: the pre-PIM windowed-FIFO scheme (Section 2.4).

"Karol et al. suggest that iteration can be used to increase switch
throughput ... an input that loses the first round of the competition
sends the header for the second cell in its queue on the second round
... this reduces the impact of head-of-line blocking but does not
eliminate it, since only the first k cells in each queue are eligible
for transmission."

We sweep the window size w on saturated uniform traffic and show the
throughput climbing from Karol's 58.6% toward -- but never reaching --
what VOQ + PIM delivers, which is the quantitative version of the
paper's argument for random-access input buffers.
"""

import pytest

from repro.analysis.queueing import hol_saturation_limit
from repro.core.pim import PIMScheduler
from repro.core.windowed_fifo import WindowedFIFOScheduler, WindowedFIFOSwitch
from repro.switch.switch import CrossbarSwitch
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic

from _common import FULL, PORTS, print_table

SLOTS = 40_000 if FULL else 10_000
WARMUP = 4_000 if FULL else 1_500
WINDOWS = [1, 2, 4, 8]


def compute_window_sweep():
    recorder = TraceRecorder(UniformTraffic(PORTS, load=1.0, seed=900))
    rows = []
    first = True
    for window in WINDOWS:
        traffic = recorder if first else recorder.replay()
        first = False
        switch = WindowedFIFOSwitch(PORTS, WindowedFIFOScheduler(window=window, seed=0))
        result = switch.run(traffic, slots=SLOTS, warmup=WARMUP)
        rows.append((window, result.throughput))
    pim = CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=0)).run(
        recorder.replay(), slots=SLOTS, warmup=WARMUP
    )
    return rows, pim.throughput


def test_windowed_fifo_ablation(benchmark):
    rows, pim_throughput = benchmark.pedantic(compute_window_sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: windowed FIFO saturation throughput vs window size "
        "(uniform, load 1.0, 16x16)",
        ["window", "carried/link"],
        rows + [("PIM-4 (VOQ)", pim_throughput)],
    )
    throughputs = dict(rows)
    # w = 1 is plain FIFO: Karol's limit.
    assert throughputs[1] == pytest.approx(hol_saturation_limit(), abs=0.05)
    # Throughput rises monotonically with the window...
    values = [throughputs[w] for w in WINDOWS]
    assert all(a <= b + 0.01 for a, b in zip(values, values[1:]))
    assert throughputs[8] > throughputs[1] + 0.10
    # ...but never reaches the VOQ switch ("does not eliminate it").
    assert throughputs[8] < pim_throughput - 0.02
    assert pim_throughput > 0.95
