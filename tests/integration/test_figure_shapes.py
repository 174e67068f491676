"""Fast integration checks of the paper's figure shapes.

Small runs asserting qualitative orderings of the paper's figures that
no claim in ``tests/claims/`` states; the figures' numbers are claims
there (``test_fig1.py`` to ``test_fig5.py``).
"""

import pytest

from repro.core.fifo import FIFOScheduler
from repro.core.output_queueing import OutputQueuedSwitch
from repro.core.pim import PIMScheduler
from repro.switch.switch import CrossbarSwitch, FIFOSwitch
from repro.traffic.clientserver import ClientServerTraffic
from repro.traffic.periodic import PeriodicTraffic
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic

SLOTS = 6000
WARMUP = 1000


def run_three(traffic_factory, load):
    """Run FIFO, PIM-4, and output queueing on identical arrivals."""
    recorder = TraceRecorder(traffic_factory(load))
    fifo = FIFOSwitch(16, FIFOScheduler(policy="random", seed=0)).run(
        recorder, slots=SLOTS, warmup=WARMUP
    )
    pim = CrossbarSwitch(16, PIMScheduler(iterations=4, seed=0)).run(
        recorder.replay(), slots=SLOTS, warmup=WARMUP
    )
    output_queued = OutputQueuedSwitch(16).run(
        recorder.replay(), slots=SLOTS, warmup=WARMUP
    )
    return fifo, pim, output_queued


class TestFigure3Shape:
    """Delay ordering under uniform traffic: OQ <= PIM << FIFO at load."""

    def test_high_load_ordering(self):
        fifo, pim, oq = run_three(
            lambda load: UniformTraffic(16, load=load, seed=2), 0.9
        )
        assert oq.mean_delay <= pim.mean_delay
        assert pim.mean_delay < fifo.mean_delay / 3
        # FIFO has saturated: it cannot carry 0.9.
        assert fifo.throughput < 0.9 * 0.75
        # PIM carries the offered load.
        assert pim.throughput == pytest.approx(pim.offered, rel=0.03)


class TestFigure4Shape:
    """Client-server workload: PIM still close to output queueing."""

    def test_high_server_load_ordering(self):
        fifo, pim, oq = run_three(
            lambda load: ClientServerTraffic(16, load=load, seed=4), 0.9
        )
        assert oq.mean_delay <= pim.mean_delay
        assert fifo.mean_delay > pim.mean_delay


class TestFigure5Shape:
    """More PIM iterations help."""

    def test_iteration_ordering(self):
        recorder = TraceRecorder(UniformTraffic(16, load=0.9, seed=5))
        delays = {}
        first = True
        for iterations in (1, 2, 4):
            traffic = recorder if first else recorder.replay()
            first = False
            result = CrossbarSwitch(
                16, PIMScheduler(iterations=iterations, seed=0)
            ).run(traffic, slots=SLOTS, warmup=WARMUP)
            delays[iterations] = result.mean_delay
        assert delays[1] > delays[2] > delays[4] * 0.99


class TestFigure1Shape:
    """Stationary blocking: FIFO stays far below capacity on periodic
    traffic; VOQ+PIM keeps every link busy.  (The one-cell-per-slot
    window itself is ``tests/claims/test_fig1.py``.)"""

    def test_fifo_collapse_and_pim_recovery(self):
        ports = 8
        burst = 2 * ports
        # PIM with VOQs on the same workload: near the full 8 links.
        pim = CrossbarSwitch(ports, PIMScheduler(iterations=4, seed=0)).run(
            PeriodicTraffic(ports, load=1.0, burst=burst),
            slots=4000,
            warmup=500,
        )
        assert pim.aggregate_throughput > 0.9 * ports
        # FIFO steady state remains far below PIM even after the
        # lockstep staggers (random arbitration, persistent effect).
        fifo = FIFOSwitch(ports, FIFOScheduler(policy="random", seed=0)).run(
            PeriodicTraffic(ports, load=1.0, burst=burst),
            slots=4000,
            warmup=500,
        )
        assert fifo.aggregate_throughput < 0.72 * ports
