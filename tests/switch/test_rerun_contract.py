"""The rerun contract, checked on every single-switch object model.

A switch's mutable state is assigned only in its ``reset()``, and
``run()`` starts with ``reset()`` and a rewound traffic source.  So
running the same switch on the same traffic twice, and running a fresh
switch once, must give the same result.  Before the shared slot loop,
the windowed FIFO, replicated and multicast switches carried cells from
one run into the next (``ValueError: negative delay``) and the
integrated switch's second run drew a different PIM stream.
"""

import numpy as np
import pytest

from repro.cbr.integrated import IntegratedSwitch
from repro.cbr.reservations import ReservationTable
from repro.core.fifo import FIFOScheduler
from repro.core.output_queueing import OutputQueuedSwitch
from repro.core.pim import PIMScheduler
from repro.core.windowed_fifo import WindowedFIFOScheduler, WindowedFIFOSwitch
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow
from repro.switch.multicast import MulticastCell, MulticastPIMScheduler, MulticastSwitch
from repro.switch.replicated import ReplicatedOutputSwitch
from repro.switch.switch import CrossbarSwitch, FIFOSwitch
from repro.traffic.cbr_source import CBRSource
from repro.traffic.uniform import UniformTraffic

PORTS = 4
FRAME = 10
SLOTS = 400
WARMUP = 50
LOAD = 0.95


class RandomFanoutSource:
    """Multicast arrivals: each input gets a cell w.p. ``rate``, fanout 1-3."""

    def __init__(self, ports, rate, seed):
        self.ports = ports
        self.rate = rate
        self.seed = seed
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng(self.seed)
        self._seq = 0

    def arrivals(self, slot):
        cells = []
        for i in range(self.ports):
            if self._rng.random() >= self.rate:
                continue
            size = int(self._rng.integers(1, 4))
            outputs = self._rng.choice(self.ports, size=size, replace=False)
            self._seq += 1
            cells.append(
                (i, MulticastCell(flow_id=i, fanout=frozenset(int(o) for o in outputs),
                                  seqno=self._seq))
            )
        return cells


def _uniform():
    return UniformTraffic(PORTS, load=LOAD, seed=7)


def _table():
    table = ReservationTable(PORTS, FRAME)
    for flow_id, (src, dst, cells) in enumerate([(0, 1, 3), (1, 2, 2), (2, 0, 2)], 1):
        table.admit(Flow(flow_id=flow_id, src=src, dst=dst,
                         service=ServiceClass.CBR, cells_per_frame=cells))
    return table


def _integrated():
    return IntegratedSwitch(_table(), scheduler=PIMScheduler(seed=3))


def _cbr_plus_vbr():
    return [CBRSource(PORTS, _table().flows(), FRAME),
            UniformTraffic(PORTS, load=0.6, seed=7)]


def _summary(result, switch):
    fields = (
        result.counter.carried,
        result.mean_delay,
        result.backlog,
        result.dropped,
        result.arrivals_by_input,
        result.departures_by_output,
    )
    if hasattr(result, "cbr_delay"):
        fields += (result.cbr_delay.mean, result.vbr_delay.mean, result.cbr_slots_used)
    return fields


def _multicast_summary(result, switch):
    delay, counter = result
    return (counter.carried, delay.mean, switch.backlog(), switch.copies_delivered)


#: (id, fresh switch, traffic, projection of a run's result)
REGISTRY = [
    ("crossbar", lambda: CrossbarSwitch(PORTS, PIMScheduler(seed=3)), _uniform,
     _summary),
    ("fifo", lambda: FIFOSwitch(PORTS, FIFOScheduler(policy="random", seed=3)),
     _uniform, _summary),
    ("output-queued", lambda: OutputQueuedSwitch(PORTS), _uniform, _summary),
    ("windowed-fifo",
     lambda: WindowedFIFOSwitch(PORTS, WindowedFIFOScheduler(window=3, seed=3)),
     _uniform, _summary),
    ("replicated-recirculating",
     lambda: ReplicatedOutputSwitch(PORTS, replication=1, recirculation_ports=2),
     _uniform, _summary),
    ("integrated-cbr-vbr", _integrated, _cbr_plus_vbr, _summary),
    ("multicast", lambda: MulticastSwitch(PORTS, MulticastPIMScheduler(seed=3)),
     lambda: RandomFanoutSource(PORTS, 0.8, seed=7), _multicast_summary),
]


@pytest.mark.parametrize(
    "build,traffic,summary",
    [entry[1:] for entry in REGISTRY],
    ids=[entry[0] for entry in REGISTRY],
)
def test_rerun_equals_first_run_equals_fresh_switch(build, traffic, summary):
    switch, source = build(), traffic()
    first = summary(switch.run(source, slots=SLOTS, warmup=WARMUP), switch)
    second = summary(switch.run(source, slots=SLOTS, warmup=WARMUP), switch)
    fresh_switch = build()
    fresh = summary(
        fresh_switch.run(traffic(), slots=SLOTS, warmup=WARMUP), fresh_switch
    )
    assert first == second == fresh
    # The run must leave work behind, or the rerun proves nothing.
    assert first[2] > 0
