"""Section 2.4: output replication drops cells that hot spots concentrate.

The paper's case against the Knockout switch: "studies have shown that
few cells are dropped with a uniform workload, unfortunately local area
network traffic is rarely uniform.  Instead, a common pattern is
client-server communication, where a large fraction of incoming cells
tend to be destined for the same output port."  The AN2 switch buffers
at its inputs and drops nothing.

**Sample.**  32 runs of 1,500 slots on 16 ports.  Run r offers
``ClientServerTraffic(16, 0.95, servers=1, seed=800 + 2r)`` (one server
link at load 0.95) and ``UniformTraffic`` at the same mean load per
input (0.160, seed 801 + 2r), each to a
:class:`repro.switch.replicated.ReplicatedOutputSwitch` with
replication k = 4.  A run's statistic is the client-server drop rate
minus the uniform one (dropped over offered cells); the runs share
nothing, so the 32 differences are i.i.d.

**Test.**  H0: the mean difference is <= 0.  One-sided at 99.9 %: the
test passes when ``mean - t * s / sqrt(32)`` (t = 3.3749, the 0.999
quantile of Student's t at 31 d.o.f., from ``_stats``) is above 0.  A
pilot run at another seed dropped 0.12 % of the client-server cells
and 0.02 % of the uniform ones.

**AN2 drops nothing.**  The client-server traces of runs 0-3, replayed
into a ``CrossbarSwitch`` with ``PIMScheduler(iterations=4, seed=r)``,
drop 0 cells, and every cell offered is carried or still queued.
Exact, on every one of the four; the input buffers are unbounded, so
no run can drop a cell, and four keep the object switch's cost small.
"""

import numpy as np

from repro.core.pim import PIMScheduler
from repro.switch.replicated import ReplicatedOutputSwitch
from repro.switch.switch import CrossbarSwitch
from repro.traffic.clientserver import ClientServerTraffic
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic

from ._stats import half_width

PORTS = 16
RUNS = 32
SLOTS = 1_500
REPLICATION = 4
#: Runs whose client-server trace also goes through the AN2 switch.
AN2_RUNS = 4
#: The client-server workload's mean load per input, offered uniformly.
MEAN_LOAD = float(ClientServerTraffic(PORTS, 0.95, servers=1).connection_rates.sum()) / PORTS


def drop_rate(result) -> float:
    return result.dropped / result.counter.offered


def run(index: int) -> float:
    hot_spot = TraceRecorder(
        ClientServerTraffic(PORTS, 0.95, servers=1, seed=800 + 2 * index)
    )
    uniform = UniformTraffic(PORTS, MEAN_LOAD, seed=801 + 2 * index)
    knockout = [
        ReplicatedOutputSwitch(PORTS, replication=REPLICATION).run(traffic, slots=SLOTS)
        for traffic in (hot_spot, uniform)
    ]
    if index < AN2_RUNS:
        an2 = CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=index)).run(
            hot_spot.replay(), slots=SLOTS
        )
        assert an2.dropped == 0, index
        assert an2.counter.carried + an2.backlog == an2.counter.offered, index
    return drop_rate(knockout[0]) - drop_rate(knockout[1])


def test_client_server_traffic_drops_more_than_uniform():
    gap = np.array([run(index) for index in range(RUNS)])
    lower = gap.mean() - half_width(gap, 0.999)
    assert lower > 0, (gap.mean(), lower)
