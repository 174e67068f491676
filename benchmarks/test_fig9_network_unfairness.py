"""Figure 9: unfairness in arbitrary-topology networks (parking lot).

Four saturated flows (a, b, c, d) merge along a chain of three
switches toward one bottleneck link: c and d enter at the first
switch, b at the second, a at the last.  With per-switch arbitration
that splits each output among its *inputs*, the late-merging flow 'a'
takes half the bottleneck while the flows that crossed the whole chain
are squeezed -- the paper's Figure 9 shows a : b : c : d = 1/2 : 1/4 :
1/8 : 1/8 under per-input round-robin FIFO service.

Our AN2-style switches keep per-flow VOQs served round-robin, which
equalizes the flows sharing the chain (b = c = d = 1/6) but cannot fix
the input-level bias: 'a' still gets three times everyone else.  We
report both the measured shares and the fair (1/4 each) allocation a
Virtual-Clock output-queued switch would deliver.
"""

import pytest

from repro.fairness.metrics import jain_index, max_min_ratio
from repro.fairness.virtual_clock import VirtualClockLink
from repro.network.netsim import FlowSpec, NetworkSimulator
from repro.network.topology import Topology

from _common import FULL, print_table

SLOTS = 30_000 if FULL else 8_000
WARMUP = 4_000 if FULL else 1_500


def parking_lot_topology():
    topo = Topology()
    for s in ("s1", "s2", "s3"):
        topo.add_switch(s, 4)
    for h in ("hd", "hc", "hb", "ha", "sink"):
        topo.add_host(h)
    topo.connect("hd", "s1")
    topo.connect("hc", "s1")
    topo.connect("s1", "s2")
    topo.connect("hb", "s2")
    topo.connect("s2", "s3")
    topo.connect("ha", "s3")
    topo.connect("s3", "sink")
    return topo


def run_network():
    flows = [
        FlowSpec(flow_id, host, "sink", 1.0)
        for flow_id, host in [(1, "ha"), (2, "hb"), (3, "hc"), (4, "hd")]
    ]
    sim = NetworkSimulator(parking_lot_topology(), seed=42)
    for flow in flows:
        sim.add_flow(flow)
    result = sim.run(slots=SLOTS, warmup=WARMUP)
    return {flow: result.throughput(flow) for flow in (1, 2, 3, 4)}


def run_virtual_clock_reference(slots=SLOTS):
    """The fair allocation: a Virtual Clock bottleneck link with equal
    rates serves the four (backlogged) flows equally."""
    link = VirtualClockLink({flow: 0.25 for flow in (1, 2, 3, 4)})
    counts = {flow: 0 for flow in (1, 2, 3, 4)}
    for slot in range(slots):
        for flow in counts:
            if link.backlog_of(flow) < 4:
                link.enqueue(flow, now=float(slot))
        served = link.serve()
        if served is not None:
            counts[served[0]] += 1
    total = sum(counts.values())
    return {flow: counts[flow] / total for flow in counts}


def compute_fig9():
    return run_network(), run_virtual_clock_reference()


def test_fig9(benchmark):
    network, reference = benchmark.pedantic(compute_fig9, rounds=1, iterations=1)
    names = {1: "a (merges at s3)", 2: "b (merges at s2)",
             3: "c (merges at s1)", 4: "d (merges at s1)"}
    print_table(
        "Figure 9: bottleneck shares of four merging flows",
        ["flow", "PIM network", "virtual clock (fair)", "paper (FIFO+RR)"],
        [
            (names[flow], network[flow], reference[flow],
             {1: "1/2", 2: "1/4", 3: "1/8", 4: "1/8"}[flow])
            for flow in (1, 2, 3, 4)
        ],
    )
    shares = [network[flow] for flow in (1, 2, 3, 4)]
    print(f"network jain={jain_index(shares):.3f} "
          f"max/min={max_min_ratio(shares):.2f}")

    # The late merger dominates: half the bottleneck.
    assert network[1] == pytest.approx(0.5, abs=0.04)
    # Flows crossing the chain get far less than their fair 1/4.
    for flow in (2, 3, 4):
        assert network[flow] < 0.20
    # Unfairness is large (paper's point)...
    assert max_min_ratio(shares) > 2.5
    # ...while the Virtual Clock reference is essentially fair.
    assert jain_index(list(reference.values())) > 0.99
