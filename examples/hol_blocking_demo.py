#!/usr/bin/env python
"""Head-of-line blocking, from first principles to Figure 1.

Walks the three buffer organizations of Section 2.4 on hostile
traffic:

1. a hand-built two-cell demonstration of HOL blocking,
2. Karol's 58.6% saturation limit under uniform traffic,
3. the Figure 1 stationary-blocking collapse under in-phase periodic
   bursts -- and how random-access input buffers (VOQs) plus parallel
   iterative matching recover full throughput on the same workload.

Run:  python examples/hol_blocking_demo.py
"""

from repro import (
    CrossbarSwitch,
    FIFOScheduler,
    FIFOSwitch,
    PeriodicTraffic,
    PIMScheduler,
    UniformTraffic,
)
from repro.analysis.queueing import hol_saturation_limit
from repro.switch.cell import Cell


def two_cell_demo() -> None:
    print("1. The mechanism (2 inputs, head cells contending):")
    switch = FIFOSwitch(4, FIFOScheduler(policy="rotating"))
    # Input 1 holds [to output 1, to output 2]; input 0 holds [to
    # output 1].  Rotating priority starts at input 0, so input 1's
    # head loses the slot-0 contention for output 1.
    departed = switch.step(0, [
        (0, Cell(flow_id=1, output=1, seqno=0)),
        (1, Cell(flow_id=2, output=1, seqno=0)),
        (1, Cell(flow_id=3, output=2, seqno=0)),
    ])
    print("   slot 0: both heads want output 1; input 0 wins "
          f"({len(departed)} cell departed)")
    print(f"   input 1's cell for output 2 is stuck behind its blocked "
          f"head even though output 2 sat idle (backlog={switch.backlog()})")
    print("   with random-access buffers the output-2 cell would have "
          "crossed in slot 0\n")


def karol_limit_demo() -> None:
    print("2. Karol's saturation limit (uniform traffic, load 1.0):")
    for ports in (4, 16, 32):
        switch = FIFOSwitch(ports, FIFOScheduler(policy="random", seed=0))
        result = switch.run(
            UniformTraffic(ports, load=1.0, seed=1), slots=8000, warmup=1000
        )
        print(f"   {ports:2d} ports: carried {result.throughput:.3f} per link "
              f"(asymptotic limit 2 - sqrt(2) = {hol_saturation_limit():.3f})")
    print()


def stationary_blocking_demo() -> None:
    print("3. Figure 1: in-phase periodic bursts, saturated inputs:")
    ports = 8
    burst = 2 * ports
    switch = FIFOSwitch(ports, FIFOScheduler(policy="rotating"))
    traffic = PeriodicTraffic(ports, load=1.0, burst=burst)
    window = ports * burst // 2
    departed = sum(
        len(switch.step(slot, traffic.arrivals(slot))) for slot in range(window)
    )
    print(f"   FIFO, synchronized window : {departed / window:.2f} cells/slot "
          f"(one link's worth, switch has {ports})")

    fifo = FIFOSwitch(ports, FIFOScheduler(policy="random", seed=0)).run(
        PeriodicTraffic(ports, load=1.0, burst=burst), slots=8000, warmup=1000
    )
    pim = CrossbarSwitch(ports, PIMScheduler(iterations=4, seed=0)).run(
        PeriodicTraffic(ports, load=1.0, burst=burst), slots=8000, warmup=1000
    )
    print(f"   FIFO, steady state        : {fifo.aggregate_throughput:.2f} cells/slot")
    print(f"   VOQ + PIM, same workload  : {pim.aggregate_throughput:.2f} cells/slot "
          "(all links busy)")


def main() -> None:
    two_cell_demo()
    karol_limit_demo()
    stationary_blocking_demo()


if __name__ == "__main__":
    main()
