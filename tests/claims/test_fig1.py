"""Fig. 1: a FIFO switch forwards one cell per slot under in-phase bursts.

Figure 1 illustrates Li's stationary blocking: every input holds a
burst of cells for the same output, and scheduling priority "rotates
among inputs so that the first cell from each input is scheduled in
turn", so the N heads chase one output and the switch forwards the
cells of a single link, whatever its size.

**Setup.**  The object :class:`repro.switch.switch.FIFOSwitch` with
``FIFOScheduler(policy="rotating")``, driven by ``PeriodicTraffic(N,
1.0, burst=2N)``: from slot 0 every input receives one cell per slot,
the first 2N for output 0, the next 2N for output 1, and so on, all
inputs in phase.

**Derivation.**  The global priority pointer stands at input s mod N in
slot s, and while all N heads are for output 0 that input wins, so
input i sends its k-th cell for output 0 in slot i + kN.  Input 0's
last one (k = 2N - 1) leaves in slot 2N^2 - N.  Until then every head
is for output 0 and exactly one cell moves per slot.  In slot
2N^2 - N + 1 input 0's head is for output 1, which no other head wants,
while output 0 serves input 1: two cells move.

**Claim.**  At N = 8, 16 and 32, the switch forwards exactly one cell in
each of slots 0..2N^2 - N and two cells in slot 2N^2 - N + 1 (slots 121,
497 and 2017).  Deterministic: no sample and no interval, asserted on
every slot.
"""

import pytest

from repro.core.fifo import FIFOScheduler
from repro.switch.switch import FIFOSwitch
from repro.traffic.periodic import PeriodicTraffic


@pytest.mark.parametrize("ports", [8, 16, 32])
def test_fifo_forwards_one_cell_per_slot_until_the_first_head_moves_on(ports):
    switch = FIFOSwitch(ports, FIFOScheduler(policy="rotating"))
    traffic = PeriodicTraffic(ports, load=1.0, burst=2 * ports)
    lockstep = 2 * ports * ports - ports
    forwarded = [
        len(switch.step(slot, traffic.arrivals(slot))) for slot in range(lockstep + 2)
    ]
    assert forwarded[: lockstep + 1] == [1] * (lockstep + 1)
    assert forwarded[lockstep + 1] == 2
