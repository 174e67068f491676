"""Section 2.3: cells cut short-packet latency without costing long packets.

"Using cells can also improve packet latency for both short and long
packets.  Short packets do better because they can be interleaved over
a link with long packets; a long packet cannot monopolize a connection
for its entire duration."

**Workload.**  64 rounds, 80 slots apart.  In round r (t = 80 r) a
64-cell packet arrives at input 0 in slot t and a 1-cell packet at
input 1 in slot t + 32, both for output 1 of a 4-port switch.  A
packet's latency is the slot its last cell leaves minus the slot it
arrived.  Each round drains before the next begins (65 cells, one per
slot), so the rounds are independent.

**Store and forward** holds the output link for a whole packet: the
long packet leaves in slot t + 64 (latency 64), and the short one waits
for it and then leaves in slot t + 65 (latency 33).  Exact, every round.

**Cells**: the segmenting ``CrossbarSwitch`` with PIM-4 (the object
model, seed 0), reassembled by :class:`repro.switch.packets.Reassembler`.

- While the short cell waits, output 1 has two requesters and grants
  each with probability 1/2, so the short packet's latency W is
  geometric: P(W = w) = 2^-(w + 1), mean 1 slot, and at most 32 slots,
  as only 32 long cells remain when it arrives.  Asserted: W <= 32 on
  every round (exact), and H0: E[W] = 1, two-sided at 99.9 % over the
  64 i.i.d. rounds: the test passes when ``|mean - 1| <= t * s / 8``
  (t = 3.4518, the 0.9995 quantile of Student's t at 63 d.o.f., from
  ``_stats``).
- Output 1 sends one cell per slot from slot t, so the long packet's
  last cell leaves in slot t + 64, after the short one: latency 64, as
  under store and forward.  It leaves in slot t + 63 only if the short
  cell waits all 32 slots (probability 2^-32 a round), so latency 64 is
  asserted on every round.
"""

import numpy as np

from repro.core.pim import PIMScheduler
from repro.switch.cell import ATM_CELL
from repro.switch.packets import Packet, Reassembler, Segmenter
from repro.switch.switch import CrossbarSwitch

from ._stats import half_width

ROUNDS = 64
PERIOD = 80
LONG_CELLS = 64
SHORT_AT = 32
LONG, SHORT = 1, 2


def store_and_forward():
    """Per-round latencies when the output link carries whole packets."""
    latencies = {LONG: [], SHORT: []}
    free_at = 0
    for start in range(0, ROUNDS * PERIOD, PERIOD):
        free_at = max(start, free_at) + LONG_CELLS
        latencies[LONG].append(free_at - start)
        free_at = max(start + SHORT_AT, free_at) + 1
        latencies[SHORT].append(free_at - start - SHORT_AT)
    return latencies


def cell_switched():
    """Per-round latencies through the cell switch."""
    switch = CrossbarSwitch(4, PIMScheduler(seed=0))
    segmenter, reassembler = Segmenter(ATM_CELL), Reassembler()
    packets = {}
    for start in range(0, ROUNDS * PERIOD, PERIOD):
        packets[start] = (0, Packet(LONG, LONG_CELLS * ATM_CELL.payload_bytes))
        packets[start + SHORT_AT] = (1, Packet(SHORT, 40))
    latencies = {LONG: [], SHORT: []}
    for slot in range(ROUNDS * PERIOD):
        arrivals = []
        if slot in packets:
            source, packet = packets[slot]
            packet.created_slot = slot
            arrivals = [(source, c) for c in segmenter.segment(packet, 1, slot)]
        for cell in switch.step(slot, arrivals):
            done = reassembler.accept(cell, slot)
            if done is not None:
                latencies[done.flow_id].append(slot - done.created_slot)
    return latencies


def test_store_and_forward_latencies():
    latencies = store_and_forward()
    assert latencies[LONG] == [64] * ROUNDS
    assert latencies[SHORT] == [33] * ROUNDS


def test_cells_interleave_the_short_packet():
    latencies = cell_switched()
    assert latencies[LONG] == [64] * ROUNDS
    short = np.array(latencies[SHORT], dtype=float)
    assert short.size == ROUNDS and short.max() <= 32
    mean, half = short.mean(), half_width(short, 0.9995)
    assert abs(mean - 1) <= half, (mean, half)
