"""Fig. 9: the parking lot -- a late-merging flow takes half the bottleneck.

Figure 9 merges four saturated flows toward one sink over a chain of
three switches: c and d enter at the first switch, b at the second and
a at the last.  Each switch splits an output among its *inputs*, so the
late merger a takes half the bottleneck and the flows that crossed the
chain are squeezed.

**Derivation, for this repo's switches.**  PIM gives each of an
output's backlogged inputs an equal share, and inside an input the
AN2-style switch keeps one VOQ cell queue per flow, served round-robin.

- s1: the link to s2 is split between c's and d's inputs: 1/2 each.
- s2: the link to s3 is split between hb's input (b) and s1's input
  (c + d): b arrives at 1/2, c and d at 1/4 each.
- s3: the sink link is split between ha's input (a: 1/2) and s2's
  input, whose VOQ for the sink holds b, c and d.  All three arrive
  above the 1/6 that round-robin offers each of them, so all stay
  backlogged and each gets 1/6 of the sink link.

So a : b : c : d = 1/2 : 1/6 : 1/6 : 1/6.  The paper's 1/2 : 1/4 : 1/8
: 1/8 is the same arithmetic under per-input FIFO service, where the
shares of flows in one input follow their arrival mix (1/2 x 1/2 for
b, 1/2 x 1/4 for c and d).

**Sample.**  ``run_fastpath_network`` on ``topologies.parking_lot(3)``
with four rate-1.0 flows to the sink (ids 1-4 for a, b, c, d), 64
replicas, 1,000 warm-up and 3,000 window slots, seed 0.  Per replica,
each flow's share of the cells delivered in the window; the replicas
share no state, so the 64 shares per flow are i.i.d.

**Test.**  H0 per flow: the mean share equals its derived value.
Two-sided at 99.9 %: the test passes when ``|mean - share| <= t * s /
8`` (t = 3.4518, the 0.9995 quantile of Student's t at 63 d.o.f., from
``_stats``).  A pilot run at another seed gave 0.4998 +- 0.0035 for
a and 0.1667 +- 0.0012 for each of the others.
"""

import numpy as np

from repro.network.netsim import FlowSpec
from repro.network.topologies import parking_lot
from repro.sim.fastpath_network import run_fastpath_network

from ._stats import half_width

REPLICAS = 64
#: a (merges at the last switch), b, c and d.
SHARES = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])


def test_parking_lot_shares_are_one_half_and_three_sixths():
    topology, hosts, sink = parking_lot(3)
    # parking_lot lists the sources earliest merge first: d, c, b, a.
    flows = [FlowSpec(k + 1, host, sink, 1.0) for k, host in enumerate(hosts[::-1])]
    result = run_fastpath_network(
        topology, flows, 4_000, replicas=REPLICAS, warmup=1_000, seed=0
    )
    shares = result.delivered / result.delivered.sum(axis=1, keepdims=True)
    mean, half = shares.mean(axis=0), half_width(shares, 0.9995)
    assert (np.abs(mean - SHARES) <= half).all(), (mean, half)
