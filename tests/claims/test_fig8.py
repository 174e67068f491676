"""Fig. 8: PIM's unfairness, and statistical matching's fix (Section 5.3).

In the paper's Figure 8 scenario (4 x 4, numbered from 0 here) inputs
0-2 each have traffic only for output 0, and input 3 has traffic for
all four outputs.  With random grants and random accepts output 0
grants input 3 with probability 1/4, and input 3, holding a grant from
every output, accepts it with probability 1/4: connection (3, 0) gets
1/16 of output 0.  The other 3/4 of the time output 0 grants one of
inputs 0-2, which accepts; the remaining 3/16 go to inputs 0-2 in the
second iteration.  So each of (0, 0), (1, 0) and (2, 0) gets 5/16,
exactly, for any budget of two or more iterations.  Section 5.3: an
equal allocation to output 0's four contenders under statistical
matching gives them roughly equal shares.

**PIM.**  ``BatchPIMScheduler(64, 4, iterations=4, seed=0)``, the kernel
the fast paths run, fed the Figure 8 request matrix for 1,024 slots.

- **Samples.**  Random accept keeps no state across slots and the 64
  replicas draw independent keys, so a replica's share of slots in
  which connection (i, 0) is matched is the mean of 1,024 i.i.d.
  Bernoulli draws, and the 64 replica shares are i.i.d.
- **Test.**  H0 per connection: the mean share equals 5/16 for
  i = 0..2 and 1/16 for i = 3.  Two-sided at 99.9 %: the test passes
  when ``|mean - p| <= t * s / sqrt(64)`` (t = 3.4518, the 0.9995
  quantile of Student's t at 63 d.o.f., from ``_stats``).  Then the
  ratio of the largest share to the smallest, bounded by the interval
  ends, lies within 5 +- 15 %.

At seed 0 the shares are 0.313, 0.315 and 0.311 (+- 0.006 to 0.007)
and 0.0619 +- 0.0031, so the ratio lies in [4.69, 5.47].

**Statistical matching.**  Allocations of X = 16 units: 4 to each of
(0, 0), (1, 0), (2, 0) and (3, 0), and 4 to each of (3, 1), (3, 2) and
(3, 3), so output 0 and input 3 are fully allocated.  Two rounds
(:func:`repro.sim.fastpath_statistical.match_counts`, no PIM fill).

- **Samples.**  64 batches of 1,024 lotteries, batch b one
  ``match_counts`` call at seed 8000 + b.  A batch's statistic per
  connection is its matches over lotteries, so the 64 batch rates are
  i.i.d.
- **Test.**  "Within 1.3x of each other": H0 for each ordered pair
  (a, b) of output 0's connections: the mean of ``rate_a - 1.3 rate_b``
  is >= 0.  One-sided at 99.9 %: the test passes when ``mean + t * s /
  sqrt(64)`` (t = 3.2248, the 0.999 quantile) is below 0 for all twelve
  pairs.  Four shares within 1.3x of each other have a Jain index above
  0.98.

At the fixed seeds the rates are 0.219, 0.219, 0.219 and 0.181 (a ratio
of 1.21); the closest pair, (1, 3), has an upper bound of -0.0077.
"""

import itertools

import numpy as np

from repro.core.pim import BatchPIMScheduler
from repro.sim.fastpath_statistical import match_counts

from ._stats import half_width

PORTS = 4
REPLICAS = 64
SLOTS = 1_024
#: Output 0's share per input under PIM: 5/16 for inputs 0-2, 1/16 for 3.
PIM_SHARES = np.array([5, 5, 5, 1]) / 16

UNITS = 16
BATCHES = 64
LOTTERIES = 1_024
#: "Roughly equal": no connection's rate more than 1.3x another's.
STAT_RATIO = 1.3


def fig8_requests() -> np.ndarray:
    requests = np.zeros((PORTS, PORTS), dtype=bool)
    requests[:, 0] = True
    requests[3, :] = True
    return requests


def test_pim_gives_connection_3_0_one_sixteenth_and_the_others_five():
    kernel = BatchPIMScheduler(REPLICAS, PORTS, iterations=4, seed=0)
    requests = np.repeat(fig8_requests()[None], REPLICAS, axis=0)
    wins = np.zeros((REPLICAS, PORTS))
    for _ in range(SLOTS):
        wins += kernel.schedule(requests) == 0
    shares = wins / SLOTS
    mean, half = shares.mean(axis=0), half_width(shares, 0.9995)
    assert (np.abs(mean - PIM_SHARES) <= half).all(), (mean, half)
    lowest, highest = (mean - half)[:3].min(), (mean + half)[:3].max()
    ratios = lowest / (mean + half)[3], highest / (mean - half)[3]
    assert 5 * 0.85 < min(ratios) and max(ratios) < 5 * 1.15, ratios


def test_statistical_matching_shares_output_0_within_1_3x():
    allocation = np.zeros((PORTS, PORTS), dtype=np.int64)
    allocation[:, 0] = UNITS // PORTS
    allocation[3, :] = UNITS // PORTS
    rates = []
    for batch in range(BATCHES):
        counts, samples = match_counts(
            allocation, UNITS, rounds=2, trials=LOTTERIES, replicas=LOTTERIES,
            seed=8000 + batch,
        )
        assert samples == LOTTERIES
        rates.append(counts[:, 0] / samples)
    rates = np.array(rates)
    for a, b in itertools.permutations(range(PORTS), 2):
        gap = rates[:, a] - STAT_RATIO * rates[:, b]
        upper = gap.mean() + half_width(gap, 0.999)
        assert upper < 0, (a, b, gap.mean(), upper)
