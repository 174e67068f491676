"""Section 3.4: maximal (PIM) against maximum (Hopcroft-Karp) matching.

Section 3.4 weighs a maximum matching against PIM's maximal one: a
maximum match is at most twice as large, but a deterministic maximum
matcher "can lead to starvation", and the simulations suggest "only a
marginal benefit".  One exact and one statistical claim here; "marginal"
states no number, so no delay comparison is asserted.

**Starvation.**  On the request pattern ``[[1, 1], [1, 0]]`` (input 0
asks for both outputs, input 1 for output 0) the only maximum matching
is {(0, 1), (1, 0)}, so :class:`repro.core.maximum.MaximumMatchingScheduler`
never serves (0, 0): asserted on each of 1,024 slots, exactly.  PIM
serves it.  Output 0 grants input 0 with probability 1/2 and output 1
always grants input 0, so input 0 holds two grants half the time and
accepts output 0's with probability 1/2; otherwise (0, 0) stays
unmatched (input 1 takes output 0, or input 0 took output 1 and input 1
takes output 0 in iteration 2).  So PIM-4 serves (0, 0) with
probability exactly 1/4 per slot.

- **Sample.**  ``BatchPIMScheduler(64, 2, iterations=4, seed=3)`` fed the
  pattern for 1,024 slots; per replica the share of slots that match
  (0, 0).  Random accept keeps no state across slots and the replicas
  draw independent keys, so the 64 shares are i.i.d.
- **Test.**  H0: the mean share is 1/4.  Two-sided at 99.9 %: the test
  passes when ``|mean - 1/4| <= t * s / 8`` (t = 3.4518, the 0.9995
  quantile of Student's t at 63 d.o.f., from ``_stats``).

PIM-4's mean matching-size deficit against Hopcroft-Karp (about 0.93
pairs on 16 x 16 patterns of density 1/2) is a measured result in
EXPERIMENTS.md, not a claim: the paper states no number for it.
"""

import numpy as np

from repro.core.maximum import MaximumMatchingScheduler
from repro.core.pim import BatchPIMScheduler

from ._stats import half_width

REPLICAS = 64
SLOTS = 1_024
STARVATION = np.array([[True, True], [True, False]])


def test_maximum_matching_never_serves_the_dominated_pair():
    scheduler = MaximumMatchingScheduler()
    served = [(0, 0) in scheduler.schedule(STARVATION).pairs for _ in range(SLOTS)]
    assert not any(served)


def test_pim4_serves_the_dominated_pair_a_quarter_of_the_time():
    kernel = BatchPIMScheduler(REPLICAS, 2, iterations=4, seed=3)
    requests = np.repeat(STARVATION[None], REPLICAS, axis=0)
    served = np.zeros(REPLICAS)
    for _ in range(SLOTS):
        served += kernel.schedule(requests)[:, 0] == 0
    shares = served / SLOTS
    mean, half = shares.mean(), half_width(shares, 0.9995)
    assert abs(mean - 1 / 4) <= half, (mean, half)

