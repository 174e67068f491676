"""Fig. 3 on the fast path: PIM-4 at 95 % load, against the paper's words.

Section 3.3 of the paper reads Figure 3 (16 x 16 switch, uniform
destinations) as two claims, each a statistical test here on one run of
``run_fastpath(16, 0.95, 6000, replicas=64, warmup=1000, iterations=4)``:
the batched PIM-4 kernel the fast paths run, at seed 0.

- **Samples.**  The 64 replicas share no state -- each draws its own
  arrivals and its own PIM stream -- so their per-replica statistics
  are 64 i.i.d. samples.  The window is slots 1,000..5,999.  The
  warmup is at least 1,000 slots: a shorter one keeps part of the
  fill-up transient, whose short queues bias the mean delay *down*,
  the anti-conservative direction for an upper bound.  Delay is read
  with ``warmup_mode="arrival"`` (cells that arrived in the window, the
  :class:`repro.sim.stats.DelayStats` convention); cells still queued
  at the end add to the backlog integral but not to the departures, so
  the estimate errs high, the conservative direction.
- **Claim 1.**  "At 95 % load the switch forwards cells in under 13 us
  on average."  At 424 ns per slot
  (:func:`repro.hardware.cost.slots_to_seconds`) that is 30.66 slots.
  H0: the mean delay is >= 30.66 slots.  Rejected, and the test passes,
  when the one-sided 99.9 % upper bound ``mean + t * s / sqrt(64)``
  (t = 3.2248, the 0.999 quantile of Student's t at 63 d.o.f., from
  ``_stats``) lies below 30.66.
- **Claim 2.**  PIM-4 carries the offered load, where FIFO saturates
  at 58.6 %.  Per replica, carried / offered cells in the window.  H0:
  the mean ratio is <= 0.99.  Rejected when the one-sided 99.9 % lower
  bound ``mean - t * s / sqrt(64)`` lies above 0.99.

At seed 0 the mean delay is 23.12 slots with an upper bound of 23.51
(9.97 us), and carried / offered is 0.9994 with a lower bound of 0.9992.
"""

import pytest

from repro.hardware.cost import slots_to_seconds
from repro.sim.fastpath import run_fastpath

from ._stats import half_width

PORTS = 16
LOAD = 0.95
REPLICAS = 64
SLOTS = 6_000
WARMUP = 1_000
#: "Under 13 microseconds", in slots of 424 ns.
BOUND_SLOTS = 13e-6 / slots_to_seconds(1)
#: "Carries the offered load": carried / offered, one-sided lower limit.
CARRIED_SHARE = 0.99


@pytest.fixture(scope="module")
def pim4_at_95():
    return run_fastpath(
        PORTS, LOAD, SLOTS, replicas=REPLICAS, warmup=WARMUP, iterations=4,
        seed=0, warmup_mode="arrival",
    )


def test_bound_is_13_microseconds_in_slots():
    assert BOUND_SLOTS == pytest.approx(30.66, abs=0.01)


def test_mean_delay_at_95_percent_load_is_under_13_us(pim4_at_95):
    delays = pim4_at_95.mean_delay_by_replica
    assert delays.size == REPLICAS
    upper = delays.mean() + half_width(delays, 0.999)
    assert upper < BOUND_SLOTS, (delays.mean(), upper, BOUND_SLOTS)


def test_pim4_carries_the_offered_load(pim4_at_95):
    shares = pim4_at_95.carried_cells / pim4_at_95.offered_cells
    lower = shares.mean() - half_width(shares, 0.999)
    assert lower > CARRIED_SHARE, (shares.mean(), lower)
