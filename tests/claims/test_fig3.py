"""Fig. 3: FIFO, PIM-4 and output queueing under uniform traffic.

Section 3.3 of the paper reads Figure 3 (16 x 16 switch, uniform
destinations, offered loads 0.2 to 0.95) as: FIFO saturates near the
58.6 % limit of Karol, Hluchyj & Morgan (1987); PIM-4 carries every
load, forwards a cell in under 13 us at 95 % load, and tracks perfect
output queueing; at light load the three are alike.  Each is a test
here, its hypothesis, sample and interval fixed before it ran.  Every
interval is ``mean +- t * s / sqrt(n)`` with t from ``_stats``: the
0.999 quantile of Student's t for a one-sided 99.9 % bound, the 0.9995
quantile for a two-sided one, at n - 1 degrees of freedom.

**PIM-4 at 95 % load**, on one run of ``run_fastpath(16, 0.95, 6000,
replicas=64, warmup=1000, iterations=4)``: the batched PIM-4 kernel the
fast paths run, at seed 0.

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
  when the one-sided upper bound lies below 30.66.
- **Claim 2.**  PIM-4 carries the offered load, where FIFO saturates
  at 58.6 %.  Per replica, carried / offered cells in the window.  H0:
  the mean ratio is <= 0.99.  Rejected when the one-sided lower bound
  lies above 0.99.

At seed 0 the mean delay is 23.12 slots with an upper bound of 23.51
(9.97 us), and carried / offered is 0.9994 with a lower bound of 0.9992.

**PIM-4 carries every Fig. 3 load** (0.2, 0.4, 0.6, 0.7, 0.8, 0.9 and
0.95).  Below 0.95 each load is one run of ``run_fastpath(16, load,
3000, replicas=64, warmup=1000, iterations=4)`` at seed 0 (a 2,000-slot
window; 0.95 reuses the run above), read as in Claim 2.  H0: the mean
carried / offered is outside [0.99, 1.01].  Rejected when the two-sided
interval lies inside it.  The upper edge matters too: cells queued at
the warmup may leave inside the window, so the ratio can exceed 1.  At
seed 0 every mean lies within 0.0007 of 1, every half-width below
0.0003.

**FIFO saturation** on the object :class:`repro.switch.switch.FIFOSwitch`
(random HOL contention, Karol's model) driven at load 1.0 by
:func:`repro.analysis.queueing.fifo_saturation_throughput`.

- **Samples.**  At each N, 32 independent runs of 1,200 slots, the
  first 200 a warmup; run r uses seed ``100 N + 2 r`` for the
  contention and ``100 N + 2 r + 1`` for the arrivals, so no two
  streams share a seed.  A run's statistic is its carried load per link.
- **N = 4 and N = 8.**  H0: the mean equals Karol et al.'s Table I
  (0.6553 and 0.6184).  Two-sided, 31 d.o.f.: the test passes when
  ``|mean - table| <= t * s / sqrt(32)``.
- **N = 16.**  Table I stops at N = 8.  H0: the mean lies outside
  (2 - sqrt(2), 0.6184), between the asymptote and the N = 8 value.
  Rejected when the two-sided interval lies strictly inside.

At the fixed seeds: N = 4, 0.6548 +- 0.0049 against 0.6553; N = 8,
0.6175 +- 0.0039 against 0.6184; N = 16, 0.6006 +- 0.0022.

**Output queueing is a lower bound on PIM-4.**  At each Fig. 3 load,
2,000 slots of ``UniformTraffic(16, load, seed=100 + index)`` (index
the load's place in ``FIG3_LOADS``) are recorded once and replayed into an :class:`OutputQueuedSwitch` and a
``CrossbarSwitch`` with ``PIMScheduler(iterations=4, seed=0)``.  An
output-queued switch sends every output's oldest cell each slot, so no
switch with one departure per output per slot can leave fewer cells
behind.  Asserted on every slot: output queueing's backlog is at most
PIM-4's.  Exact, so no interval.  By Little's law it bounds the mean
delay too, without the 0.5-slot slack a delay comparison would need.
At the fixed seeds PIM-4 holds 0.08 (load 0.2) to 167 (load 0.95) more
cells than output queueing on average.

**Light load.**  At load 0.2, 32 independent runs of 600 slots (the
first 100 a warmup) of ``UniformTraffic(16, 0.2, seed=500 + r)``, each
recorded once and replayed into a FIFO switch (random contention, seed
r), PIM-4 (seed r) and output queueing.  Per run, the three pairwise
differences of mean delay.  H0 per pair: the mean difference is 0.5
slot or more in size.  Rejected when the two-sided interval lies
inside (-0.5, 0.5).  At the fixed seeds the mean delays are 0.147
(FIFO), 0.135 (PIM-4) and 0.114 (output queueing) slots, and no
interval reaches beyond 0.037.
"""

import functools

import numpy as np
import pytest

from repro.analysis.queueing import fifo_saturation_throughput, hol_saturation_limit
from repro.core.fifo import FIFOScheduler
from repro.core.output_queueing import OutputQueuedSwitch
from repro.core.pim import PIMScheduler
from repro.hardware.cost import slots_to_seconds
from repro.sim.fastpath import run_fastpath
from repro.switch.switch import CrossbarSwitch, FIFOSwitch
from repro.traffic.trace import TraceRecorder
from repro.traffic.uniform import UniformTraffic

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

#: Figure 3's offered loads.
FIG3_LOADS = [0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95]
#: Slots per run below 95 % load (the window is the last 2,000).
SWEEP_SLOTS = 3_000

FIFO_RUNS = 32
FIFO_WARMUP = 200
FIFO_SLOTS = 1_200

BACKLOG_SLOTS = 2_000

LIGHT_LOAD = 0.2
LIGHT_RUNS = 32
LIGHT_WARMUP = 100
LIGHT_SLOTS = 600
#: "Alike": every pair of mean delays within half a slot.
LIGHT_GAP = 0.5


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


@pytest.mark.parametrize("load", FIG3_LOADS)
def test_pim4_carries_every_fig3_load(load, pim4_at_95):
    result = pim4_at_95 if load == LOAD else run_fastpath(
        PORTS, load, SWEEP_SLOTS, replicas=REPLICAS, warmup=WARMUP, iterations=4,
        seed=0, warmup_mode="arrival",
    )
    shares = result.carried_cells / result.offered_cells
    mean, half = shares.mean(), half_width(shares, 0.9995)
    assert 0.99 < mean - half and mean + half < 1.01, (load, mean, half)


@functools.lru_cache(maxsize=None)
def fifo_saturation(ports: int) -> np.ndarray:
    """Per run, the carried load per link of a FIFO switch at load 1.0."""
    return np.array([
        fifo_saturation_throughput(
            ports, slots=FIFO_SLOTS, warmup=FIFO_WARMUP, seed=100 * ports + 2 * run
        )
        for run in range(FIFO_RUNS)
    ])


@pytest.mark.parametrize("ports", [4, 8])
def test_fifo_saturates_at_karols_table_value(ports):
    samples = fifo_saturation(ports)
    mean, half = samples.mean(), half_width(samples, 0.9995)
    table = hol_saturation_limit(ports)
    assert abs(mean - table) <= half, (ports, mean, half, table)


def test_fifo_saturation_at_16_ports_is_between_n_8_and_the_limit():
    samples = fifo_saturation(16)
    mean, half = samples.mean(), half_width(samples, 0.9995)
    assert hol_saturation_limit() < mean - half, (mean, half)
    assert mean + half < hol_saturation_limit(8), (mean, half)


def backlog_series(switch, traffic) -> np.ndarray:
    """The switch's backlog at the end of each of ``BACKLOG_SLOTS`` slots."""
    series = np.empty(BACKLOG_SLOTS, dtype=np.int64)
    for slot in range(BACKLOG_SLOTS):
        switch.step(slot, traffic.arrivals(slot))
        series[slot] = switch.backlog()
    return series


@pytest.mark.parametrize("index", range(len(FIG3_LOADS)))
def test_output_queueing_backlog_never_exceeds_pim4(index):
    load = FIG3_LOADS[index]
    recorder = TraceRecorder(UniformTraffic(PORTS, load=load, seed=100 + index))
    output_queued = backlog_series(OutputQueuedSwitch(PORTS), recorder)
    pim4 = backlog_series(
        CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=0)), recorder.replay()
    )
    over = np.flatnonzero(output_queued > pim4)
    assert over.size == 0, (load, over[:5])
    assert pim4.sum() > 0, load


def light_load_delays(run: int):
    """Mean delay of FIFO, PIM-4 and output queueing on one shared trace."""
    recorder = TraceRecorder(UniformTraffic(PORTS, load=LIGHT_LOAD, seed=500 + run))
    switches = [
        FIFOSwitch(PORTS, FIFOScheduler(policy="random", seed=run)),
        CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=run)),
        OutputQueuedSwitch(PORTS),
    ]
    delays = []
    for switch in switches:
        traffic = recorder if not delays else recorder.replay()
        result = switch.run(traffic, slots=LIGHT_SLOTS, warmup=LIGHT_WARMUP)
        delays.append(result.mean_delay)
    return delays


def test_fifo_pim4_and_output_queueing_are_alike_at_light_load():
    fifo, pim4, output_queued = np.array(
        [light_load_delays(run) for run in range(LIGHT_RUNS)]
    ).T
    for name, gap in [
        ("pim4 - oq", pim4 - output_queued),
        ("fifo - oq", fifo - output_queued),
        ("fifo - pim4", fifo - pim4),
    ]:
        mean, half = gap.mean(), half_width(gap, 0.9995)
        assert -LIGHT_GAP < mean - half and mean + half < LIGHT_GAP, (name, mean, half)
