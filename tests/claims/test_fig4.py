"""Fig. 4: PIM-4 under the client-server workload.

Section 3.5: four of the sixteen ports are servers, client-client
connections carry 5 % of the traffic of connections touching a server,
and the offered load is the load on a server link.  The paper reads
Figure 4 as qualitatively like Figure 3, with PIM "even closer to
optimal than in the uniform case".  Both halves are claims here, on the
fast path: ``run_fastpath(16, 0.9, 2000, replicas=32, warmup=500,
iterations=4, sources=[ClientServerTraffic(16, 0.9, seed=9000 + b)],
warmup_mode="arrival")``, seed 0, whose replica b replays source b.
Every interval is ``mean +- t * s / sqrt(32)`` over the 32 replicas,
which share no state, with t from ``_stats``.

**PIM-4 carries the hot spot**, with random accept and with Section
3.4's round-robin accept (a second run, ``accept="round_robin"``).  Per
replica, (carried - offered) / offered over the 1,500-slot window.  H0:
its mean is 0, two-sided at 99.9 % (t = 3.6335, the 0.9995 quantile at
31 d.o.f.): the test passes when the interval holds 0.

**Even closer to optimal.**  The ratio of PIM-4's mean delay to perfect
output queueing's, at load 0.9, is lower under client-server traffic
than under uniform traffic.

- Output queueing has a closed form under both.  An output whose
  arrivals in a slot are A, a sum of independent Bernoulli(r_ij) over
  the inputs i, waits E[A(A - 1)] / (2 E[A] (1 - E[A])) slots on
  average: the discrete-time queue with batch arrivals behind
  :func:`repro.analysis.queueing.output_queueing_delay`, which is its
  uniform case, r_ij = 0.9 / 16, and gives 4.219.  With E[A] = sum r_ij and
  E[A(A - 1)] = (sum r_ij)^2 - sum r_ij^2 per output, weighted by each
  output's share of the cells, the client-server rates give 2.271.
- PIM-4 under uniform traffic: ``run_fastpath(16, 0.9, 2000,
  replicas=32, warmup=500, iterations=4, seed=9, warmup_mode="arrival")``.
- Per replica b, the uniform ratio minus the client-server ratio (the
  random-accept run above).  The two runs share nothing, so the 32
  differences are i.i.d.  H0: the mean difference is <= 0.  One-sided
  at 99.9 %: the test passes when ``mean - t * s / sqrt(32)`` (t =
  3.3749, the 0.999 quantile at 31 d.o.f.) is above 0.

A pilot run on 3 seeds x 6,000 slots of the object model gave
client-server ratios of 1.39-1.54 and uniform ratios of 2.28-2.33.
"""

import functools

import numpy as np
import pytest

from repro.analysis.queueing import output_queueing_delay
from repro.sim.fastpath import run_fastpath
from repro.traffic.clientserver import ClientServerTraffic

from ._stats import half_width

PORTS = 16
LOAD = 0.9
REPLICAS = 32
SLOTS = 2_000
WARMUP = 500


@functools.lru_cache(maxsize=None)
def client_server(accept: str):
    sources = [ClientServerTraffic(PORTS, LOAD, seed=9000 + b) for b in range(REPLICAS)]
    return run_fastpath(
        PORTS, LOAD, SLOTS, replicas=REPLICAS, warmup=WARMUP, iterations=4,
        accept=accept, sources=sources, seed=0, warmup_mode="arrival",
    )


def output_queueing_mean_delay(rates: np.ndarray) -> float:
    """Mean output-queueing delay, in slots, of per-connection ``rates``."""
    load = rates.sum(axis=0)
    pairs = load**2 - (rates**2).sum(axis=0)
    wait = pairs / (2 * load * (1 - load))
    return float((load * wait).sum() / load.sum())


def test_output_queueing_formula_reduces_to_the_uniform_case():
    uniform = np.full((PORTS, PORTS), LOAD / PORTS)
    assert output_queueing_mean_delay(uniform) == pytest.approx(
        output_queueing_delay(LOAD, PORTS), rel=1e-12
    )
    hot_spot = ClientServerTraffic(PORTS, LOAD).connection_rates
    assert output_queueing_mean_delay(hot_spot) == pytest.approx(2.271, abs=1e-3)


@pytest.mark.parametrize("accept", ["random", "round_robin"])
def test_pim4_carries_the_client_server_load(accept):
    result = client_server(accept)
    gap = (result.carried_cells - result.offered_cells) / result.offered_cells
    mean, half = gap.mean(), half_width(gap, 0.9995)
    assert abs(mean) <= half, (accept, mean, half)


def test_pim4_is_closer_to_output_queueing_under_client_server_traffic():
    uniform = run_fastpath(
        PORTS, LOAD, SLOTS, replicas=REPLICAS, warmup=WARMUP, iterations=4,
        seed=9, warmup_mode="arrival",
    )
    uniform_ratio = uniform.mean_delay_by_replica / output_queueing_delay(LOAD, PORTS)
    hot_spot_ratio = client_server("random").mean_delay_by_replica / (
        output_queueing_mean_delay(ClientServerTraffic(PORTS, LOAD).connection_rates)
    )
    gap = uniform_ratio - hot_spot_ratio
    lower = gap.mean() - half_width(gap, 0.999)
    assert lower > 0, (uniform_ratio.mean(), hot_spot_ratio.mean(), lower)
