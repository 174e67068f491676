"""Closed-form queueing references for the switch simulations.

Karol, Hluchyj & Morgan [1987] (the paper's reference for both the
58.6% HOL limit and the output-queueing ideal) derive the steady-state
mean queue length of an N x N output-queued switch under uniform
Bernoulli arrivals; by Little's law the mean *waiting* time is

    W(N, rho) = (N - 1) / N * rho / (2 (1 - rho))

cell slots.  These formulas give the Figure 3 checks an independent
analytic reference: our output-queueing curve must land on W, and every
input-buffered scheduler must sit above it.

Also here: the head-of-line saturation throughput of FIFO input
queueing (Section 2.4), 2 - sqrt(2) ~ 58.6% as N -> infinity and Karol
et al.'s Table I at finite N, and :func:`fifo_saturation_throughput`,
which measures it by driving a FIFO switch at full load.  The tier-1
claim ``tests/claims/test_fig3.py`` holds the measurement to the table.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "output_queueing_delay",
    "output_queueing_mean_queue",
    "hol_saturation_limit",
    "fifo_saturation_throughput",
]


def output_queueing_delay(load: float, ports: int) -> float:
    """Karol's mean waiting time for perfect output queueing, in slots.

    ``load`` is the per-link offered load (rho < 1), ``ports`` the
    switch size N; arrivals are i.i.d. Bernoulli with uniform
    destinations.  Diverges as rho -> 1.
    """
    if not 0.0 <= load < 1.0:
        raise ValueError(f"load must be in [0, 1), got {load}")
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    return (ports - 1) / ports * load / (2.0 * (1.0 - load))


def output_queueing_mean_queue(load: float, ports: int) -> float:
    """Mean output-queue length (Little: lambda x W, lambda = rho)."""
    return load * output_queueing_delay(load, ports)


def hol_saturation_limit(ports: Optional[int] = None) -> float:
    """Saturation throughput of FIFO input queueing, uniform traffic.

    With ``ports`` None, Karol's asymptotic 2 - sqrt(2).  For N <= 8
    the exact values of Karol et al.'s Table I.  For N > 8 the value is
    an interpolation between N = 8 and the asymptote, not a computed
    limit; no claim uses it (the N = 16 claim is bounded by the N = 8
    value and the asymptote).
    """
    if ports is None:
        return 2.0 - math.sqrt(2.0)
    if ports < 1:
        raise ValueError(f"ports must be >= 1, got {ports}")
    # Karol et al. 1987, Table I: saturation throughput vs N.
    table = {
        1: 1.0000,
        2: 0.7500,
        3: 0.6825,
        4: 0.6553,
        5: 0.6399,
        6: 0.6302,
        7: 0.6234,
        8: 0.6184,
    }
    if ports in table:
        return table[ports]
    # Between N=8 and the asymptote; geometric approach.
    asymptote = 2.0 - math.sqrt(2.0)
    return asymptote + (table[8] - asymptote) * (8.0 / ports)


def fifo_saturation_throughput(
    ports: int,
    slots: int = 20_000,
    warmup: int = 2_000,
    seed: Optional[int] = None,
) -> float:
    """Measured per-link throughput of a saturated FIFO switch.

    Drives a FIFO-input switch at offered load 1.0 with uniform
    destinations and returns the carried load per link over slots
    ``warmup .. slots - 1``.  The HOL contention picks a winner at
    random (``seed``; the arrivals use ``seed + 1``), Karol's model, so
    the result estimates :func:`hol_saturation_limit` at ``ports``.
    """
    # Imported here to keep the analysis layer import-light.
    from repro.core.fifo import FIFOScheduler
    from repro.switch.switch import FIFOSwitch
    from repro.traffic.uniform import UniformTraffic

    switch = FIFOSwitch(ports, FIFOScheduler(policy="random", seed=seed))
    traffic = UniformTraffic(ports, load=1.0, seed=None if seed is None else seed + 1)
    result = switch.run(traffic, slots=slots, warmup=warmup)
    return result.throughput
