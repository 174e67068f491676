"""Slot-synchronous simulation kernel.

The AN2 switch reconfigures its crossbar once per ATM cell time, so the
natural simulation model is *slot-synchronous*: global time advances in
units of one cell slot, and every component observes arrivals, makes a
scheduling decision, and transfers at most one cell per port per slot.

This subpackage provides the pieces shared by every simulation in the
reproduction:

- :mod:`repro.sim.rng` -- deterministic, independently seeded random
  streams so that experiments are reproducible and components do not
  perturb each other's randomness,
- :mod:`repro.sim.stats` -- delay/throughput accumulators with warm-up
  discarding and batch-means confidence intervals,
- :mod:`repro.sim.fastpath` -- the count-based, batch-vectorized
  fast-path simulator for multi-replica Monte-Carlo sweeps, and the
  one slot loop (``run_slots``) and accounting class (``PoolLedger``)
  of the crossbar family: :mod:`repro.sim.fastpath_cbr` plugs in a
  two-pool switch with a frame-claim stage,
  :mod:`repro.sim.fastpath_statistical` a lottery kernel;
  :mod:`repro.sim.fastpath_network` keeps its own per-flow loop.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "FastpathCrossbar": "fastpath",
    "FastpathResult": "fastpath",
    "run_fastpath": "fastpath",
    "CbrFastpathResult": "fastpath_cbr",
    "IntegratedFastpath": "fastpath_cbr",
    "run_fastpath_cbr": "fastpath_cbr",
    "NetworkFastpath": "fastpath_network",
    "NetworkFastpathResult": "fastpath_network",
    "NetworkSeries": "fastpath_network",
    "run_fastpath_network": "fastpath_network",
    "BatchStatisticalMatcher": "fastpath_statistical",
    "StatFastpathResult": "fastpath_statistical",
    "run_fastpath_statistical": "fastpath_statistical",
    "RandomStreams": "rng",
    "DelayStats": "stats",
    "RunningMeanVar": "stats",
    "ThroughputCounter": "stats",
    "batch_means_ci": "stats",
})
