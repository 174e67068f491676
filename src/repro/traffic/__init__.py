"""Workload generators for the paper's experiments.

Each generator implements the
:class:`repro.switch.switch.TrafficSource` protocol -- ``ports`` plus
``arrivals(slot)`` -- and assigns cells to per-(input, output) flows so
the switch's per-flow FIFO machinery is exercised:

- :mod:`repro.traffic.uniform` -- Bernoulli i.i.d. arrivals, uniform
  destinations (Figures 3 and 5, Table 1's request statistics),
- :mod:`repro.traffic.clientserver` -- the 4-servers-of-16 hot-spot
  workload of Figure 4,
- :mod:`repro.traffic.periodic` -- Li's periodic pattern that induces
  stationary blocking in FIFO switches (Figure 1),
- :mod:`repro.traffic.bursty` -- on/off markov-modulated bursts,
- :mod:`repro.traffic.cbr_source` -- reserved cells-per-frame sources
  for the Section 4 guarantees,
- :mod:`repro.traffic.flows` -- flow-level traffic (heavy-tailed sizes,
  ON/OFF bursts, incast/hotspot/permutation/skewed demand matrices)
  with per-flow completion-time bookkeeping,
- :mod:`repro.traffic.scenarios` -- the named-scenario registry over
  the flow generator (``repro-an2 scenario run websearch-incast``),
- :mod:`repro.traffic.trace` -- record/replay of any other source.

Every generator with cross-slot state also implements ``reset()``
(the rerun contract): run entry points rewind the source so repeated
runs with the same object replay identical arrival traces.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "UniformTraffic": "uniform",
    "ClientServerTraffic": "clientserver",
    "PeriodicTraffic": "periodic",
    "BurstyTraffic": "bursty",
    "CBRSource": "cbr_source",
    "FlowRecord": "flows",
    "FlowTraffic": "flows",
    "SizeDist": "flows",
    "WindowedSource": "flows",
    "Scenario": "scenarios",
    "SCENARIOS": "scenarios",
    "get_scenario": "scenarios",
    "list_scenarios": "scenarios",
    "TraceRecorder": "trace",
    "TraceTraffic": "trace",
})
