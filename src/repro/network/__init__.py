"""Arbitrary-topology network substrate.

The paper's network is "a collection of switches, links, and host
network controllers ... connected ... in any topology" (Section 2),
with flow-based routing: a routing table in each switch, built at
configuration time, fixes the output port for every flow.

- :mod:`repro.network.topology` -- the node/link graph,
- :mod:`repro.network.routing` -- per-switch flow routing tables,
- :mod:`repro.network.netsim` -- the slot-clocked multi-switch
  simulator (used for the Figure 9 fairness experiment and end-to-end
  latency checks),
- :mod:`repro.network.admission` -- network-level CBR admission
  control: find a path with uncommitted capacity and reserve it at
  every switch (Section 4),
- :mod:`repro.network.topologies` -- prebuilt topology factories
  (``from repro.network import topologies`` imports the submodule).
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "Topology": "topology",
    "Router": "routing",
    "NetworkSimulator": "netsim",
    "NetworkSlotRecord": "netsim",
    "HostSource": "netsim",
    "FlowSpec": "netsim",
    "NetworkAdmission": "admission",
})
