"""Switch substrate: cells, flows, buffers, fabrics, and the switch model.

The AN2 switch (Section 2 of the paper) is an input-buffered crossbar
switch: fixed-length ATM-style cells arrive on N input links, wait in
random-access per-flow FIFO queues at the inputs, cross a non-blocking
fabric when the scheduler pairs their input with their output, and
depart on N output links.

Modules:

- :mod:`repro.switch.cell` -- fixed-length cells and service classes,
- :mod:`repro.switch.flow` -- flow descriptors (the unit of routing),
- :mod:`repro.switch.buffers` -- per-flow FIFO queues, eligible-flow
  lists, FIFO input queues, output queues,
- :mod:`repro.switch.crossbar` -- the non-blocking crossbar fabric,
- :mod:`repro.switch.batcher` / :mod:`repro.switch.banyan` /
  :mod:`repro.switch.fabric` -- Batcher sorting network, banyan
  self-routing network, and the batcher-banyan composition,
- :mod:`repro.switch.switch` -- the slot-clocked switch model.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "Cell": "cell",
    "ServiceClass": "cell",
    "Flow": "flow",
    "VOQBuffer": "buffers",
    "FIFOInputBuffer": "buffers",
    "OutputQueue": "buffers",
    "Concentrator": "concentrator",
    "Crossbar": "crossbar",
    "MulticastCell": "multicast",
    "MulticastPIMScheduler": "multicast",
    "MulticastSwitch": "multicast",
    "Packet": "packets",
    "Segmenter": "packets",
    "Reassembler": "packets",
    "ReplicatedOutputSwitch": "replicated",
    "CrossbarSwitch": "switch",
    "FIFOSwitch": "switch",
    "SwitchResult": "results",
})
