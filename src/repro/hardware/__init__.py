"""Hardware cost and timing model of the AN2 switch.

Reproduces Table 2 (component costs as a proportion of total switch
cost, prototype and production estimates) and the Section 1/3 headline
numbers: 37 million scheduled cells per second and ~2.2 microsecond
uncontended cell latency for a 16x16 switch with 1 Gb/s links.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "SwitchCostModel": "cost",
    "PROTOTYPE_MODEL": "cost",
    "PRODUCTION_MODEL": "cost",
    "cell_rate": "cost",
    "schedule_time_budget": "cost",
    "slots_to_seconds": "cost",
    "uncontended_latency": "cost",
    "LFSRGenerator": "random_select",
    "TableSelector": "random_select",
    "lfsr_pim_rng": "random_select",
})
