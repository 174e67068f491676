"""Fairness metrics.

Section 5.1 motivates statistical matching with two unfairness modes:
PIM's per-port contention bias (Figure 8) and the parking-lot effect in
multi-switch topologies (Figure 9).  This subpackage provides the
measurement tools (:mod:`repro.fairness.metrics`).
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "jain_index": "metrics",
    "max_min_ratio": "metrics",
    "throughput_shares": "metrics",
})
