"""Every object-vs-fastpath parity oracle fires on a one-match fault.

Each test substitutes, for the fast path's own kernel, the same kernel
with one match dropped: at B = 1 the kernel is called once per slot, and
the first call at or after slot ``AT`` that matched anything loses one
match.  The cell stays queued and leaves later, so the fast path's
trajectory departs from the object model's at exactly that slot; the
oracle must raise :class:`InvariantViolation` naming the slot and the
series that diverged.
"""

import itertools
import re

import numpy as np
import pytest

from repro.check.differential import (
    backend_parity,
    integrated_parity,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.check.invariants import InvariantViolation
from repro.sim import fastpath, fastpath_cbr, fastpath_network, fastpath_statistical

AT = 25


class _DropOne:
    """Shared by every kernel of a run: drops one match in total."""

    def __init__(self):
        self.slot = None

    def wrap(self, kernel):
        schedule, slots = kernel.schedule, itertools.count()

        def dropping(requests, occupancy=None):
            slot = next(slots)
            match = schedule(requests, occupancy)
            hit = np.flatnonzero(np.asarray(match).reshape(-1) >= 0)
            if self.slot is None and slot >= AT and hit.size:
                match = np.array(match)
                match.reshape(-1)[hit[0]] = -1
                self.slot = slot
            return match

        kernel.schedule = dropping
        return kernel


@pytest.fixture
def fault(monkeypatch):
    """Every fast-path kernel built from here on drops one match."""
    drop = _DropOne()
    for module in (fastpath, fastpath_cbr, fastpath_network):
        build = module.build_batch_scheduler
        monkeypatch.setattr(
            module, "build_batch_scheduler",
            lambda *a, build=build, **k: drop.wrap(build(*a, **k)),
        )
    matcher = fastpath_statistical.BatchStatisticalMatcher
    monkeypatch.setattr(
        fastpath_statistical, "BatchStatisticalMatcher",
        lambda *a, **k: drop.wrap(matcher(*a, **k)),
    )
    return drop


def _fires(oracle, *args, **kwargs):
    with pytest.raises(InvariantViolation) as caught:
        oracle(*args, **kwargs)
    return str(caught.value)


def _names(message, slot, series):
    assert slot is not None and slot >= AT  # the fault really landed
    assert re.search(rf"slot {slot}\b", message), message
    assert series in message, message


def test_backend_parity(fault):
    message = _fires(backend_parity, 4, 0.8, 60, seed=0, scheduler="islip")
    _names(message, fault.slot, "crossbar_transfer.cells")


def test_scenario_parity(fault):
    message = _fires(
        scenario_parity, "websearch-incast", scheduler="islip", slots=120, seed=0
    )
    _names(message, fault.slot, "crossbar_transfer.cells")


def test_integrated_parity(fault):
    message = _fires(integrated_parity, 4, 8, 0.5, 0.8, 60, seed=0)
    _names(message, fault.slot, "cbr_slot.vbr_cells")


def test_statistical_parity(fault):
    message = _fires(statistical_parity, 4, 8, 0.75, 0.8, 60, seed=1)
    _names(message, fault.slot, "crossbar_transfer.cells")


def test_network_parity(fault):
    message = _fires(network_parity, "parking_lot", 3, n_flows=4, slots=80, seed=0)
    _names(message, fault.slot, "transfers")
