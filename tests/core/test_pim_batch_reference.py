"""The edge-list PIM kernel against the dense (B, N, N) reference.

``BatchPIMScheduler.schedule`` walks the request graph's edges;
``_dense_pim_reference.DenseBatchPIMScheduler`` is the loop it
replaced, which resolves grant and accept with ``argmax`` over the
whole cube.  Fed the same injected random stream, the two must agree
*byte for byte* -- matchings, round-robin pointers, Table 1
diagnostics and the probe's per-iteration counts -- slot after slot,
so pointers and the stream position carry.

The coarse key sources make the tie rule a test rather than a comment:
with 1-, 2- or 16-bit keys several requests to a port routinely draw
the same key, and "first index wins on the ``+ 1.0``-rounded key"
decides the matching.
"""

import json

import numpy as np
import pytest

from repro.core.pim import BatchPIMScheduler
from repro.hardware.random_select import lfsr_pim_rng
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink

from ._dense_pim_reference import DenseBatchPIMScheduler

#: Request density per consecutive slot: the AN2 operating point, a
#: busy switch, an idle slot (zero iterations run) and a full one.
DENSITIES = (0.15, 0.5, 0.0, 1.0, 0.3)


class QuantisedKeys:
    """``random(shape)`` keys truncated to ``bits`` bits: ties abound."""

    def __init__(self, bits, seed):
        self._rng = np.random.default_rng(seed)
        self._levels = 2**bits

    def random(self, shape):
        return np.floor(self._rng.random(shape) * self._levels) / self._levels


KEY_SOURCES = {
    "numpy": lambda: np.random.default_rng(3),
    "1bit": lambda: QuantisedKeys(1, 3),
    "2bit": lambda: QuantisedKeys(2, 3),
    "lfsr16": lambda: lfsr_pim_rng(seed=0xBEEF),
}


def trajectory(kernel_class, make_rng, replicas, ports, **config):
    """Everything observable about a run over the ``DENSITIES`` slots."""
    scheduler = kernel_class(replicas, ports, rng=make_rng(), **config)
    probe = Probe(InMemorySink())
    scheduler.attach_probe(probe)
    traffic = np.random.default_rng(5)
    arrays = []
    for slot, density in enumerate(DENSITIES):
        requests = traffic.random((replicas, ports, ports)) < density
        probe.begin_slot(slot)
        match = scheduler.schedule(requests)
        arrays.append(
            (
                match,
                scheduler._pointers.copy(),
                scheduler.last_cumulative_sizes,
                scheduler.last_completed,
            )
        )
    # Serialised, as a trace sink would: the counts must be plain ints.
    events = [
        json.dumps(e.to_record())
        for e in probe.sink.events
        if e.kind == "pim_iteration"
    ]
    return arrays, events


def assert_same_trajectory(make_rng, replicas, ports, **config):
    arrays, events = trajectory(
        BatchPIMScheduler, make_rng, replicas, ports, **config
    )
    ref_arrays, ref_events = trajectory(
        DenseBatchPIMScheduler, make_rng, replicas, ports, **config
    )
    for slot, (got, want) in enumerate(zip(arrays, ref_arrays)):
        for name, a, b in zip(("match", "pointers", "sizes", "completed"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (slot, name)
            assert a.tobytes() == b.tobytes(), (slot, name)
    assert events == ref_events
    assert events, "the probe saw no iteration at all"


@pytest.mark.parametrize("output_capacity", [1, 2])
@pytest.mark.parametrize("accept", ["random", "round_robin"])
@pytest.mark.parametrize("iterations", [1, 4, None])
@pytest.mark.parametrize("ports", [4, 5, 16, 33])
@pytest.mark.parametrize("replicas", [1, 7, 64])
@pytest.mark.parametrize("keys", ["numpy", "1bit", "2bit"])
def test_matches_dense_reference(
    keys, replicas, ports, iterations, accept, output_capacity
):
    assert_same_trajectory(
        KEY_SOURCES[keys],
        replicas,
        ports,
        iterations=iterations,
        accept=accept,
        output_capacity=output_capacity,
    )


@pytest.mark.parametrize("accept", ["random", "round_robin"])
@pytest.mark.parametrize("iterations", [1, 4, None])
@pytest.mark.parametrize("replicas,ports", [(1, 4), (1, 16), (7, 5)])
def test_matches_dense_reference_on_lfsr_keys(replicas, ports, iterations, accept):
    """The 16-bit hardware key source (a supported ``rng=`` injection;
    drawn in Python, hence the smaller shapes)."""
    assert_same_trajectory(
        KEY_SOURCES["lfsr16"], replicas, ports, iterations=iterations, accept=accept
    )


def test_coarse_keys_do_tie():
    """Guard the premise: at 1 bit, the winning key of a grant is shared."""
    keys = np.sort(QuantisedKeys(1, 3).random((7, 16, 16)) + 1.0, axis=1)
    assert (keys[:, -1] == keys[:, -2]).any()
