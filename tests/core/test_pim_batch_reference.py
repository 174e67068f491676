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

With the ``numpy`` (PCG64) source the grid also compares the
generator's state after every slot: sparse rounds jump the stream over
the cells no request holds, one key at a time or all of a round's keys
in one vectorized pass (:meth:`BatchScheduler._cube_keys`), and a jump
that lands short shows up there even when no later draw reads it.
Source-level mutants of both jumps must fail the grid.
"""

import inspect
import json

import numpy as np
import pytest

from repro.core import batch as core_batch
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


class Cells(np.ndarray):
    """Flat cell indices that record which way ``_cube_keys`` read them:
    the scalar jump is the only reader that lists them (``tolist``), the
    vectorized jump the only one that computes with them (a ufunc).
    ``"dense"`` means neither did: the cube was drawn."""

    way = "dense"

    def tolist(self):
        self.way = "scalar"
        return super().tolist()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        for x in inputs:
            if isinstance(x, Cells):
                x.way = "vector"
        inputs = [x.view(np.ndarray) if isinstance(x, Cells) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class JumpCounting:
    """Kernel mixin: records the way of every key read, in order."""

    ways = ()

    def _cube_keys(self, cells):
        cells = cells.view(Cells)
        keys = super()._cube_keys(cells)
        self.ways += (cells.way,)
        return keys


class JumpCountingPIM(JumpCounting, BatchPIMScheduler):
    """``BatchPIMScheduler`` that records the way of every key read."""


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
    states = []
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
        bit = getattr(scheduler._rng, "bit_generator", None)
        states.append(None if bit is None else bit.state)
    # Serialised, as a trace sink would: the counts must be plain ints.
    events = [
        json.dumps(e.to_record())
        for e in probe.sink.events
        if e.kind == "pim_iteration"
    ]
    return scheduler, arrays, events, states


def assert_same_trajectory(
    make_rng, replicas, ports, kernel_class=BatchPIMScheduler, **config
):
    """Run ``kernel_class`` and the dense reference; returns the kernel."""
    kernel, arrays, events, states = trajectory(
        kernel_class, make_rng, replicas, ports, **config
    )
    _, ref_arrays, ref_events, ref_states = trajectory(
        DenseBatchPIMScheduler, make_rng, replicas, ports, **config
    )
    for slot, (got, want) in enumerate(zip(arrays, ref_arrays)):
        for name, a, b in zip(("match", "pointers", "sizes", "completed"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (slot, name)
            assert a.tobytes() == b.tobytes(), (slot, name)
        assert states[slot] == ref_states[slot], (slot, "rng state")
    assert events == ref_events
    assert events, "the probe saw no iteration at all"
    return kernel


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


@pytest.mark.parametrize("accept", ["random", "round_robin"])
@pytest.mark.parametrize("replicas,ports", [(64, 32), (8, 64)])
def test_run_to_maximality_jumps_and_matches(replicas, ports, accept):
    """PIM run to a maximal match (Table 1 / Appendix A): its late
    rounds hold a handful of requests, so the key draws jump -- at
    (64, 32) both ways: the scalar jump for the last few keys, the
    vectorized one for the mid-density rounds."""
    kernel = assert_same_trajectory(
        KEY_SOURCES["numpy"],
        replicas,
        ports,
        kernel_class=JumpCountingPIM,
        iterations=None,
        accept=accept,
    )
    assert "scalar" in kernel.ways
    if (replicas, ports) == (64, 32):
        assert "vector" in kernel.ways


def _mutant(old, new):
    """``BatchPIMScheduler`` whose ``_cube_keys`` runs a copy of the
    ``core.batch`` source with one edit, helpers included."""
    source = inspect.getsource(core_batch)
    assert source.count(old) == 1, f"the key source no longer spells {old!r}"
    namespace = {"__name__": "mutant_batch"}
    exec(source.replace(old, new), namespace)
    keys = namespace["BatchScheduler"]._cube_keys
    mutant = type("MutantPIM", (BatchPIMScheduler,), {"_cube_keys": keys})
    return type("Mutant", (JumpCounting, mutant), {})


def test_the_grid_catches_a_short_jump():
    """Dropping the jump to the cube's end leaves the stream short: the
    grid must see it.  The untouched source, rebuilt the same way, passes."""
    old = "advance(cube - position)"
    with pytest.raises(AssertionError):
        assert_same_trajectory(
            KEY_SOURCES["numpy"], 64, 32, kernel_class=_mutant(old, "pass"),
            iterations=None,
        )
    kernel = assert_same_trajectory(
        KEY_SOURCES["numpy"], 64, 32, kernel_class=_mutant(old, old), iterations=None
    )
    assert "scalar" in kernel.ways


#: Edits to the vectorized jump the grid must catch.
VECTOR_MUTANTS = {
    # The closing advance dropped: the stream is left short.
    "short": ("rng.bit_generator.advance(cube)", "pass"),
    # The carry out of the low 64 bits of a 128-bit sum.
    "carry": ("hi += lo < c_lo", "pass"),
    # The rotation's left shift is by (-rot) mod 64; unmasked, -rot
    # wraps to 2**64 - rot, and NumPy shifts by 64 or more to 0.
    "rotation_mask": ("-rot & _U63", "-rot"),
}


@pytest.mark.parametrize("name", sorted(VECTOR_MUTANTS))
def test_the_grid_catches_a_broken_vector_jump(name):
    """Each edit leaves a wrong key or a wrong stream position, and the
    grid must see it.  The untouched source, rebuilt the same way,
    passes and takes the vectorized jump."""
    old, new = VECTOR_MUTANTS[name]
    with pytest.raises(AssertionError):
        assert_same_trajectory(
            KEY_SOURCES["numpy"], 64, 32, kernel_class=_mutant(old, new),
            iterations=None,
        )
    kernel = assert_same_trajectory(
        KEY_SOURCES["numpy"], 64, 32, kernel_class=_mutant(old, old), iterations=None
    )
    assert "vector" in kernel.ways
