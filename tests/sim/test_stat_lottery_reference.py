"""The per-grant lottery round against the dense (B, N, N) reference.

``BatchStatisticalMatcher._one_round`` carries a round's real grants as
one flat list and picks through a running sum over it;
``_dense_stat_reference.DenseBatchStatisticalMatcher`` is the round it
replaced, which scatters the virtual grants into a zeroed cube.  Built
from the same seed the two must agree *byte for byte* -- accepted pairs
in order, pooled counts, the matching and the lottery's share after
``schedule`` -- and leave both generators (lottery and fill) in the same
state, round after round and slot after slot.

The allocations are chosen for the edges of the round: inputs granted by
several outputs at once (where only a stable sort keeps the ascending-
output pick order), inputs with no slack (pass 3 draws nothing), inputs
with nothing but slack (active, never matched), and switches where no
grant is real at all.
"""

import cProfile
import gc
import inspect
import textwrap

import numpy as np
import pytest

from repro.core import statistical
from repro.core.statistical import BatchStatisticalMatcher

from ._dense_stat_reference import DenseBatchStatisticalMatcher


def _permutation_sum(ports, count, seed=7):
    """``count`` random permutation matrices summed: every line holds ``count``."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((ports, ports), dtype=np.int64)
    for _ in range(count):
        matrix[np.arange(ports), rng.permutation(ports)] += 1
    return matrix


def _hot_row(ports, share):
    matrix = np.zeros((ports, ports), dtype=np.int64)
    matrix[0, :] = share
    return matrix


def _partial_permutation(ports):
    matrix = np.roll(np.eye(ports, dtype=np.int64), 1, axis=1)
    matrix[-1] = 0  # one input, and so one output, left unreserved
    return matrix


#: name -> (allocations, units)
ALLOCATIONS = {
    "random-75%": (_permutation_sum(16, 12), 16),
    "fully-allocated": (_permutation_sum(5, 6), 6),
    "all-zero": (np.zeros((6, 6), dtype=np.int64), 4),
    "4-identity": (4 * np.eye(6, dtype=np.int64), 8),
    "hot-row": (_hot_row(8, 2), 16),
    "units-1": (_partial_permutation(5), 1),
    "one-port": (np.array([[2]]), 3),
}


def _pair(kernel_class, name, replicas, rounds, fill):
    allocations, units = ALLOCATIONS[name]
    matcher = kernel_class(
        allocations, units, rounds=rounds, replicas=replicas, seed=11, fill=fill
    )
    matcher.check = True
    return matcher


def _assert_same_bytes(got, want, where):
    assert type(got) is type(want), where
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert got == want, where


def _streams(matcher):
    states = [matcher._rng.bit_generator.state]
    if matcher._fill is not None:
        states.append(matcher._fill._rng.bit_generator.state)
    return states


def assert_same_lottery(kernel_class, name, replicas, rounds, fill, slots=6):
    """``kernel_class`` against the dense oracle: rounds, then slots."""
    got = _pair(kernel_class, name, replicas, rounds, fill)
    want = _pair(DenseBatchStatisticalMatcher, name, replicas, rounds, fill)
    fields = ("bb", "ii", "jj", "granted", "virtual", "decoys")
    for index in range(2 * rounds):
        for field, a, b in zip(fields, got._one_round(), want._one_round()):
            _assert_same_bytes(a, b, (name, "round", index, field))
        assert _streams(got) == _streams(want), (name, "round", index)
    traffic = np.random.default_rng(5)
    ports = got.ports
    for slot, density in zip(range(slots), (0.5, 1.0, 0.0, 0.2, 0.9, 0.5)):
        requests = traffic.random((replicas, ports, ports)) < density
        _assert_same_bytes(
            got.schedule(requests), want.schedule(requests), (name, slot, "match")
        )
        _assert_same_bytes(got.stat_cells, want.stat_cells, (name, slot, "stat_cells"))
        assert _streams(got) == _streams(want), (name, "slot", slot)
    counts = [got.match_with_counts()[1], want.match_with_counts()[1]]
    assert counts[0] == counts[1]
    assert all(type(v) is int for c in counts[0] for v in vars(c).values())


@pytest.mark.parametrize("fill", [True, False], ids=["fill", "lottery-only"])
@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("replicas", [1, 8, 64])
@pytest.mark.parametrize("name", list(ALLOCATIONS))
def test_matches_dense_reference(name, replicas, rounds, fill):
    assert_same_lottery(BatchStatisticalMatcher, name, replicas, rounds, fill)


def test_the_grid_reaches_the_edges_it_names():
    """Several real grants on one input line, decoy-only lines, a
    switch with no slack and one with no real grant."""
    hot = _pair(DenseBatchStatisticalMatcher, "hot-row", 8, 1, False)
    assert hot._one_round()[3] > 8  # more grants than replicas: shared lines
    full, units = ALLOCATIONS["fully-allocated"]
    assert (full.sum(axis=1) == units).all()
    zero = _pair(DenseBatchStatisticalMatcher, "all-zero", 8, 1, False)
    _, _, _, granted, virtual, decoys = zero._one_round()
    assert (granted, virtual) == (0, 0) and decoys > 0


def _mutant(old, new):
    """``BatchStatisticalMatcher`` with one edit to its ``_one_round`` source."""
    source = textwrap.dedent(inspect.getsource(BatchStatisticalMatcher._one_round))
    assert source.count(old) == 1, f"the round no longer spells {old!r}"
    namespace = dict(vars(statistical))
    exec(source.replace(old, new), namespace)
    return type(
        "Mutant", (BatchStatisticalMatcher,), {"_one_round": namespace["_one_round"]}
    )


@pytest.mark.parametrize(
    "old, new, name",
    [
        # Within a line the grants must stay in ascending-output order.
        (
            'line.argsort(kind="stable")',
            '(-line).argsort(kind="stable")[::-1]',
            "hot-row",
        ),
        # Decoys make an input active and can win its pick.
        ("totals = real + self._decoys.reshape(-1)", "totals = real", "random-75%"),
        # A pick past the real grants belongs to the imaginary output.
        ("picks < real.take(active)", "picks < totals.take(active)", "4-identity"),
    ],
    ids=["unstable-sort", "no-decoy-totals", "decoys-never-win"],
)
def test_the_grid_catches_a_mutated_round(old, new, name):
    with pytest.raises((AssertionError, IndexError)):
        assert_same_lottery(_mutant(old, new), name, 8, 2, False)
    # The untouched source, rebuilt the same way, still passes.
    assert_same_lottery(_mutant(old, old), name, 8, 2, False)


def _numpy_calls(ports):
    """NumPy/builtin calls of one ``match()``: C-level callees plus the
    Python wrappers inside the numpy package (``call_count.py``'s group)."""
    matcher = BatchStatisticalMatcher(
        _permutation_sum(ports, 3), 4, rounds=2, replicas=8, seed=3
    )
    matcher.match()  # warm-up: lazy imports, caches
    # No collection inside the window: it would count the builtins the
    # ``gc.callbacks`` hooks call (Hypothesis installs one).
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        matcher.match()
        profile.disable()
    finally:
        gc.enable()
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if isinstance(entry.code, str) or "/numpy/" in entry.code.co_filename
    )


def test_no_per_port_loop_survives():
    """The same dispatches at 4 and at 32 ports -- the dense round made
    137 and 417 -- and no more than the 100 this kernel was written with."""
    small, wide = _numpy_calls(4), _numpy_calls(32)
    assert small == wide
    assert small <= 100
