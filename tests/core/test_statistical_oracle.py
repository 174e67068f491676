"""The object ``StatisticalMatcher`` against the per-port lottery it replaced.

``StatisticalMatcher`` is the B = 1 call of
:class:`repro.core.statistical.BatchStatisticalMatcher`;
``_object_reference.StatisticalMatcher`` is the per-port Python loop it
was before, with its dict-based rounds and its own two generators.
Built from the same seed the two must agree draw for draw: the same
matching every slot, the same ``stat_round`` events, and both
generators (lottery and fill) in the same state after every slot --
through ``match()``, through ``schedule()`` with the fill off and on, for
one to three rounds, with and without slack, across a ``set_allocation``
in mid-sequence (a feasible one and a rejected one), and at N = 0 and
N = 1.  The oracle fills with the dense ``pim_match`` of the same file,
so every switch here stays below N = 64.
"""

import numpy as np
import pytest

from repro.core.statistical import StatisticalMatcher
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink
from repro.sim.rng import derive_seed

from . import _object_reference as loops


def _permutation_sum(ports, count, seed=3):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((ports, ports), dtype=np.int64)
    for _ in range(count):
        matrix[np.arange(ports), rng.permutation(ports)] += 1
    return matrix


#: name -> (allocations, units, one feasible set_allocation).
ALLOCATIONS = {
    # Every input line full: pass 3 draws nothing.
    "no-slack": (_permutation_sum(6, 4), 4, (0, 0, 0)),
    # Three quarters reserved: decoys draw and win.  The change fills
    # input 0's line while the others keep slack, so a decoy count left
    # over from before it would be read.
    "slack": (_permutation_sum(8, 3), 4, (0, 6, 3)),
    # One input holds several outputs' units: shared accept lines.
    "hot-row": (np.array([[2, 2, 2], [0, 1, 0], [1, 0, 1]]), 8, (1, 0, 3)),
    # Nothing reserved: no real grant, decoys only.
    "all-zero": (np.zeros((4, 4), dtype=np.int64), 4, (3, 1, 2)),
    "n1-slack": (np.array([[3]]), 4, (0, 0, 4)),
    "n1-full": (np.array([[4]]), 4, (0, 0, 2)),
}


def _streams(matcher):
    """Generator states of the adapter's kernel (lottery, fill)."""
    kernel = matcher._kernel
    fill = kernel._fill._rng.bit_generator.state if kernel._fill else None
    return kernel._rng.bit_generator.state, fill


def _oracle_streams(oracle, fill):
    return (
        oracle._rng.bit_generator.state,
        oracle._fill_rng.bit_generator.state if fill else None,
    )


def _records(sink):
    return [event.to_record() for event in sink.events]


@pytest.mark.parametrize("mode", ["match", "lottery-only", "fill"])
@pytest.mark.parametrize("rounds", [1, 2, 3])
@pytest.mark.parametrize("name", list(ALLOCATIONS))
def test_matches_the_per_port_lottery(name, rounds, mode):
    allocations, units, change = ALLOCATIONS[name]
    fill = mode == "fill"
    seed = 11 + rounds
    got = StatisticalMatcher(allocations, units, rounds=rounds, seed=seed, fill=fill)
    want = loops.StatisticalMatcher(
        allocations, units, rounds=rounds, seed=seed, fill=fill
    )
    sinks = InMemorySink(), InMemorySink()
    got.attach_probe(Probe(sinks[0]))
    want.attach_probe(Probe(sinks[1]))
    fill_start = want._fill_rng.bit_generator.state
    ports = got.ports
    traffic = np.random.default_rng(5)
    for slot in range(40):
        if slot == 20:
            got.set_allocation(*change)
            want.set_allocation(*change)
            np.testing.assert_array_equal(got.allocations, want.allocations)
            # A rejected change leaves tables and streams alone in both.
            for matcher in (got, want):
                with pytest.raises(ValueError, match="over-allocated"):
                    matcher.set_allocation(0, 0, units + 1)
        if mode == "match":
            pair = got.match(), want.match()
        else:
            density = (0.5, 1.0, 0.0, 0.2, 0.9)[slot % 5]
            requests = traffic.random((ports, ports)) < density
            pair = got.schedule(requests), want.schedule(requests)
        assert pair[0] == pair[1], (name, slot)
        assert _streams(got) == _oracle_streams(want, fill), (name, slot)
    assert _records(sinks[0]) == _records(sinks[1])
    assert len(sinks[0].events) == 40 * rounds
    if not fill:
        assert want._fill_rng.bit_generator.state == fill_start


def test_reset_replays_like_the_oracle():
    allocations, units, _ = ALLOCATIONS["slack"]
    got = StatisticalMatcher(allocations, units, seed=4, fill=True)
    want = loops.StatisticalMatcher(allocations, units, seed=4, fill=True)
    requests = np.ones((8, 8), dtype=bool)
    for matcher in (got, want):
        for _ in range(7):
            matcher.schedule(requests)
        matcher.reset()
    for _ in range(7):
        assert got.schedule(requests) == want.schedule(requests)
    assert _streams(got) == _oracle_streams(want, True)


def test_no_ports_draws_nothing():
    empty = np.zeros((0, 0), dtype=np.int64)
    got = StatisticalMatcher(empty, units=4, seed=9, fill=True)
    want = loops.StatisticalMatcher(empty, units=4, seed=9, fill=True)
    requests = np.zeros((0, 0), dtype=bool)
    for _ in range(3):
        assert got.match() == want.match() == got.schedule(requests)
        assert want.schedule(requests) == got.match()
    assert len(got.match()) == 0 and got._kernel is None
    # The oracle's zero-size draws leave its streams where they began.
    assert want._rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
    fill_seed = derive_seed(9, "statistical/fill")
    assert want._fill_rng.bit_generator.state == (
        np.random.default_rng(fill_seed).bit_generator.state
    )
