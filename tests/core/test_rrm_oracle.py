"""The object RRM scheduler against the per-port loop it replaced.

``RRMScheduler`` is the B = 1 call of ``BatchRRMScheduler``: iSLIP's
pick over the shared round loop with RRM's pointer rule as its commit
hook.  The oracle is the dense ``rrm_match`` loop kept verbatim in
``_object_reference.py``.  The two must agree slot for slot -- the
matching and both pointer arrays -- over a run, a reset and a rerun.
"""

import numpy as np
import pytest

from repro.core.batch import ObjectScheduler
from repro.core.rrm import BatchRRMScheduler, RRMScheduler

from . import _object_reference as loops

PORTS = (1, 2, 5, 8, 16)
SLOTS = 40


def _matrices(kind, n, seed):
    """One run's request matrices: random at a few densities, or
    saturated (every VOQ always occupied, where RRM's grant pointers
    lock step)."""
    rng = np.random.default_rng(seed)
    if kind == "saturated":
        return [np.ones((n, n), dtype=bool)] * SLOTS
    return [rng.random((n, n)) < rng.choice([0.2, 0.5, 0.9]) for _ in range(SLOTS)]


def assert_matches_oracle(scheduler, kind, n, iterations):
    """Run, reset and rerun ``scheduler`` beside a fresh oracle each
    time, comparing every slot's pairs and both pointer arrays."""
    for run in range(2):
        oracle = loops.RRMScheduler(iterations)
        for slot, requests in enumerate(_matrices(kind, n, seed=10 * n + run)):
            where = f"{kind} N={n} iterations={iterations} run {run} slot {slot}"
            got = scheduler.schedule(requests)
            want = oracle.schedule(requests)
            assert sorted(got.pairs) == sorted(want.pairs), where
            assert scheduler._grant_pointers[0].tolist() == (
                oracle._grant_pointers.tolist()
            ), where
            assert scheduler._accept_pointers[0].tolist() == (
                oracle._accept_pointers.tolist()
            ), where
        scheduler.reset()


def _iteration_counts(n):
    return sorted({1, 2, n})


@pytest.mark.parametrize("kind", ["random", "saturated"])
@pytest.mark.parametrize("n", PORTS)
def test_slot_for_slot_with_the_loop_it_replaced(kind, n):
    for iterations in _iteration_counts(n):
        assert_matches_oracle(RRMScheduler(iterations), kind, n, iterations)


def _islip_grants(kernel, rounds, grants, accepts):
    """iSLIP's grant rule: past accepted grants only."""
    if rounds == 1:
        kernel._grant_pointers.reshape(-1)[accepts[2]] = (accepts[1] + 1) % kernel.ports


def _grants_every_round(kernel, rounds, grants, accepts):
    """Past every round's grants, not the first round's only."""
    kernel._grant_pointers.reshape(-1)[grants[2]] = (grants[1] + 1) % kernel.ports


#: Edits to RRM's grant-pointer rule the oracle must catch.  (Moving
#: the round-1 move to the end of the slot, where the oracle makes it,
#: is no edit: no later round can tell the two apart -- see
#: ``BatchRRMScheduler`` -- and the kernel passes the grid doing it in
#: round 1.)
GRANT_MUTANTS = {"islip_grants": _islip_grants, "every_round": _grants_every_round}


@pytest.mark.parametrize("name", sorted(GRANT_MUTANTS))
def test_the_oracle_catches_a_changed_grant_rule(name):
    move = GRANT_MUTANTS[name]

    class Mutant(BatchRRMScheduler):
        def _commit(self, rounds, edges, grants, accepts, match):
            move(self, rounds, grants, accepts)
            self._accept_pointers.reshape(-1)[accepts[1]] = (
                accepts[0] + 1
            ) % self.ports

    caught = []
    for n in PORTS:
        for iterations in _iteration_counts(n):
            mutant = ObjectScheduler(
                "rrm", kernel=lambda ports: Mutant(1, ports, iterations)
            )
            try:
                assert_matches_oracle(mutant, "random", n, iterations)
            except AssertionError:
                caught.append((n, iterations))
    assert (16, 2) in caught and (16, 16) in caught


def test_replicas_are_independent_oracles():
    """A B = 4 kernel is four one-replica RRM loops side by side."""
    n, b = 6, 4
    kernel = BatchRRMScheduler(b, n, iterations=3)
    oracles = [loops.RRMScheduler(3) for _ in range(b)]
    rng = np.random.default_rng(7)
    for _ in range(SLOTS):
        batch = rng.random((b, n, n)) < 0.5
        match = kernel.schedule(batch)
        for r, oracle in enumerate(oracles):
            want = dict(oracle.schedule(batch[r]).pairs)
            assert {i: j for i, j in enumerate(match[r].tolist()) if j >= 0} == want
            assert kernel._grant_pointers[r].tolist() == oracle._grant_pointers.tolist()
            assert kernel._accept_pointers[r].tolist() == oracle._accept_pointers.tolist()
