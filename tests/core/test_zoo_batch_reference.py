"""The request-graph iSLIP, LQF and QPS-r kernels against their dense loops.

``_dense_zoo_reference`` holds the (B, N, N) loops the edge-list kernels
replaced.  Fed the same injected random stream and the same slots, each
pair must agree *byte for byte* -- matchings, every pointer array and
the generator's bit state -- slot after slot, so pointers and the stream
position carry over.  The slots include an idle one, a full one, one
whose request mask hides queued cells and one that requests an empty
VOQ.

Coarse keys make the LQF tie rule a test rather than a comment: there
the dense loop is *not* the oracle (it double-books a row on a tie and
retires an output unmatched); the object twin ``lqf_match`` and
``is_maximal`` are.
"""

import numpy as np
import pytest

from repro.core.islip import BatchISLIPScheduler
from repro.core.lqf import BatchLQFScheduler, lqf_match
from repro.core.matching import Matching, is_maximal
from repro.core.qps import BatchQPSScheduler, QPSScheduler, qps_match

from ._dense_zoo_reference import (
    DenseBatchISLIPScheduler,
    DenseBatchLQFScheduler,
    DenseBatchQPSScheduler,
)
from .test_pim_batch_reference import QuantisedKeys

#: Request density per consecutive slot; slots 5 and 6 are then masked.
DENSITIES = (0.15, 0.5, 0.0, 1.0, 0.3, 0.6, 0.6)

#: kernel -> (edge class, dense class, name of its round budget or None).
KERNELS = {
    "islip": (BatchISLIPScheduler, DenseBatchISLIPScheduler, "iterations"),
    "lqf": (BatchLQFScheduler, DenseBatchLQFScheduler, None),
    "qps": (BatchQPSScheduler, DenseBatchQPSScheduler, "rounds"),
}
GRID = [
    pytest.param(kernel, budget, id=f"{kernel}-{budget}")
    for kernel, (_, _, budget_name) in sorted(KERNELS.items())
    for budget in ((1, 4, None) if budget_name else (None,))
]


def slots(replicas, ports):
    """Seven (requests, occupancy) slots; see ``DENSITIES``."""
    traffic = np.random.default_rng(5)
    shape = (replicas, ports, ports)
    for slot, density in enumerate(DENSITIES):
        occupancy = traffic.integers(1, 6, size=shape) * (traffic.random(shape) < density)
        requests = occupancy > 0
        if slot == 5:  # cells queued outside the request mask
            requests = requests & (traffic.random(shape) < 0.5)
        if slot == 6:  # requests for VOQs that hold no cell
            requests = requests | (traffic.random(shape) < 0.2)
        yield requests, occupancy


def trajectory(kernel_class, replicas, ports, **config):
    """Everything observable about a run over the seven slots."""
    if kernel_class.needs_occupancy:
        config["rng"] = np.random.default_rng(3)
    scheduler = kernel_class(replicas, ports, **config)
    out = []
    for requests, occupancy in slots(replicas, ports):
        before = requests.copy(), occupancy.copy()
        arrays = [scheduler.schedule(requests, occupancy)]
        assert (requests == before[0]).all() and (occupancy == before[1]).all()
        for name in ("_grant_pointers", "_accept_pointers", "_pointers"):
            if hasattr(scheduler, name):
                arrays.append(getattr(scheduler, name).copy())
        state = config["rng"].bit_generator.state if "rng" in config else None
        out.append((arrays, state))
    return out


@pytest.mark.parametrize("output_capacity", [1, 2])
@pytest.mark.parametrize("ports", [4, 5, 16, 33])
@pytest.mark.parametrize("replicas", [1, 7, 64])
@pytest.mark.parametrize("kernel,budget", GRID)
def test_matches_dense_reference(kernel, budget, replicas, ports, output_capacity):
    edge_class, dense_class, budget_name = KERNELS[kernel]
    config = {"output_capacity": output_capacity}
    if budget_name is not None:
        config[budget_name] = budget
    got = trajectory(edge_class, replicas, ports, **config)
    want = trajectory(dense_class, replicas, ports, **config)
    for slot, ((arrays, state), (ref_arrays, ref_state)) in enumerate(zip(got, want)):
        assert len(arrays) == len(ref_arrays) >= 1 + (kernel != "lqf")
        for a, b in zip(arrays, ref_arrays):
            assert a.dtype == b.dtype and a.shape == b.shape, slot
            assert a.tobytes() == b.tobytes(), slot
        assert state == ref_state, slot


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("ports", [4, 6, 16])
def test_lqf_ties_go_to_the_first_cell_and_stay_maximal(bits, ports):
    """B = 1 equals ``lqf_match`` slot for slot under tied keys, and every
    replica's matching is maximal (the dense loop fails both)."""
    kernel = BatchLQFScheduler(1, ports, rng=QuantisedKeys(bits, 3))
    twin_rng = QuantisedKeys(bits, 3)
    wide = BatchLQFScheduler(8, ports, rng=QuantisedKeys(bits, 4))
    traffic = np.random.default_rng(9)
    for slot in range(100):
        occupancy = traffic.integers(0, 3, size=(8, ports, ports))
        requests = occupancy > 0
        got = kernel.schedule(requests[:1], occupancy[:1])[0]
        want = np.full(ports, -1, dtype=np.int64)
        for i, j in lqf_match(occupancy[0], twin_rng).pairs:
            want[i] = j
        assert (got == want).all(), slot
        for replica, match in enumerate(wide.schedule(requests, occupancy)):
            pairs = [(i, int(j)) for i, j in enumerate(match) if j >= 0]
            assert is_maximal(Matching.from_pairs(pairs), requests[replica]), slot


def test_dense_lqf_is_not_maximal_under_ties():
    """Guard the premise of the tie-rule fix: the loop it replaced loses
    matches at 1-bit keys (so it cannot be the oracle there)."""
    dense = DenseBatchLQFScheduler(8, 6, rng=QuantisedKeys(1, 4))
    traffic = np.random.default_rng(9)
    lost = 0
    for _ in range(100):
        occupancy = traffic.integers(0, 3, size=(8, 6, 6))
        for replica, match in enumerate(dense.schedule(occupancy > 0, occupancy)):
            pairs = {(i, int(j)) for i, j in enumerate(match) if j >= 0}
            free_in = match < 0
            free_out = np.ones(6, dtype=bool)
            free_out[[j for _, j in pairs]] = False
            lost += bool((occupancy[replica] > 0)[np.ix_(free_in, free_out)].any())
    assert lost > 0


class FixedUniforms:
    """``random(shape)`` filled with one value."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


@pytest.mark.parametrize(
    "u,expected",
    [(0.0, 0), (0.2 - 1e-9, 0), (0.2, 2), (0.5 - 1e-9, 2), (0.5, 3), (0.999, 3)],
)
def test_qps_target_on_a_cumulative_boundary(u, expected):
    """Weights (2, 0, 3, 5): cumulative 2, 2, 5, 10.  ``u * 10`` landing
    exactly on 2 or 5 must *not* pick the column that reaches it: the
    rule is the first cumulative weight strictly above the target."""
    occupancy = np.zeros((4, 4), dtype=np.int64)
    occupancy[1] = (2, 0, 3, 5)
    assert qps_match(occupancy, FixedUniforms(u)).pairs == ((1, expected),)
    batch = BatchQPSScheduler(3, 4, rng=FixedUniforms(u))
    match = batch.schedule(np.stack([occupancy > 0] * 3), np.stack([occupancy] * 3))
    assert (match[:, 1] == expected).all() and (np.delete(match, 1, axis=1) == -1).all()
    dense = DenseBatchQPSScheduler(3, 4, rng=FixedUniforms(u))
    assert (dense.schedule(np.stack([occupancy > 0] * 3), np.stack([occupancy] * 3)) == match).all()


def test_qps_object_twin_shares_the_kernel():
    """The object scheduler drives the same rounds at B = 1."""
    obj = QPSScheduler(rounds=3, seed=12)
    batch = BatchQPSScheduler(1, 7, rounds=3, seed=12)
    traffic = np.random.default_rng(2)
    for slot in range(50):
        occupancy = traffic.integers(0, 4, size=(7, 7))
        want = np.full(7, -1, dtype=np.int64)
        for i, j in obj.schedule(occupancy > 0, occupancy).pairs:
            want[i] = j
        assert (batch.schedule((occupancy > 0)[None], occupancy[None])[0] == want).all(), slot
    assert (obj._pointers == batch._pointers).all()
