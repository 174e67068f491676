"""The BatchScheduler protocol and the kernel registry.

The central contract (see :mod:`repro.core.batch`): at B=1, every
batched kernel built with the same seed as its object scheduler must
reproduce its matchings *slot for slot*.  Every object scheduler is
the one ``ObjectScheduler`` adapter around its kernel's B = 1 call, so
``TestB1Parity`` also holds them to the dense object loops they
replaced (``_object_reference.py``), slot for slot, below N = 64, and
``TestObjectSizeRule`` holds all of them to the adapter's one size
rule.
"""

import numpy as np
import pytest

from repro.core.batch import (
    BATCH_SCHEDULERS,
    BatchScheduler,
    ObjectScheduler,
    as_request_batch,
    build_batch_scheduler,
    build_object_scheduler,
    line_winners,
    occupancy_edges,
    request_edges,
)

from repro.core.wavefront import BatchWavefrontScheduler

from . import _object_reference as loops


def _vector(matching, ports):
    """A matching as the (N,) output-per-input array (-1: unmatched)."""
    vector = np.full(ports, -1, dtype=np.int64)
    for i, j in matching.pairs:
        vector[i] = j
    return vector


def _object_match_vector(scheduler, requests, occupancy):
    """Drive an object scheduler one slot; return (N,) output-per-input."""
    if getattr(scheduler, "needs_occupancy", False):
        matching = scheduler.schedule(requests, occupancy)
    else:
        matching = scheduler.schedule(requests)
    return _vector(matching, requests.shape[0])


def _random_occupancy(rng, ports):
    occ = rng.integers(0, 4, size=(ports, ports))
    return occ, occ > 0


def _dense_loop(name, ports, seed, iterations=None, accept="random", output_capacity=1):
    """One slot of the old dense object loop of ``name``, as a function
    of (requests, occupancy) carrying that loop's state across calls
    the way its scheduler did; ``None`` for QPS-r, which had none."""
    rng = np.random.default_rng(seed)
    pointers = [np.zeros(ports, dtype=np.int64) for _ in range(2)]
    start = [0]
    if name == "pim":
        return lambda requests, occ: loops.pim_match(
            requests, rng, iterations, accept, pointers[0], output_capacity
        ).matching
    if name == "islip":
        budget = ports if iterations is None else iterations
        return lambda requests, occ: loops.islip_match(requests, *pointers, budget)
    if name == "lqf":
        return lambda requests, occ: loops.lqf_match(occ, rng)
    if name == "wavefront":

        def wavefront(requests, occ):
            matching = loops.wavefront_match(requests, start[0])
            start[0] = (start[0] + 1) % ports
            return matching

        return wavefront
    return None


def _assert_slot_exact(name, ports, seed, slots, **config):
    """Object scheduler, B = 1 kernel and old dense loop: same matches."""
    obj = build_object_scheduler(name, seed=seed, ports=ports, **config)
    kernel = build_batch_scheduler(name, replicas=1, ports=ports, seed=seed, **config)
    loop = _dense_loop(name, ports, seed, **config)
    for slot, (occ, requests) in enumerate(slots):
        expected = _object_match_vector(obj, requests, occ)
        if kernel.needs_occupancy:
            got = kernel.schedule(requests[None], occ[None])
        else:
            got = kernel.schedule(requests[None])
        assert (got[0] == expected).all(), f"{name} diverged at slot {slot}"
        if loop is not None:
            old = _vector(loop(requests, occ), ports)
            assert (old == expected).all(), f"{name} left its old loop at slot {slot}"


class TestB1Parity:
    """Shared-seed trace equality: batch kernel at B=1 vs object vs the
    dense object loop it replaced."""

    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_trace_identical(self, name):
        traffic_rng = np.random.default_rng(123)
        slots = [_random_occupancy(traffic_rng, 6) for _ in range(200)]
        _assert_slot_exact(name, 6, 9, slots, iterations=2)

    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_empty_slots_keep_streams_aligned(self, name):
        """The object switch calls schedule() even with no requests;
        batch kernels must consume the same randomness on empty slots
        or the streams drift apart."""
        ports = 4
        traffic_rng = np.random.default_rng(7)
        slots = [
            (np.zeros((ports, ports), dtype=np.int64), np.zeros((ports, ports), bool))
            if slot % 3 == 0
            else _random_occupancy(traffic_rng, ports)
            for slot in range(80)
        ]
        _assert_slot_exact(name, ports, 2, slots, iterations=1)

    @pytest.mark.parametrize("output_capacity", [1, 2])
    @pytest.mark.parametrize("iterations", [1, 4, None])
    @pytest.mark.parametrize("accept", ["random", "round_robin"])
    @pytest.mark.parametrize("ports", [5, 16, 32])
    def test_pim_keeps_the_dense_object_loop(self, ports, accept, iterations, output_capacity):
        """Below N = 64 the old loop drew whole (N, N) key matrices, the
        cube the kernel reads at B = 1: every match agrees."""
        traffic_rng = np.random.default_rng(ports)
        slots = []
        for _ in range(60):
            requests = traffic_rng.random((ports, ports)) < traffic_rng.uniform(0.02, 0.9)
            slots.append((requests.astype(np.int64), requests))
        _assert_slot_exact(
            "pim", ports, ports + 1, slots,
            iterations=iterations, accept=accept, output_capacity=output_capacity,
        )


class TestObjectSizeRule:
    """The first slot fixes an object scheduler's N until ``reset()``."""

    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_size_change_raises_until_reset(self, name):
        rng = np.random.default_rng(1)
        small, large = (rng.integers(0, 3, size=(n, n)) for n in (4, 6))
        scheduler = build_object_scheduler(name, seed=5)
        _object_match_vector(scheduler, small > 0, small)
        with pytest.raises(ValueError, match="size change"):
            _object_match_vector(scheduler, large > 0, large)
        scheduler.reset()
        fresh = build_object_scheduler(name, seed=5)
        for _ in range(3):  # the same run as a scheduler that never saw N = 4
            got = _object_match_vector(scheduler, large > 0, large)
            assert (got == _object_match_vector(fresh, large > 0, large)).all()

    def test_failed_first_slot_fixes_no_size(self):
        def kernel(ports):
            if ports == 4:
                raise ValueError("no 4-port kernel")
            return BatchWavefrontScheduler(1, ports)

        scheduler = ObjectScheduler("wavefront", kernel=kernel)
        with pytest.raises(ValueError, match="no 4-port kernel"):
            scheduler.schedule(np.ones((4, 4), dtype=bool))
        assert len(scheduler.schedule(np.ones((6, 6), dtype=bool))) == 6


class TestBatchValidity:
    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_matchings_valid_across_replicas(self, name):
        replicas, ports = 5, 7
        kernel = build_batch_scheduler(
            name, replicas=replicas, ports=ports, iterations=2, seed=0
        )
        rng = np.random.default_rng(1)
        for _ in range(30):
            occ = rng.integers(0, 3, size=(replicas, ports, ports))
            requests = occ > 0
            if kernel.needs_occupancy:
                match = kernel.schedule(requests, occ)
            else:
                match = kernel.schedule(requests)
            assert match.shape == (replicas, ports)
            for b in range(replicas):
                matched = match[b] >= 0
                outs = match[b][matched]
                # no output granted twice, every match was requested
                assert len(np.unique(outs)) == len(outs)
                ins = np.nonzero(matched)[0]
                assert requests[b][ins, match[b][ins]].all()

    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_reset_replays_trajectory(self, name):
        kernel = build_batch_scheduler(
            name, replicas=3, ports=5, iterations=2, seed=4
        )
        rng = np.random.default_rng(2)
        slots = [rng.integers(0, 3, size=(3, 5, 5)) for _ in range(40)]

        def run():
            out = []
            for occ in slots:
                requests = occ > 0
                if kernel.needs_occupancy:
                    out.append(kernel.schedule(requests, occ).copy())
                else:
                    out.append(kernel.schedule(requests).copy())
            return out

        first = run()
        kernel.reset()
        second = run()
        for slot, (a, b) in enumerate(zip(first, second)):
            assert (a == b).all(), f"{name} rerun diverged at slot {slot}"


class TestRequestGraph:
    """The shared edge-list primitive every batched kernel runs on."""

    def test_edges_are_the_requests_in_c_order_with_their_port_lines(self):
        rng = np.random.default_rng(0)
        for replicas, ports in ((1, 1), (3, 5), (7, 16)):
            batch = rng.random((replicas, ports, ports)) < 0.4
            edges = request_edges(batch)
            b, i, j = np.nonzero(batch)
            assert (edges[0] == (b * ports + i) * ports + j).all()
            assert (edges[1] == b * ports + i).all()
            assert (edges[2] == b * ports + j).all()
        assert request_edges(np.zeros((2, 3, 3), dtype=bool)).shape == (3, 0)

    def test_weights_read_requested_cells_only_and_drop_empty_voqs(self):
        requests = np.array([[[1, 1, 0], [0, 1, 0], [0, 0, 0]]], dtype=bool)
        occupancy = np.array([[[4, 0, 9], [9, 2, 0], [9, 0, 0]]])
        edges, weights = occupancy_edges(requests, occupancy)
        assert edges[0].tolist() == [0, 4] and weights.tolist() == [4, 2]
        assert weights.dtype == np.int64
        edges, weights = occupancy_edges(requests, None)
        assert edges[0].tolist() == [0, 1, 4] and weights.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_line_winner_is_the_largest_key_and_ties_go_to_the_first_edge(self, dtype):
        lines = np.array([0, 0, 0, 2, 2, 5, 5, 5])
        keys = np.array([1, 3, 2, 7, 7, 4, 9, 9], dtype=dtype)
        assert line_winners(lines, keys, 6).tolist() == [1, 3, 6]
        # Without ties the same answer comes from the shortcut branch.
        keys[4] = 6
        keys[7] = 8
        assert line_winners(lines, keys, 6).tolist() == [1, 3, 6]
        assert line_winners(lines[:0], keys[:0], 6).size == 0


def _pointer_state(kernel):
    names = ("_pointers", "_grant_pointers", "_accept_pointers")
    return [getattr(kernel, n) for n in names if hasattr(kernel, n)]


class TestStreamBank:
    """A kernel over K generators == K kernels, one per block, each
    called only in the slots its block holds a request."""

    K, B, N = 3, 4, 5

    def _slots(self, count=30):
        """(K * B, N, N) depths; whole blocks go idle now and then."""
        rng = np.random.default_rng(5)
        for _ in range(count):
            depth = rng.integers(0, 3, size=(self.K, self.B, self.N, self.N))
            depth *= rng.random((self.K, self.B, self.N, self.N)) < 0.4
            depth[rng.random(self.K) < 0.3] = 0
            yield depth.reshape(-1, self.N, self.N)

    @pytest.mark.parametrize("iterations", [1, 4, None])
    @pytest.mark.parametrize(
        "name, accept",
        [("pim", "random"), ("pim", "round_robin"), ("islip", "random"),
         ("lqf", "random"), ("qps", "random")],
    )
    def test_equals_one_kernel_per_block(self, name, accept, iterations):
        options = dict(ports=self.N, iterations=iterations, accept=accept)
        banked = [np.random.default_rng(70 + k) for k in range(self.K)]
        single = [np.random.default_rng(70 + k) for k in range(self.K)]
        stacked = build_batch_scheduler(
            name, replicas=self.K * self.B, rng=banked, **options
        )
        apart = [
            build_batch_scheduler(name, replicas=self.B, rng=g, **options)
            for g in single
        ]
        idle_blocks = 0
        for depth in self._slots():
            got = stacked.schedule(depth > 0, depth)
            for k, kernel in enumerate(apart):
                block = depth[k * self.B:(k + 1) * self.B]
                want = -np.ones((self.B, self.N), dtype=np.int64)
                if block.any():
                    want = kernel.schedule(block > 0, block)
                idle_blocks += not block.any()
                assert got[k * self.B:(k + 1) * self.B].tobytes() == want.tobytes()
            for a, b in zip(banked, single):
                assert a.bit_generator.state == b.bit_generator.state
        assert idle_blocks
        pointers = [_pointer_state(kernel) for kernel in apart]
        for which, stacked_pointers in enumerate(_pointer_state(stacked)):
            want = np.concatenate([p[which] for p in pointers])
            assert np.array_equal(stacked_pointers, want)

    @pytest.mark.parametrize("name", ["pim", "lqf", "qps"])
    def test_reset_rewinds_every_stream(self, name):
        generators = [np.random.default_rng(k) for k in range(self.K)]
        for g in generators:
            g.random(3)  # as-constructed is not as-seeded
        kernel = build_batch_scheduler(
            name, replicas=self.K * self.B, ports=self.N, iterations=2, rng=generators
        )
        first = [kernel.schedule(d > 0, d).copy() for d in self._slots(8)]
        kernel.reset()
        again = [kernel.schedule(d > 0, d).copy() for d in self._slots(8)]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_blocks_must_be_equal(self):
        generators = [np.random.default_rng(k) for k in range(2)]
        with pytest.raises(ValueError, match="equal stream blocks"):
            build_batch_scheduler("pim", replicas=7, ports=4, rng=generators)
        with pytest.raises(ValueError, match="equal stream blocks"):
            build_batch_scheduler("lqf", replicas=4, ports=4, rng=[])


class TestProtocolValidation:
    def test_as_request_batch_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="B, N, N"):
            as_request_batch(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError, match="B, N, N"):
            as_request_batch(np.zeros(7))

    def test_construction_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            BatchScheduler(0, 4)
        with pytest.raises(ValueError, match="ports"):
            BatchScheduler(1, 0)
        with pytest.raises(ValueError, match="output_capacity"):
            BatchScheduler(1, 4, output_capacity=0)

    @pytest.mark.parametrize("name", BATCH_SCHEDULERS)
    def test_wrong_batch_shape_rejected(self, name):
        kernel = build_batch_scheduler(name, replicas=2, ports=4, seed=0)
        with pytest.raises(ValueError, match="requests"):
            kernel.schedule(np.zeros((3, 4, 4), dtype=bool))

    def test_occupancy_validation(self):
        kernel = build_batch_scheduler("lqf", replicas=1, ports=3, seed=0)
        requests = np.ones((1, 3, 3), dtype=bool)
        with pytest.raises(ValueError, match="occupancy shape"):
            kernel.schedule(requests, np.ones((1, 3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="non-negative"):
            kernel.schedule(requests, np.full((1, 3, 3), -1))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_batch_scheduler("bogus", replicas=1, ports=4)
        with pytest.raises(ValueError, match="unknown"):
            build_object_scheduler("bogus")

    def test_registry_names_match_kernels(self):
        for name in BATCH_SCHEDULERS:
            kernel = build_batch_scheduler(name, replicas=1, ports=4, seed=0)
            assert isinstance(kernel, BatchScheduler)
            assert kernel.name.startswith(name)
