"""Tests for hardware random-selection approximations (Section 3.3)."""

import numpy as np
import pytest

from repro.core.matching import is_maximal
from repro.core.pim import PIMScheduler, pim_match
from repro.hardware.random_select import (
    LFSRGenerator,
    LFSRRandomAdapter,
    TableSelector,
    lfsr_pim_rng,
)


class TestLFSRGenerator:
    def test_seed_validation(self):
        with pytest.raises(ValueError, match="non-zero 16-bit"):
            LFSRGenerator(0)
        with pytest.raises(ValueError, match="non-zero 16-bit"):
            LFSRGenerator(1 << 16)

    def test_maximal_period(self):
        """Taps (16,15,13,4) give the full 2^16 - 1 cycle."""
        assert LFSRGenerator(seed=1).period_check() == 65535

    def test_states_nonzero_16_bit(self):
        lfsr = LFSRGenerator(seed=0xACE1)
        for _ in range(1000):
            state = lfsr.step()
            assert 0 < state < (1 << 16)

    def test_select_range(self):
        lfsr = LFSRGenerator()
        for _ in range(500):
            assert 0 <= lfsr.select(7) < 7
        with pytest.raises(ValueError, match=">= 1"):
            lfsr.select(0)

    def test_roughly_uniform(self):
        lfsr = LFSRGenerator(seed=0x1234)
        counts = np.zeros(4)
        for _ in range(20000):
            counts[lfsr.select(4)] += 1
        np.testing.assert_allclose(counts / counts.sum(), 0.25, atol=0.02)


class TestTableSelector:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            TableSelector(0)
        with pytest.raises(ValueError, match="rows"):
            TableSelector(4, rows=0)
        selector = TableSelector(4, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            selector.select(5)

    def test_select_range(self):
        selector = TableSelector(16, rows=32, seed=1)
        for k in (1, 2, 7, 16):
            for _ in range(64):
                assert 0 <= selector.select(k) < k

    def test_deterministic_after_configuration(self):
        a = TableSelector(8, rows=16, seed=7)
        b = TableSelector(8, rows=16, seed=7)
        assert [a.select(5) for _ in range(50)] == [b.select(5) for _ in range(50)]

    def test_cycles_through_rows(self):
        selector = TableSelector(4, rows=4, seed=2)
        first_pass = [selector.select(4) for _ in range(4)]
        second_pass = [selector.select(4) for _ in range(4)]
        assert first_pass == second_pass


class TestLFSRAdapter:
    def test_random_shapes(self):
        rng = lfsr_pim_rng()
        values = rng.random((3, 4))
        assert values.shape == (3, 4)
        assert ((0 <= values) & (values < 1)).all()
        scalar = rng.random()
        assert 0 <= scalar < 1

    def test_one_replica_cube_keeps_one_register_per_port(self):
        """PIM draws (1, N, N) cubes: column j must still come from
        register j, as in an (N, N) draw, not from the flat round-robin
        path of 1-D draws."""
        cube = lfsr_pim_rng().random((1, 8, 8))
        matrix = lfsr_pim_rng().random((8, 8))
        assert cube.shape == (1, 8, 8)
        assert cube[0].tobytes() == matrix.tobytes()

    def test_integers(self):
        rng = lfsr_pim_rng()
        for _ in range(100):
            assert 0 <= rng.integers(9) < 9


class TestPIMOnHardwareRandomness:
    def test_pim_still_maximal_on_lfsr(self):
        """The Section 3.3 claim: PIM is insensitive to the randomness
        approximation.  Maximality is untouched; convergence stays in
        the same ballpark."""
        lfsr_rng = lfsr_pim_rng(seed=0x0BAD)
        true_rng = np.random.default_rng(0)
        lfsr_iters, true_iters = [], []
        for _ in range(200):
            requests = true_rng.random((16, 16)) < 0.5
            lfsr_result = pim_match(requests, lfsr_rng, iterations=None)
            assert lfsr_result.completed
            assert is_maximal(lfsr_result.matching, requests)
            lfsr_iters.append(lfsr_result.iterations)
            true_iters.append(
                pim_match(requests, true_rng, iterations=None).iterations
            )
        assert np.mean(lfsr_iters) == pytest.approx(np.mean(true_iters), abs=0.5)

    def test_scheduler_accepts_custom_rng(self):
        scheduler = PIMScheduler(rng=lfsr_pim_rng())
        matching = scheduler.schedule(np.ones((8, 8), dtype=bool))
        assert len(matching) == 8
