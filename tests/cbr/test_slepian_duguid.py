"""Tests for Slepian-Duguid reservation insertion (Figures 6 and 7)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cbr.slepian_duguid import SlepianDuguidScheduler

from tests.conftest import feasible_reservations


def figure6_reservations():
    """The 4x4, 3-slot frame reservation pattern of Figure 6.

    Reservations (cells/frame): input 1: 2 to output 1, 1 to output 2;
    input 2: 1 to output 2, 1 to output 3; input 3: 1 to output 1,
    2 to output 4; input 4: 1 to output 3.  (1-indexed in the paper;
    0-indexed here.)  Row/col sums all <= 3, so a 3-slot frame fits.
    """
    matrix = np.zeros((4, 4), dtype=np.int64)
    matrix[0, 0] = 2
    matrix[0, 1] = 1
    matrix[1, 1] = 1
    matrix[1, 2] = 1
    matrix[2, 0] = 1
    matrix[2, 3] = 2
    matrix[3, 2] = 1
    return matrix


class TestAdmission:
    def test_accepts_within_capacity(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        assert scheduler.can_accommodate(0, 1, 3)
        assert not scheduler.can_accommodate(0, 1, 4)

    def test_commitments_tracked(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        scheduler.add_reservation(0, 1, 2)
        assert scheduler.input_committed(0) == 2
        assert scheduler.output_committed(1) == 2
        assert not scheduler.can_accommodate(0, 2, 2)
        assert scheduler.can_accommodate(2, 1, 1)

    def test_over_commitment_rejected(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        scheduler.add_reservation(0, 1, 3)
        with pytest.raises(ValueError, match="cannot reserve"):
            scheduler.add_reservation(0, 2, 1)

    def test_negative_cells_rejected(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        with pytest.raises(ValueError, match="non-negative"):
            scheduler.can_accommodate(0, 1, -1)


class TestFigure6And7:
    def test_figure6_schedules(self):
        scheduler = SlepianDuguidScheduler.from_matrix(figure6_reservations(), 3)
        scheduler.schedule.validate()
        np.testing.assert_array_equal(
            scheduler.schedule.reservation_matrix(), figure6_reservations()
        )

    def test_figure7_insert_forces_swap(self):
        """Adding 1 cell/frame from input 2 to output 4 (1-indexed)
        succeeds even though no slot has both free initially."""
        scheduler = SlepianDuguidScheduler.from_matrix(figure6_reservations(), 3)
        # 0-indexed: input 1 -> output 3.
        assert scheduler.can_accommodate(1, 3, 1)
        scheduler.add_reservation(1, 3, 1)
        scheduler.schedule.validate()
        expected = figure6_reservations()
        expected[1, 3] += 1
        np.testing.assert_array_equal(
            scheduler.schedule.reservation_matrix(), expected
        )

    def test_figure7_swaps_on_the_figure6_slot_assignment(self):
        """On Figure 6's own slot assignment every slot has input 1 or
        output 3 (0-indexed) busy, so the insert must swap pairings
        between slots; every connection keeps its per-frame count."""
        slots = [
            [(0, 0), (1, 1), (2, 3), (3, 2)],
            [(0, 0), (2, 3)],
            [(0, 1), (1, 2), (2, 0)],
        ]
        scheduler = SlepianDuguidScheduler.from_slot_assignment(4, slots)
        np.testing.assert_array_equal(scheduler.reservations, figure6_reservations())
        schedule = scheduler.schedule
        assert not any(
            schedule.input_free(s, 1) and schedule.output_free(s, 3) for s in range(3)
        )
        scheduler.add_reservation(1, 3, 1)
        schedule.validate()
        expected = figure6_reservations()
        expected[1, 3] += 1
        for i in range(4):
            for j in range(4):
                assert len(schedule.slots_for(i, j)) == expected[i, j]


class TestRemoval:
    def test_remove_frees_capacity(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        scheduler.add_reservation(0, 1, 2)
        scheduler.remove_reservation(0, 1, 1)
        assert scheduler.reservations[0, 1] == 1
        assert scheduler.input_committed(0) == 1
        assert len(scheduler.schedule.slots_for(0, 1)) == 1

    def test_remove_too_many_rejected(self):
        scheduler = SlepianDuguidScheduler(4, 3)
        scheduler.add_reservation(0, 1, 1)
        with pytest.raises(ValueError, match="only 1 cells/frame"):
            scheduler.remove_reservation(0, 1, 2)

    def test_add_remove_add_cycle(self):
        scheduler = SlepianDuguidScheduler(4, 4)
        for _ in range(5):
            scheduler.add_reservation(0, 1, 4)
            scheduler.remove_reservation(0, 1, 4)
        scheduler.add_reservation(0, 2, 4)
        scheduler.schedule.validate()


class TestSlepianDuguidProperties:
    @given(feasible_reservations())
    def test_any_feasible_matrix_schedules(self, matrix_and_frame):
        """The Slepian-Duguid theorem: feasible => schedulable."""
        matrix, frame = matrix_and_frame
        scheduler = SlepianDuguidScheduler.from_matrix(matrix, frame)
        scheduler.schedule.validate()
        np.testing.assert_array_equal(scheduler.schedule.reservation_matrix(), matrix)

    @given(feasible_reservations(max_ports=5, max_frame=6), st.integers(0, 2**31 - 1))
    def test_incremental_insert_never_fails_while_feasible(self, matrix_and_frame, seed):
        """Insert the same total reservation in random single-cell order."""
        matrix, frame = matrix_and_frame
        rng = np.random.default_rng(seed)
        cells = [
            (i, j)
            for i in range(matrix.shape[0])
            for j in range(matrix.shape[1])
            for _ in range(int(matrix[i, j]))
        ]
        rng.shuffle(cells)
        scheduler = SlepianDuguidScheduler(matrix.shape[0], frame)
        for i, j in cells:
            scheduler.add_reservation(int(i), int(j), 1)
        scheduler.schedule.validate()
        np.testing.assert_array_equal(scheduler.schedule.reservation_matrix(), matrix)

    def test_saturated_permutation_sum(self, rng):
        """A fully saturated switch (all rows/cols == F) still schedules."""
        n, frame = 8, 12
        matrix = np.zeros((n, n), dtype=np.int64)
        for _ in range(frame):
            perm = rng.permutation(n)
            for i in range(n):
                matrix[i, perm[i]] += 1
        scheduler = SlepianDuguidScheduler.from_matrix(matrix, frame)
        assert scheduler.schedule.utilization() == 1.0

    def test_saturated_an2_scale_frame(self, rng):
        """16 ports and a 200-slot frame, every row and column full:
        3,200 pairings, one flow cell at a time."""
        n, frame = 16, 200
        matrix = np.zeros((n, n), dtype=np.int64)
        for _ in range(frame):
            matrix[np.arange(n), rng.permutation(n)] += 1
        scheduler = SlepianDuguidScheduler.from_matrix(matrix, frame)
        scheduler.schedule.validate()
        assert scheduler.schedule.utilization() == 1.0

    def test_from_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            SlepianDuguidScheduler.from_matrix(np.zeros((2, 3), dtype=int), 4)
        with pytest.raises(ValueError, match="non-negative"):
            SlepianDuguidScheduler.from_matrix(np.array([[-1]]), 4)
