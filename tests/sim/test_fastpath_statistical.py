"""Tests for the batched statistical-matching fast path."""

import numpy as np
import pytest

from repro.core.statistical import StatisticalMatcher
from repro.sim.fastpath_statistical import (
    BatchStatisticalMatcher,
    compile_stat_tables,
    match_counts,
    run_fastpath_statistical,
)

ALLOC = np.array(
    [[2, 1, 0, 1], [0, 2, 2, 0], [1, 0, 2, 1], [1, 1, 0, 2]], dtype=np.int64
)
UNITS = 8


class TestCompileTables:
    def test_shapes_and_normalization(self):
        tables = compile_stat_tables(ALLOC, UNITS)
        assert tables.ports == 4 and tables.units == UNITS
        assert tables.grant_cdf.shape == (4, 5)
        np.testing.assert_allclose(tables.grant_cdf[:, -1], 1.0)
        # Finite prefix of every stacked row is a cdf ending at 1.0.
        for rows in (tables.virtual_cdf_rows, tables.decoy_cdf_rows):
            for row in rows:
                finite = row[np.isfinite(row)]
                assert finite.size >= 1
                assert finite[-1] == pytest.approx(1.0)

    def test_row_indices_track_allocations(self):
        tables = compile_stat_tables(ALLOC, UNITS)
        assert ((tables.virtual_row >= 0) == (ALLOC > 0)).all()
        np.testing.assert_array_equal(tables.slack, UNITS - ALLOC.sum(axis=1))
        assert ((tables.decoy_row >= 0) == (tables.slack > 0)).all()

    def test_validation_matches_object_model(self):
        with pytest.raises(ValueError, match="square"):
            compile_stat_tables(np.zeros((2, 3), dtype=int), 4)
        with pytest.raises(ValueError, match="non-negative"):
            compile_stat_tables(np.array([[-1]]), 4)
        with pytest.raises(ValueError, match="over-allocated"):
            compile_stat_tables(np.array([[4, 4], [0, 0]]), 4)
        with pytest.raises(ValueError, match="units"):
            compile_stat_tables(np.zeros((2, 2), dtype=int), 0)


class TestBatchMatcher:
    def test_b1_matches_object_draw_for_draw(self):
        """The parity contract: at B=1 with a shared seed the batched
        matcher consumes the generator exactly like the object one."""
        for seed, rounds in [(0, 1), (7, 2), (11, 3)]:
            obj = StatisticalMatcher(ALLOC, units=UNITS, rounds=rounds, seed=seed)
            fast = BatchStatisticalMatcher(
                ALLOC, UNITS, rounds=rounds, replicas=1, seed=seed
            )
            for _ in range(200):
                match = fast.match()[0]
                fast_pairs = sorted(
                    (i, int(j)) for i, j in enumerate(match) if j >= 0
                )
                assert sorted(obj.match().pairs) == fast_pairs

    def test_b1_parity_under_partial_allocation(self):
        alloc = np.zeros((4, 4), dtype=np.int64)
        alloc[0, 1] = 3  # lots of imaginary slack everywhere else
        obj = StatisticalMatcher(alloc, units=12, rounds=2, seed=5)
        fast = BatchStatisticalMatcher(alloc, 12, rounds=2, replicas=1, seed=5)
        for _ in range(200):
            match = fast.match()[0]
            assert sorted(obj.match().pairs) == sorted(
                (i, int(j)) for i, j in enumerate(match) if j >= 0
            )

    @pytest.mark.parametrize("fill", [False, True], ids=["lottery", "lottery+fill"])
    @pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
    def test_b1_schedule_matches_object_scheduler(self, fill, partial):
        """The kernel twin: as a switch scheduler -- lottery, unbacked
        matches dropped, ports masked, PIM fill on its own stream -- the
        B=1 batch equals ``StatisticalMatcher.schedule`` slot for slot
        (whole runs are compared by ``statistical_parity``)."""
        alloc, units = ALLOC, UNITS
        if partial:
            alloc = np.zeros((4, 4), dtype=np.int64)
            alloc[0, 1], alloc[2, 2], units = 3, 5, 12
        obj = StatisticalMatcher(alloc, units=units, rounds=2, seed=9, fill=fill)
        fast = BatchStatisticalMatcher(
            alloc, units, rounds=2, replicas=1, seed=9, fill=fill
        )
        # The same lottery on its own: what was matched before the drop.
        lottery = BatchStatisticalMatcher(alloc, units, rounds=2, replicas=1, seed=9)
        rng = np.random.default_rng(21)
        unbacked = 0
        for _ in range(200):
            requests = rng.random((4, 4)) < 0.5
            match = fast.schedule(requests[None])[0]
            assert sorted(obj.schedule(requests).pairs) == sorted(
                (i, int(j)) for i, j in enumerate(match) if j >= 0
            )
            drawn = lottery.match()[0]
            unbacked += sum(
                not requests[i, j] for i, j in enumerate(drawn) if j >= 0
            )
        assert unbacked > 0

    def test_matches_are_legal(self):
        fast = BatchStatisticalMatcher(ALLOC, UNITS, replicas=8, seed=1)
        for _ in range(50):
            match = fast.match()
            for b in range(8):
                outputs = match[b][match[b] >= 0]
                assert len(set(outputs.tolist())) == outputs.size

    def test_zero_allocation_pairs_never_matched(self):
        fast = BatchStatisticalMatcher(ALLOC, UNITS, replicas=16, seed=2)
        for _ in range(100):
            match = fast.match()
            bb, ii = np.nonzero(match >= 0)
            jj = match[bb, ii]
            assert (ALLOC[ii, jj] > 0).all()

    def test_reset_replays(self):
        fast = BatchStatisticalMatcher(ALLOC, UNITS, replicas=4, seed=3)
        first = [fast.match() for _ in range(20)]
        fast.reset()
        second = [fast.match() for _ in range(20)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_per_round_counts_pool_over_replicas(self):
        fast = BatchStatisticalMatcher(ALLOC, UNITS, rounds=2, replicas=4, seed=4)
        match, per_round = fast.match_with_counts()
        assert len(per_round) == 2
        assert per_round[-1].matched == int((match >= 0).sum())
        for counts in per_round:
            assert counts.kept <= counts.accepted <= counts.granted

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            BatchStatisticalMatcher(ALLOC, UNITS, rounds=0)
        with pytest.raises(ValueError, match="replicas"):
            BatchStatisticalMatcher(ALLOC, UNITS, replicas=0)


class TestRunFastpathStatistical:
    def test_drained_run_conserves_cells(self):
        result = run_fastpath_statistical(
            ALLOC, UNITS, load=0.6, slots=200, replicas=4,
            seed=0, drain_slots=400, check=True,
        )
        assert int(result.final_backlog.sum()) == 0
        np.testing.assert_array_equal(result.offered_cells, result.carried_cells)
        np.testing.assert_array_equal(
            result.carried_cells, result.stat_cells + result.fill_cells
        )

    def test_without_fill_only_allocated_pairs_depart(self):
        result = run_fastpath_statistical(
            ALLOC, UNITS, load=0.9, slots=150, replicas=4,
            fill=False, seed=1, check=True,
        )
        assert (result.fill_cells == 0).all()
        departed = result.departures_by_output.sum(axis=0)
        assert (departed[ALLOC.sum(axis=0) == 0] == 0).all()

    def test_statistical_draws_decoupled_from_fill(self):
        """The metamorphic invariant: with a shared match_seed the
        lottery anatomy is identical with fill on or off."""
        from repro.obs import InMemorySink, Probe

        series = {}
        for fill in (False, True):
            sink = InMemorySink()
            run_fastpath_statistical(
                ALLOC, UNITS, load=0.8, slots=120, replicas=2,
                fill=fill, seed=2, match_seed=77, probe=Probe(sink),
            )
            series[fill] = [
                (e.slot, e.round_index, e.granted, e.virtual, e.decoys,
                 e.accepted, e.kept, e.matched)
                for e in sink.events if e.kind == "stat_round"
            ]
        assert series[True] == series[False]
        assert len(series[True]) == 240  # slots x rounds

    def test_fill_never_carries_less(self):
        carried = {}
        for fill in (False, True):
            result = run_fastpath_statistical(
                ALLOC, UNITS, load=0.8, slots=200, replicas=4,
                fill=fill, seed=3, match_seed=78,
            )
            carried[fill] = int(result.carried_cells.sum())
        assert carried[True] >= carried[False]

    def test_probe_emits_transfer_and_snapshot(self):
        from repro.obs import InMemorySink, Probe

        sink = InMemorySink()
        result = run_fastpath_statistical(
            ALLOC, UNITS, load=0.5, slots=50, replicas=2,
            seed=4, probe=Probe(sink, stride=10),
        )
        transfers = [e for e in sink.events if e.kind == "crossbar_transfer"]
        assert len(transfers) == 50
        assert sum(e.cells for e in transfers) == int(result.carried_cells.sum())
        snapshots = [e for e in sink.events if e.kind == "voq_snapshot"]
        assert len(snapshots) == 5
        assert all(e.replica == -1 for e in snapshots)

    def test_warmup_modes(self):
        for mode in ("slot", "arrival"):
            result = run_fastpath_statistical(
                ALLOC, UNITS, load=0.6, slots=100, replicas=2,
                warmup=20, warmup_mode=mode, seed=5, drain_slots=200,
            )
            assert result.window == 280
            assert (result.delay_cells is not None) == (mode == "arrival")
            assert result.mean_delay >= 0.0

    def test_summary_reports_split(self):
        result = run_fastpath_statistical(
            ALLOC, UNITS, load=0.5, slots=50, replicas=1, seed=6
        )
        assert "statistical" in result.summary() and "fill" in result.summary()

    def test_validation(self):
        with pytest.raises(ValueError, match="load"):
            run_fastpath_statistical(ALLOC, UNITS, 1.5, 10)
        with pytest.raises(ValueError, match="slots"):
            run_fastpath_statistical(ALLOC, UNITS, 0.5, 0)
        with pytest.raises(ValueError, match="warmup"):
            run_fastpath_statistical(ALLOC, UNITS, 0.5, 10, warmup=10)
        with pytest.raises(ValueError, match="warmup_mode"):
            run_fastpath_statistical(ALLOC, UNITS, 0.5, 10, warmup_mode="frame")
        with pytest.raises(ValueError, match="arrival_seeds"):
            run_fastpath_statistical(
                ALLOC, UNITS, 0.5, 10, replicas=2, arrival_seeds=[1]
            )


class TestMatchCounts:
    def test_counts_respect_allocation_support(self):
        alloc = np.diag([4, 4, 4, 4])
        counts, samples = match_counts(alloc, 4, trials=500, replicas=32, seed=0)
        assert samples == 512  # rounded up to whole batches
        off_diagonal = counts[~np.eye(4, dtype=bool)]
        assert (off_diagonal == 0).all()
        assert counts.sum() > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            match_counts(ALLOC, UNITS, trials=0)


class TestEndToEndParity:
    def test_slot_exact_parity_with_fill(self):
        from repro.check.differential import statistical_parity

        report = statistical_parity(4, 8, 0.75, 0.8, 120, seed=1, fill=True)
        assert report.ok and "slot-exact" in report.detail

    def test_slot_exact_parity_without_fill(self):
        from repro.check.differential import statistical_parity

        report = statistical_parity(4, 8, 0.5, 0.6, 120, seed=2, fill=False)
        assert report.ok


@pytest.mark.slow
def test_statistical_fuzz_sweep():
    """The randomized parity sweep the CI smoke stage samples."""
    from repro.check.fuzz import fuzz

    report = fuzz("statistical", seeds=24)
    assert report.ok, report.describe()
