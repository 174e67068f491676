"""Fuzz-harness mechanics: case generation, shrinking, JSON replay, CLI."""

import pytest

from repro.check.fuzz import (
    PATTERNS,
    SCHEDULERS,
    Case,
    case_for_seed,
    fuzz,
    load_case,
    run_case,
    shrink,
)


def _switch(seed, **params):
    return Case("switch", seed, params)


class TestCaseGeneration:
    def test_deterministic(self):
        assert case_for_seed("switch", 7) == case_for_seed("switch", 7)

    def test_scheduler_coverage_in_consecutive_seeds(self):
        width = len(SCHEDULERS)
        for base in (0, 13, 100):
            schedulers = {
                case_for_seed("switch", base + i).params["scheduler"] for i in range(width)
            }
            assert schedulers == set(SCHEDULERS)

    def test_json_roundtrip(self):
        case = case_for_seed("switch", 3)
        assert load_case(case.to_json()) == case

    def test_patterns_and_bounds(self):
        for seed in range(20):
            params = case_for_seed("switch", seed).params
            assert params["pattern"] in PATTERNS
            assert 2 <= params["ports"] <= 16
            assert 0.0 < params["load"] <= 1.0


class TestRunCase:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_each_scheduler_clean(self, scheduler):
        run_case(_switch(1, ports=4, scheduler=scheduler, slots=100))

    def test_differential_stage_runs_for_pim_uniform(self):
        run_case(_switch(2, ports=4, scheduler="pim", pattern="uniform", slots=80))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown batch scheduler"):
            run_case(_switch(0, scheduler="bogus"))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            run_case(_switch(0, pattern="bogus"))


class TestShrink:
    def test_shrinks_to_minimal_failing_config(self):
        """Shrink against a synthetic predicate: fails whenever
        ports >= 4.  The minimum should drive every other dimension
        down and ports to the smallest still-failing value."""

        def fails(case):
            return "boom" if case.params["ports"] >= 4 else None

        shrunk = shrink(
            _switch(0, ports=16, slots=400, iterations=4, pattern="bursty",
                    load=0.9, scheduler="pim"),
            fails=fails,
        )
        assert shrunk == _switch(0, ports=4, slots=10, iterations=1,
                                 pattern="uniform", load=0.5, scheduler="pim")

    def test_requires_a_failing_case(self):
        with pytest.raises(ValueError, match="failing case"):
            shrink(_switch(0), fails=lambda case: None)

    def test_shrink_preserves_failure(self):
        def fails(case):
            return "bad" if case.params["slots"] > 50 else None

        shrunk = shrink(_switch(0, slots=400), fails=fails)
        assert fails(shrunk) is not None
        assert shrunk.params["slots"] == 100  # halving stops while still failing

    def test_moves_apply_to_every_family(self):
        """The per-field moves know nothing of families: a churn case
        shrinks its ports, and keeps the fields no move names."""
        shrunk = shrink(
            Case("churn", 3, dict(ports=16, frame_slots=32, operations=250)),
            fails=lambda case: "boom" if case.params["ports"] > 4 else None,
        )
        assert shrunk.params == dict(ports=8, frame_slots=32, operations=250)


class TestFuzzSweep:
    def test_small_sweep_clean(self):
        report = fuzz("switch", seeds=8)
        assert report.ok
        assert report.cases_run == 8
        assert "all invariants held" in report.describe()

    def test_budget_bounds_the_sweep(self):
        report = fuzz("switch", seeds=10_000, budget_seconds=1.0)
        assert report.cases_run < 10_000
        assert report.budget_exhausted

    def test_failure_writes_replayable_json(self, tmp_path, monkeypatch):
        """Inject a failure and confirm the reproducer pipeline:
        detect -> shrink -> JSON file -> load_case -> identical Case."""
        import importlib

        # The package re-exports the fuzz() *function* under the same
        # name, which shadows `import repro.check.fuzz`; go through
        # importlib to get the module object itself.
        fuzz_mod = importlib.import_module("repro.check.fuzz")
        real_run_case = fuzz_mod.run_case

        def broken_run_case(case):
            if case.params["scheduler"] == "islip":
                raise AssertionError("injected islip failure")
            return real_run_case(case)

        monkeypatch.setattr(fuzz_mod, "run_case", broken_run_case)
        # _fails (used by shrink) calls run_case through the module
        # global, so the injected failure shrinks consistently.
        report = fuzz_mod.fuzz("switch", seeds=4, out_dir=str(tmp_path))
        assert not report.ok
        assert len(report.failures) == 1
        files = list(tmp_path.glob("switch_case_*.json"))
        assert len(files) == 1
        replayed = load_case(files[0].read_text())
        assert replayed == report.failures[0]["shrunk"]
        assert replayed.params["scheduler"] == "islip"
        assert replayed.params["ports"] == 2  # shrunk
        with pytest.raises(AssertionError, match="injected"):
            broken_run_case(replayed)


class TestCheckCLI:
    def test_clean_sweep_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["check", "--seeds", "4"]) == 0
        assert "all invariants held" in capsys.readouterr().out

    def test_budget_parsing(self):
        from repro.cli import _budget_seconds

        assert _budget_seconds("60s") == 60.0
        assert _budget_seconds("2m") == 120.0
        assert _budget_seconds("45") == 45.0
        with pytest.raises(Exception):
            _budget_seconds("nope")
        with pytest.raises(Exception):
            _budget_seconds("-3")

    def test_out_dir_stays_empty_on_clean_sweep(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "failures"
        assert main(["check", "--seeds", "4", "--out", str(out)]) == 0
        assert not out.exists() or not list(out.iterdir())


@pytest.mark.slow
class TestExtendedSweep:
    """Nightly-style deep sweep; excluded from tier-1 by the marker."""

    def test_hundred_seed_sweep(self):
        report = fuzz("switch", seeds=100, base_seed=10_000)
        assert report.ok, report.describe()

    def test_metamorphic_sweep(self):
        from repro.check.differential import (
            metamorphic_pim_iterations,
            metamorphic_statistical_fill,
        )

        for seed in range(10):
            assert metamorphic_statistical_fill(8, 400, seed=seed).ok
            assert metamorphic_pim_iterations(16, 400, seed=seed).ok
