"""Cross-backend parity on named flow-level scenarios."""

import pytest

from repro.check.differential import ScenarioParityReport, scenario_parity
from repro.check.fuzz import DIFFERENTIAL_SCHEDULERS, Case, case_for_seed, fuzz, run_case
from repro.check.invariants import InvariantViolation
from repro.traffic.scenarios import SCENARIOS


class TestScenarioParity:
    @pytest.mark.parametrize("scheduler", DIFFERENTIAL_SCHEDULERS)
    def test_each_kernel_clean_on_incast(self, scheduler):
        report = scenario_parity(
            "websearch-incast", scheduler=scheduler, slots=150, seed=0
        )
        assert isinstance(report, ScenarioParityReport)
        assert report.object_result is not None
        assert report.fast_result is not None
        assert report.fast_result.fct is not None

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_scenario_clean_on_islip(self, name):
        report = scenario_parity(name, scheduler="islip", slots=150, seed=1)
        # Both backends saw the same cells (can be 0 for bursty ON/OFF
        # scenarios over a short window -- parity still must hold).
        assert (
            int(report.fast_result.offered_cells.sum())
            == report.object_result.counter.offered
        )

    def test_nonpim_fct_samples_match_exactly(self):
        report = scenario_parity("hotspot", scheduler="lqf", slots=200, seed=2)
        obj, fast = report.object_result.fct, report.fast_result.fct
        assert obj is not None and fast is not None
        assert obj.count == fast.count > 0
        assert obj.observations() == fast.observations()

    def test_warmup_parity(self):
        scenario_parity("websearch-incast", scheduler="wavefront",
                        slots=200, seed=3, warmup=25)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_parity("bogus", scheduler="islip", slots=50, seed=0)


class TestScenarioCaseGeneration:
    def test_deterministic(self):
        assert case_for_seed("scenario", 7) == case_for_seed("scenario", 7)

    def test_consecutive_seeds_cover_every_pair(self):
        width = len(DIFFERENTIAL_SCHEDULERS) * len(SCENARIOS)
        pairs = {
            (c.params["scenario"], c.params["scheduler"])
            for c in (case_for_seed("scenario", i) for i in range(width))
        }
        assert len(pairs) == width

    def test_case_fields_in_bounds(self):
        for seed in range(25):
            params = case_for_seed("scenario", seed).params
            assert params["scenario"] in SCENARIOS
            assert params["scheduler"] in DIFFERENTIAL_SCHEDULERS
            assert params["slots"] in (120, 200, 350)
            assert params["warmup"] in (0, 25)

    def test_json_serializable(self):
        import json

        case = case_for_seed("scenario", 4)
        assert json.loads(case.to_json())["scenario"] == case.params["scenario"]


class TestFuzzScenarios:
    def test_small_sweep_is_clean(self, tmp_path):
        report = fuzz("scenario", seeds=3, out_dir=str(tmp_path))
        assert report.cases_run == 3
        assert report.ok
        assert report.failures == []

    def test_run_scenario_case_replays_directly(self):
        run_case(Case("scenario", 0, dict(scenario="skewed-uniform",
                                         scheduler="qps", slots=120)))
