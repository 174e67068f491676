"""Correctness harness: invariants, differential runs, and fuzzing.

Three layers, each usable on its own:

- :mod:`repro.check.invariants` -- composable per-slot checkers wired
  through the :mod:`repro.obs` probe hook (stream invariants) and a
  :class:`~repro.check.invariants.CheckingScheduler` wrapper (matching
  validity / maximality), plus end-of-run conservation checks;
- :mod:`repro.check.differential` -- seed-matched differential runs
  (object vs fast path) and cross-scheduler metamorphic checks;
- :mod:`repro.check.fuzz` -- a randomized sweep over (ports, load,
  pattern, scheduler, iterations, seed) that shrinks any failure to a
  minimal reproducer and writes it as a pytest-replayable JSON case.

The ``repro-an2 check`` CLI subcommand runs the sweep; ``make check``
and the CI smoke stage bound it by seed count and wall-clock budget.
"""

from repro.check.differential import (
    DifferentialReport,
    ScenarioParityReport,
    backend_parity,
    fabric_parity,
    integrated_parity,
    metamorphic_pim_iterations,
    metamorphic_statistical_fill,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.check.fuzz import (
    Case,
    CbrCase,
    ChurnCase,
    NetworkCase,
    ScenarioCase,
    StatCase,
    FuzzReport,
    fuzz,
    fuzz_cbr,
    fuzz_churn,
    fuzz_network,
    fuzz_scenarios,
    fuzz_statistical,
    load_case,
    run_case,
    run_cbr_case,
    run_churn_case,
    run_network_case,
    run_scenario_case,
    run_stat_case,
    shrink,
)
from repro.check.invariants import (
    CheckingScheduler,
    InvariantSink,
    InvariantViolation,
    check_conservation,
)

__all__ = [
    "Case",
    "CheckingScheduler",
    "DifferentialReport",
    "FuzzReport",
    "InvariantSink",
    "InvariantViolation",
    "backend_parity",
    "fabric_parity",
    "CbrCase",
    "check_conservation",
    "ChurnCase",
    "NetworkCase",
    "ScenarioCase",
    "ScenarioParityReport",
    "StatCase",
    "fuzz",
    "fuzz_cbr",
    "fuzz_churn",
    "fuzz_network",
    "fuzz_scenarios",
    "fuzz_statistical",
    "integrated_parity",
    "load_case",
    "metamorphic_pim_iterations",
    "metamorphic_statistical_fill",
    "network_parity",
    "run_case",
    "run_cbr_case",
    "run_churn_case",
    "run_network_case",
    "run_scenario_case",
    "run_stat_case",
    "scenario_parity",
    "statistical_parity",
    "shrink",
]
