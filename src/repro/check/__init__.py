"""Correctness harness: invariants, differential runs, and fuzzing.

Three layers, each usable on its own:

- :mod:`repro.check.invariants` -- composable per-slot checkers wired
  through the :mod:`repro.obs` probe hook (stream invariants) and a
  :class:`~repro.check.invariants.CheckingScheduler` wrapper (matching
  validity / maximality), plus end-of-run conservation checks;
- :mod:`repro.check.differential` -- the seed-matched object-vs-fastpath
  parity oracles, one per switch model, each a set-up, two runs, two
  projections onto named per-slot series and one :func:`diff_series`
  call that names the first divergent (slot, series, index); plus
  cross-scheduler metamorphic checks;
- :mod:`repro.check.fuzz` -- one :class:`Case` type ``(family, seed,
  params)`` and one strategy table (``switch``, ``cbr``, ``churn``,
  ``statistical``, ``network``, ``scenario``): :func:`fuzz` sweeps a
  family, shrinks any failure to a minimal reproducer and writes it as
  a pytest-replayable JSON case.

The ``repro-an2 check --suite <family>|all`` CLI subcommand runs the
sweeps; ``make check`` and the CI smoke stage bound them by seed count
and wall-clock budget.
"""

from repro.check.differential import (
    DifferentialReport,
    ScenarioParityReport,
    backend_parity,
    diff_series,
    fabric_parity,
    integrated_parity,
    metamorphic_pim_iterations,
    metamorphic_statistical_fill,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.check.fuzz import Case, FuzzReport, fuzz, load_case, run_case, shrink
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
    "ScenarioParityReport",
    "backend_parity",
    "check_conservation",
    "diff_series",
    "fabric_parity",
    "fuzz",
    "integrated_parity",
    "load_case",
    "metamorphic_pim_iterations",
    "metamorphic_statistical_fill",
    "network_parity",
    "run_case",
    "scenario_parity",
    "shrink",
    "statistical_parity",
]
