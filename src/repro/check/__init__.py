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

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "Case": "fuzz",
    "CheckingScheduler": "invariants",
    "DifferentialReport": "differential",
    "FuzzReport": "fuzz",
    "InvariantSink": "invariants",
    "InvariantViolation": "invariants",
    "ScenarioParityReport": "differential",
    "backend_parity": "differential",
    "check_conservation": "invariants",
    "diff_series": "differential",
    "fabric_parity": "differential",
    "fuzz": "fuzz",
    "integrated_parity": "differential",
    "load_case": "fuzz",
    "metamorphic_pim_iterations": "differential",
    "metamorphic_statistical_fill": "differential",
    "network_parity": "differential",
    "run_case": "fuzz",
    "scenario_parity": "differential",
    "shrink": "fuzz",
    "statistical_parity": "differential",
})
