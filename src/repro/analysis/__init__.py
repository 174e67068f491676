"""Closed-form results from the paper's appendices, as checkable code.

- :mod:`repro.analysis.iterations` -- Appendix A: the E[C] <= log2(N)
  + 4/3 iteration bound (it and the 3/4 resolution lemma are tier-1
  claims in ``tests/claims/test_appendix_a.py``),
- :mod:`repro.analysis.statistical_theory` -- Appendix C: the 63% / 72%
  statistical-matching throughput fractions,
- :mod:`repro.analysis.queueing` -- Karol et al.'s output-queueing
  delay and head-of-line saturation limit for FIFO input queueing
  (2 - sqrt(2) as N grows, their Table I at finite N),
- :mod:`repro.analysis.maximal_bounds` -- Cogill-Lall style
  interference-drain delay bound for maximal-matching schedulers,
- :mod:`repro.analysis.scheduler_study` -- cross-scheduler
  delay-vs-load study over the batched kernel registry,
- :mod:`repro.analysis.fct_tables` -- per-flow FCT summary tables for
  named-scenario runs.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "MAXIMAL_SCHEDULERS": "maximal_bounds",
    "interference_drain_bound": "maximal_bounds",
    "mean_interference_uniform": "maximal_bounds",
    "StudyRow": "scheduler_study",
    "format_table": "scheduler_study",
    "rows_for_record": "scheduler_study",
    "run_study": "scheduler_study",
    "FctRow": "fct_tables",
    "fct_row": "fct_tables",
    "format_fct_table": "fct_tables",
    "hol_saturation_limit": "queueing",
    "output_queueing_delay": "queueing",
    "output_queueing_mean_queue": "queueing",
    "one_iteration_match_fraction": "pim_theory",
    "pim1_saturation_throughput": "pim_theory",
    "saturated_first_iteration_fraction": "pim_theory",
    "bar_chart": "ascii_plot",
    "line_chart": "ascii_plot",
    "expected_iterations_bound": "iterations",
    "single_round_fraction": "statistical_theory",
    "two_round_fraction": "statistical_theory",
    "SINGLE_ROUND_LIMIT": "statistical_theory",
    "TWO_ROUND_LIMIT": "statistical_theory",
    "fifo_saturation_throughput": "queueing",
})
