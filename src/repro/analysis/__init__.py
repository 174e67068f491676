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

from repro.analysis.iterations import expected_iterations_bound
from repro.analysis.statistical_theory import (
    single_round_fraction,
    two_round_fraction,
    SINGLE_ROUND_LIMIT,
    TWO_ROUND_LIMIT,
)
from repro.analysis.queueing import (
    fifo_saturation_throughput,
    hol_saturation_limit,
    output_queueing_delay,
    output_queueing_mean_queue,
)
from repro.analysis.pim_theory import (
    one_iteration_match_fraction,
    pim1_saturation_throughput,
    saturated_first_iteration_fraction,
)
from repro.analysis.ascii_plot import bar_chart, line_chart
from repro.analysis.maximal_bounds import (
    MAXIMAL_SCHEDULERS,
    interference_drain_bound,
    mean_interference_uniform,
)
from repro.analysis.scheduler_study import (
    StudyRow,
    format_table,
    rows_for_record,
    run_study,
)
from repro.analysis.fct_tables import (
    FctRow,
    fct_row,
    format_fct_table,
)

__all__ = [
    "MAXIMAL_SCHEDULERS",
    "interference_drain_bound",
    "mean_interference_uniform",
    "StudyRow",
    "format_table",
    "rows_for_record",
    "run_study",
    "FctRow",
    "fct_row",
    "format_fct_table",
    "hol_saturation_limit",
    "output_queueing_delay",
    "output_queueing_mean_queue",
    "one_iteration_match_fraction",
    "pim1_saturation_throughput",
    "saturated_first_iteration_fraction",
    "bar_chart",
    "line_chart",
    "expected_iterations_bound",
    "single_round_fraction",
    "two_round_fraction",
    "SINGLE_ROUND_LIMIT",
    "TWO_ROUND_LIMIT",
    "fifo_saturation_throughput",
]
