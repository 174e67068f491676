"""Per-flow FCT tables for named-scenario runs.

One :class:`FctRow` summarizes a (scenario, scheduler, backend) run:
completed-flow count, mean/p99 flow completion time, mean/p99 slowdown
(FCT over flow size -- the size-normalized metric that exposes
mice-vs-elephant bias), plus the run's cell-level mean delay and
throughput for context.

The table renderer is shared by ``repro-an2 scenario run/smoke`` and
``examples/scenario_study.py`` so the artifact CI uploads and the
numbers quoted in the docs come from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.stats import FlowStats

__all__ = ["FctRow", "fct_row", "format_fct_table"]


@dataclass
class FctRow:
    """One (scenario, scheduler, backend) run's flow-level summary."""

    scenario: str
    scheduler: str
    backend: str
    flows: int
    incomplete: int
    mean_fct: float
    p99_fct: float
    mean_slowdown: float
    p99_slowdown: float
    mean_delay: float
    throughput: float


def fct_row(
    scenario: str,
    scheduler: str,
    backend: str,
    fct: Optional[FlowStats],
    result,
) -> FctRow:
    """Build a row from a run result and its ``FlowStats``.

    ``result`` is either backend's result object -- only the common
    ``mean_delay``/``throughput`` attributes are read.  A run with no
    completed flows (or no flow tracking) yields NaN flow metrics
    rather than raising, so partial tables still render.
    """
    nan = float("nan")
    if fct is not None and fct.count:
        flows, incomplete = fct.count, fct.incomplete
        mean_fct, p99_fct = fct.mean_fct, float(fct.p99_fct)
        mean_slow, p99_slow = fct.mean_slowdown, fct.p99_slowdown
    else:
        flows = 0
        incomplete = fct.incomplete if fct is not None else 0
        mean_fct = p99_fct = mean_slow = p99_slow = nan
    return FctRow(
        scenario=scenario,
        scheduler=scheduler,
        backend=backend,
        flows=flows,
        incomplete=incomplete,
        mean_fct=mean_fct,
        p99_fct=p99_fct,
        mean_slowdown=mean_slow,
        p99_slowdown=p99_slow,
        mean_delay=float(result.mean_delay),
        throughput=float(result.throughput),
    )


def format_fct_table(rows: Sequence[FctRow]) -> str:
    """Render FCT rows as a fixed-width text table."""
    header = (
        f"{'scenario':<19}{'scheduler':<11}{'backend':<10}{'flows':>6}"
        f"{'inc':>5}{'fct':>8}{'p99':>7}{'slow':>7}{'p99':>7}"
        f"{'delay':>8}{'thru':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scenario:<19}{row.scheduler:<11}{row.backend:<10}"
            f"{row.flows:>6d}{row.incomplete:>5d}{row.mean_fct:>8.2f}"
            f"{row.p99_fct:>7.0f}{row.mean_slowdown:>7.2f}"
            f"{row.p99_slowdown:>7.2f}{row.mean_delay:>8.2f}"
            f"{row.throughput:>7.3f}"
        )
    return "\n".join(lines)
