"""Result records shared by the switch models.

Both the input-buffered switch models and the output-queued baseline
return a :class:`SwitchResult`, so the Figure 3/4/5 benches can sweep
algorithms uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.stats import DelayStats, FlowStats, ThroughputCounter
from repro.switch.cell import ServiceClass

__all__ = ["SwitchResult"]


@dataclass
class SwitchResult:
    """Outcome of a single-switch simulation run.

    Attributes
    ----------
    delay:
        Per-cell queueing delay statistics (post-warm-up), in slots.
    counter:
        Offered/carried cell accounting (post-warm-up).
    ports:
        Switch size N.
    slots:
        Total slots simulated (including warm-up).
    connection_cells:
        Carried cells per (input, output) connection, post-warm-up --
        feeds the Figure 8 fairness analysis.
    arrivals_by_input:
        Post-warm-up arriving cells per input port (empty tuple when
        the model does not extract per-port aggregates).
    departures_by_output:
        Post-warm-up departing cells per output port.  Together with
        ``arrivals_by_input`` these are the per-port counters the
        fast-path backend reports, so seed-for-seed parity can be
        checked port by port.
    backlog:
        Cells still buffered when the run ended; with a no-loss switch
        this plus carried equals offered over the whole run.
    dropped:
        Cells dropped (always 0 for the AN2-style switch; non-zero only
        for lossy baselines such as the k-replicated output switch with
        finite output speedup admission).
    fct:
        Per-flow completion-time statistics, populated only when the
        traffic source is flow-aware (exposes ``flow_records()``, see
        :mod:`repro.traffic.flows`); ``None`` for cell-level sources.
    delay_by_service:
        ``delay`` split by the cells' :class:`repro.switch.cell.ServiceClass`.
    """

    delay: DelayStats
    counter: ThroughputCounter
    ports: int
    slots: int
    connection_cells: Dict[Tuple[int, int], int] = field(default_factory=dict)
    backlog: int = 0
    dropped: int = 0
    arrivals_by_input: Tuple[int, ...] = ()
    departures_by_output: Tuple[int, ...] = ()
    fct: Optional[FlowStats] = None
    delay_by_service: Dict[ServiceClass, DelayStats] = field(default_factory=dict)

    @property
    def mean_delay(self) -> float:
        """Mean queueing delay in cell slots."""
        return self.delay.mean

    @property
    def throughput(self) -> float:
        """Carried cells per slot per port (per-link utilization)."""
        return self.counter.carried_per_slot(self.ports)

    @property
    def offered(self) -> float:
        """Offered cells per slot per port."""
        return self.counter.offered_per_slot(self.ports)

    @property
    def aggregate_throughput(self) -> float:
        """Carried cells per slot across the whole switch."""
        return self.counter.carried_per_slot(1)

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.ports}x{self.ports} switch, {self.slots} slots: "
            f"offered {self.offered:.3f}, carried {self.throughput:.3f} per link, "
            f"mean delay {self.mean_delay:.2f} slots, backlog {self.backlog}"
        )
        if self.fct is not None:
            text += f"; {self.fct.summary()}"
        return text
