"""The scheduler registry threaded through all three fast paths.

``run_fastpath``/``run_fastpath_cbr``/``run_fastpath_network`` take a
``scheduler=`` registry name; every kernel must conserve cells on every
backend and pass the *slot-exact* backend parity check (seed-matched
object twins produce bit-identical matched-cell series --
``check.differential`` raises on the first divergent slot).
"""

import numpy as np
import pytest

from repro.cbr.reservations import ReservationTable
from repro.check.differential import backend_parity
from repro.core.batch import BATCH_SCHEDULERS
from repro.network.netsim import FlowSpec
from repro.network.topologies import parking_lot
from repro.sim.fastpath import run_fastpath
from repro.sim.fastpath_cbr import run_fastpath_cbr
from repro.sim.fastpath_network import run_fastpath_network
from repro.switch.cell import ServiceClass
from repro.switch.flow import Flow

# Kernels checked at iterations=2 below; PIM runs at its AN2 budget in
# test_pim_totals_parity.
SLOT_EXACT = ("islip", "lqf", "wavefront", "qps")


class TestRunFastpath:
    @pytest.mark.parametrize("scheduler", BATCH_SCHEDULERS)
    def test_conservation_across_replicas(self, scheduler):
        result = run_fastpath(
            8, 0.7, 300, replicas=3, iterations=2,
            scheduler=scheduler, seed=5,
        )
        total = result.carried_cells + result.final_backlog
        assert (result.offered_cells == total).all()
        assert result.throughput > 0.5

    @pytest.mark.parametrize("scheduler", BATCH_SCHEDULERS)
    def test_checked_run(self, scheduler):
        """check=True validates every per-replica matching per slot."""
        run_fastpath(
            4, 0.8, 120, replicas=2, iterations=2,
            scheduler=scheduler, seed=1, check=True,
        )

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_fastpath(4, 0.5, 10, scheduler="bogus")


class TestSlotExactParity:
    @pytest.mark.parametrize(
        "scheduler, ports, output_capacity",
        [pytest.param(name, 6, 1, id=name) for name in SLOT_EXACT]
        # The k-grant speedup (a replicated banyan, so N is a power of
        # two, delivering two cells per output per slot): every object
        # twin must take its kernel's k too.
        + [pytest.param(name, 8, 2, id=f"{name}-cap2") for name in BATCH_SCHEDULERS],
    )
    def test_backend_parity(self, scheduler, ports, output_capacity):
        """Raises InvariantViolation on the first divergent slot."""
        report = backend_parity(ports, 0.6, 200, seed=3, iterations=2,
                                scheduler=scheduler,
                                output_capacity=output_capacity)
        assert report.ok

    def test_pim_totals_parity(self):
        """PIM-4 on the same oracle: matched cells equal on every slot."""
        assert backend_parity(6, 0.6, 200, seed=3, scheduler="pim").ok


class TestCbrFastpath:
    @pytest.mark.parametrize("scheduler", BATCH_SCHEDULERS)
    def test_vbr_rides_reserved_frame(self, scheduler):
        table = ReservationTable(4, 10)
        table.admit(Flow(flow_id=1, src=0, dst=1,
                         service=ServiceClass.CBR, cells_per_frame=3))
        table.admit(Flow(flow_id=2, src=2, dst=3,
                         service=ServiceClass.CBR, cells_per_frame=2))
        result = run_fastpath_cbr(
            table, 0.5, 400, replicas=2, warmup=50,
            scheduler=scheduler, seed=4,
        )
        # CBR cells ride their reservations regardless of the VBR
        # matching kernel; VBR traffic still moves.
        assert result.carried_cbr.sum() > 0
        assert result.carried_vbr.sum() > 0


class TestNetworkFastpath:
    @pytest.mark.parametrize("scheduler", BATCH_SCHEDULERS)
    def test_parking_lot_delivers(self, scheduler):
        topo, sources, sink = parking_lot(3)
        flows = [
            FlowSpec(k + 1, src, sink, 0.5) for k, src in enumerate(sources)
        ]
        result = run_fastpath_network(
            topo, flows, 400, replicas=2, warmup=50,
            scheduler=scheduler, seed=2,
        )
        assert result.delivered.sum() > 0
