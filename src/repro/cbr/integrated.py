"""The integrated CBR + VBR switch (Section 4).

"CBR cells are routed across the switch during scheduled slots.  In
addition, VBR cells can use an allocated slot if no cell from the
scheduled flow is present at the switch."

Per slot:

1. Look up the frame schedule's pairings for the slot's position in the
   frame.  For each reserved (input, output) pair with a queued CBR
   cell, that pairing is taken by CBR.
2. All remaining inputs and outputs -- including those whose reserved
   flow had nothing queued -- are handed to PIM over the VBR request
   matrix, which "fills in the gaps".

CBR and VBR cells use separate buffer pools ("VBR cells use a different
set of buffers, which are subject to flow control"); CBR buffers are
statically sized by the Appendix B bound, and the model *enforces* the
bound: per-input CBR occupancy is checked against
``cbr_buffer_bound`` every slot and an overflow raises
:class:`CBRBufferOverflow`.  The default ``"auto"`` bound is the
drift-free single-switch instance of the Appendix B argument: a
conforming flow emits at most its reservation per frame and its
reserved slots drain the same amount per frame, so at most two frames'
worth of an input's reserved cells -- ``2 x input_committed(i)`` --
can ever be queued at input i.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cbr.reservations import ReservationTable
from repro.core.pim import PIMScheduler
from repro.switch.buffers import VOQBuffer
from repro.switch.cell import Cell, ServiceClass
from repro.switch.fabric import CrossbarFabric, Fabric
from repro.switch.results import SwitchResult
from repro.switch.switch import SlotSwitch

__all__ = [
    "IntegratedSwitch",
    "IntegratedResult",
    "CBRBufferOverflow",
    "derive_cbr_buffer_bound",
]

#: Bound spec: "auto" (derive from the reservation table), a scalar
#: applied to every input, an explicit per-input vector, or None
#: (enforcement off).
BoundSpec = Union[str, int, Sequence[int], None]


class CBRBufferOverflow(RuntimeError):
    """A CBR input buffer exceeded its Appendix B static sizing."""

    def __init__(self, slot: int, input_port: int, occupancy: int, bound: int,
                 replica: int = 0):
        self.slot = slot
        self.input_port = input_port
        self.occupancy = occupancy
        self.bound = bound
        self.replica = replica
        super().__init__(
            f"CBR buffer overflow at slot {slot}, input {input_port} "
            f"(replica {replica}): {occupancy} cells > bound {bound}"
        )


def derive_cbr_buffer_bound(reserved_matrix: np.ndarray) -> np.ndarray:
    """Per-input CBR buffer bound from a reservation matrix.

    The drift-free single-switch Appendix B bound: input i never
    buffers more than two frames' worth of its reserved cells, i.e.
    ``2 * sum_j reservations[i, j]``.  (The paper's Formula 5 adds
    clock-drift terms for multi-hop chains; see
    :func:`repro.cbr.clock.cbr_buffer_bound`.)
    """
    matrix = np.asarray(reserved_matrix, dtype=np.int64)
    return 2 * matrix.sum(axis=1)


def resolve_cbr_buffer_bound(
    spec: BoundSpec, reserved_matrix: np.ndarray
) -> Optional[np.ndarray]:
    """Normalize a :data:`BoundSpec` into a per-input int vector (or None)."""
    ports = np.asarray(reserved_matrix).shape[0]
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec != "auto":
            raise ValueError(f"unknown cbr_buffer_bound spec {spec!r}")
        return derive_cbr_buffer_bound(reserved_matrix)
    if np.isscalar(spec):
        if int(spec) < 0:
            raise ValueError(f"cbr_buffer_bound must be >= 0, got {spec}")
        return np.full(ports, int(spec), dtype=np.int64)
    vector = np.asarray(spec, dtype=np.int64)
    if vector.shape != (ports,):
        raise ValueError(
            f"cbr_buffer_bound vector must have shape ({ports},), got {vector.shape}"
        )
    if (vector < 0).any():
        raise ValueError("cbr_buffer_bound entries must be >= 0")
    return vector


class IntegratedResult(SwitchResult):
    """SwitchResult plus separate CBR and VBR delay statistics."""

    def __init__(self, base: SwitchResult, cbr_slots_used: int,
                 cbr_slots_donated: int, peak_cbr_buffer: int,
                 cbr_buffer_bound: Optional[Tuple[int, ...]] = None):
        super().__init__(**vars(base))
        #: Delay statistics for CBR cells only.
        self.cbr_delay = base.delay_by_service[ServiceClass.CBR]
        #: Delay statistics for VBR cells only.
        self.vbr_delay = base.delay_by_service[ServiceClass.VBR]
        #: Reserved slots actually used by CBR cells.
        self.cbr_slots_used = cbr_slots_used
        #: Reserved slots donated to VBR because the CBR flow was idle.
        self.cbr_slots_donated = cbr_slots_donated
        #: Largest CBR buffer occupancy seen at any input.
        self.peak_cbr_buffer = peak_cbr_buffer
        #: Per-input Appendix B bound enforced during the run (None when
        #: enforcement was disabled).  ``peak_cbr_buffer`` never exceeds
        #: ``max(cbr_buffer_bound)`` on a completed run.
        self.cbr_buffer_bound = cbr_buffer_bound


class IntegratedSwitch(SlotSwitch):
    """Input-buffered switch carrying pre-scheduled CBR plus PIM'd VBR.

    Parameters
    ----------
    reservations:
        The switch's :class:`repro.cbr.reservations.ReservationTable`
        (frame schedule included).
    scheduler:
        PIM scheduler for the VBR gap fill; defaults to 4-iteration PIM.
    fabric:
        Non-blocking fabric; defaults to a crossbar.
    cbr_buffer_bound:
        Appendix B static CBR buffer sizing, enforced per input every
        slot; an overflow raises :class:`CBRBufferOverflow`.  ``"auto"``
        (default) derives ``2 x input_committed(i)`` from the
        reservation table at every :meth:`reset`; a scalar applies to
        every input, a length-N vector is used as-is, ``None`` disables
        enforcement.
    """

    def __init__(
        self,
        reservations: ReservationTable,
        scheduler: Optional[PIMScheduler] = None,
        fabric: Optional[Fabric] = None,
        cbr_buffer_bound: BoundSpec = "auto",
    ):
        self.reservations = reservations
        self.ports = reservations.ports
        self.frame_slots = reservations.frame_slots
        self.scheduler = scheduler if scheduler is not None else PIMScheduler(seed=0)
        self.fabric = fabric if fabric is not None else CrossbarFabric(self.ports)
        if self.fabric.ports != self.ports:
            raise ValueError("fabric size does not match switch size")
        self.cbr_buffer_bound = cbr_buffer_bound
        self.reset()

    def reset(self) -> None:
        """Empty both buffer pools, zero the counters, rewind the scheduler.

        :meth:`run` starts here, so repeated runs on one switch replay
        the same trajectory instead of accumulating the previous run's
        counters and leftover backlog.  The ``"auto"`` CBR bound is
        derived from the reservation table as it stands now.
        """
        self.scheduler.reset()
        self._bound = resolve_cbr_buffer_bound(
            self.cbr_buffer_bound, self.reservations.reserved_matrix()
        )
        self.cbr_buffers = [VOQBuffer(self.ports) for _ in range(self.ports)]
        self.vbr_buffers = [VOQBuffer(self.ports) for _ in range(self.ports)]
        self.cbr_slots_used = 0
        self.cbr_slots_donated = 0
        self.peak_cbr_buffer = 0

    def _vbr_requests(self) -> np.ndarray:
        matrix = np.zeros((self.ports, self.ports), dtype=bool)
        for i, buffer in enumerate(self.vbr_buffers):
            matrix[i] = buffer.request_vector()
        return matrix

    def occupancy_matrix(self) -> np.ndarray:
        """Queued-cell counts per (input, output), CBR plus VBR."""
        matrix = np.zeros((self.ports, self.ports), dtype=np.int64)
        for pool in (self.cbr_buffers, self.vbr_buffers):
            for i, buffer in enumerate(pool):
                for j in range(self.ports):
                    matrix[i, j] += buffer.occupancy_for(j)
        return matrix

    def step(self, slot: int, arrivals: Sequence[Tuple[int, Cell]], probe=None) -> List[Cell]:
        """Advance one slot; returns departed cells (CBR and VBR)."""
        for input_port, cell in arrivals:
            cell.arrival_slot = slot
            pool = self.cbr_buffers if cell.service is ServiceClass.CBR else self.vbr_buffers
            pool[input_port].enqueue(cell)
        occupancies = [len(b) for b in self.cbr_buffers]
        self.peak_cbr_buffer = max(self.peak_cbr_buffer, max(occupancies))
        bound = self._bound
        if bound is not None:
            for i, occupancy in enumerate(occupancies):
                if occupancy > bound[i]:
                    raise CBRBufferOverflow(slot, i, occupancy, int(bound[i]))

        # Phase 1: reserved pairings for this slot position in the frame.
        position = slot % self.frame_slots
        selected: List[Tuple[int, Cell]] = []
        taken_inputs = set()
        taken_outputs = set()
        pairings = self.reservations.pairings(position)
        for i, j in pairings:
            if self.cbr_buffers[i].has_cell_for(j):
                selected.append((i, self.cbr_buffers[i].dequeue(j)))
                taken_inputs.add(i)
                taken_outputs.add(j)
                self.cbr_slots_used += 1
            else:
                # Idle reservation: the slot is donated to VBR traffic.
                self.cbr_slots_donated += 1
        cbr_cells = len(selected)

        # Phase 2: PIM fills every remaining input/output with VBR cells.
        requests = self._vbr_requests()
        for i in taken_inputs:
            requests[i, :] = False
        for j in taken_outputs:
            requests[:, j] = False
        matching = self.scheduler.schedule(requests)
        for i, j in matching:
            selected.append((i, self.vbr_buffers[i].dequeue(j)))

        delivered = self.fabric.transfer(selected)
        if probe is not None:
            probe.transfer(len(selected))
            probe.cbr_slot(
                position=position,
                reserved=len(pairings),
                cbr_cells=cbr_cells,
                vbr_cells=len(selected) - cbr_cells,
                donated=len(pairings) - cbr_cells,
                cbr_backlog=sum(len(b) for b in self.cbr_buffers),
                vbr_backlog=sum(len(b) for b in self.vbr_buffers),
            )
        return [cells[0] for cells in delivered.values()]

    def backlog(self) -> int:
        """Cells buffered in both pools."""
        return sum(len(b) for b in self.cbr_buffers) + sum(len(b) for b in self.vbr_buffers)

    def run(self, traffic, slots: int, warmup: int = 0, probe=None,
            phase_timer=None) -> IntegratedResult:
        """Simulate; returns combined plus per-class statistics.

        ``traffic`` may be a single source or a sequence of sources
        (e.g. a :class:`repro.traffic.cbr_source.CBRSource` plus a VBR
        background); all must agree on ``ports``.  The slot loop is
        :meth:`repro.switch.switch.SlotSwitch.run`.  When a
        :class:`repro.obs.probe.Probe` is supplied, every slot also
        emits a ``CbrSlot`` event (the reserved/used/donated anatomy
        plus per-pool backlog).
        """
        base = super().run(traffic, slots, warmup, probe=probe, phase_timer=phase_timer)
        return IntegratedResult(
            base,
            self.cbr_slots_used,
            self.cbr_slots_donated,
            self.peak_cbr_buffer,
            cbr_buffer_bound=(
                tuple(int(b) for b in self._bound) if self._bound is not None else None
            ),
        )
