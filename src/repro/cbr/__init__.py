"""Real-time (CBR) performance guarantees -- Section 4 and Appendix B.

Bandwidth allocations are made in *frames* of a fixed number of cell
slots.  A CBR reservation of k cells per frame is installed by giving
the flow k slots in each switch's frame schedule; the Slepian-Duguid
theorem guarantees a feasible schedule exists whenever no link is
over-committed, and the two-slot swap algorithm installs a new
reservation without disturbing the guarantees of existing ones.

Modules:

- :mod:`repro.cbr.frame` -- the per-switch frame schedule,
- :mod:`repro.cbr.slepian_duguid` -- reservation insertion/removal via
  the alternating-slot swap algorithm,
- :mod:`repro.cbr.reservations` -- flow-level reservation table and
  admission test,
- :mod:`repro.cbr.clock` -- unsynchronized-clock model and the
  Appendix B latency and buffer bounds,
- :mod:`repro.cbr.integrated` -- the combined CBR + VBR switch, where
  PIM fills slots the frame schedule leaves idle.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "FrameSchedule": "frame",
    "SlepianDuguidScheduler": "slepian_duguid",
    "ReservationTable": "reservations",
    "ClockModel": "clock",
    "cbr_latency_bound": "clock",
    "cbr_buffer_bound": "clock",
    "controller_frame_slots": "clock",
    "simulate_cbr_chain": "clock",
    "IntegratedSwitch": "integrated",
})
