"""Composable per-slot invariant checkers.

Two attachment points, matching how the simulators already expose
state:

- :class:`InvariantSink` plugs into the existing :mod:`repro.obs`
  probe hook as a trace sink and checks *stream* invariants slot by
  slot: backlog continuity (``backlog' == backlog + arrivals -
  transfers`` for speedup-1 switches, pooled over replicas on the fast
  path), non-negative per-cell delays, and non-negative VOQ snapshot
  occupancies.  Violations raise immediately with the offending slot.

- :class:`CheckingScheduler` wraps any
  :class:`repro.switch.switch.MatchScheduler` and checks *matching*
  invariants on every slot: the matching only uses requested (input,
  output) pairs, no input or output appears twice, and -- where the
  algorithm guarantees it -- the matching is maximal (PIM run to
  convergence, iSLIP/RRM with >= N iterations, wavefront, maximum,
  LQF; statistical matching guarantees nothing).

End-of-run accounting is covered by :func:`check_conservation`, which
understands both backends' result types: with ``warmup == 0`` a
lossless switch must satisfy ``offered == carried + backlog`` exactly,
per replica and pooled.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.matching import Matching, is_maximal

__all__ = [
    "CheckingScheduler",
    "InvariantSink",
    "InvariantViolation",
    "check_conservation",
]


class InvariantViolation(AssertionError):
    """An invariant failed; the message carries the slot and details."""

    def __init__(self, invariant: str, detail: str, slot: Optional[int] = None):
        self.invariant = invariant
        self.slot = slot
        where = f" at slot {slot}" if slot is not None else ""
        super().__init__(f"invariant '{invariant}' violated{where}: {detail}")


class InvariantSink:
    """A trace sink that checks the event stream instead of storing it.

    Attach as ``Probe(InvariantSink())`` to either backend.  Checks:

    - **backlog continuity**: each ``SlotBegin.backlog`` (pre-arrival)
      must equal the previous slot's backlog + arrivals - transfers.
      Valid for speedup-1 switches; the fast path pools arrivals and
      transfers over its B replicas, and the identity still holds on
      the pooled sums.
    - **delay non-negativity**: every ``CellDeparture.delay >= 0``.
    - **VOQ non-negativity**: every ``VoqSnapshot`` occupancy >= 0.

    An optional ``forward`` sink receives every event unchanged, so
    checking composes with recording.
    """

    def __init__(self, forward=None):
        self.forward = forward
        self.slots_checked = 0
        self._prev_backlog: Optional[int] = None
        self._prev_arrivals = 0
        self._prev_transfers = 0
        self._transfer_seen = False

    def write(self, event) -> None:
        kind = event.kind
        if kind == "slot_begin":
            if self._prev_backlog is not None and self._transfer_seen:
                expected = self._prev_backlog + self._prev_arrivals - self._prev_transfers
                if event.backlog != expected:
                    raise InvariantViolation(
                        "backlog-continuity",
                        f"backlog {event.backlog} != {self._prev_backlog} "
                        f"+ {self._prev_arrivals} arrivals - "
                        f"{self._prev_transfers} transfers",
                        slot=event.slot,
                    )
            if event.arrivals < 0 or event.backlog < 0:
                raise InvariantViolation(
                    "non-negative-counts",
                    f"arrivals={event.arrivals} backlog={event.backlog}",
                    slot=event.slot,
                )
            self._prev_backlog = event.backlog
            self._prev_arrivals = event.arrivals
            self._prev_transfers = 0
            self._transfer_seen = False
            self.slots_checked += 1
        elif kind == "crossbar_transfer":
            self._prev_transfers += event.cells
            self._transfer_seen = True
        elif kind == "cell_departure":
            if event.delay < 0:
                raise InvariantViolation(
                    "non-negative-delay", f"delay={event.delay}", slot=event.slot
                )
        elif kind == "voq_snapshot":
            occupancy = np.asarray(event.occupancy)
            if (occupancy < 0).any():
                raise InvariantViolation(
                    "voq-non-negative",
                    f"min occupancy {int(occupancy.min())}",
                    slot=event.slot,
                )
        if self.forward is not None:
            self.forward.write(event)

    def close(self) -> None:
        if self.forward is not None:
            self.forward.close()


def _maximality_guaranteed(scheduler, ports: int) -> bool:
    """Whether ``scheduler`` promises a maximal matching every slot.

    - wavefront / maximum / LQF: always (by construction);
    - PIM: when run to convergence (``iterations is None``) -- the
      bounded-iteration case is handled per slot via the scheduler's
      ``completed`` flag instead;
    - iSLIP / RRM: with at least N iterations or run to convergence
      (each round matches at least one pair of any remaining
      augmentable request);
    - statistical matching: never (reserved slots can go idle).
    """
    name = getattr(scheduler, "name", "")
    if name in ("wavefront", "maximum", "lqf"):
        return True
    if name == "pim":
        return getattr(scheduler, "iterations", 0) is None
    if name in ("islip", "rrm"):
        iterations = getattr(scheduler, "iterations", 0)
        return iterations is None or iterations >= ports
    return False


class CheckingScheduler:
    """Wraps a scheduler; validates every matching it returns.

    Checks, per slot:

    - every matched pair was requested;
    - validity (no duplicated input or output) -- enforced by
      re-deriving the pair set against the :class:`Matching` API;
    - maximality, when the wrapped algorithm guarantees it (see
      :func:`_maximality_guaranteed`); for bounded-iteration PIM the
      per-slot ``last_result.completed`` claim is honoured: a slot
      that *claims* convergence must actually be maximal.

    The wrapper is transparent: ``needs_occupancy`` schedulers keep
    their two-argument call form, ``reset``/``attach_probe`` forward,
    and ``last_result`` remains reachable through the inner scheduler.
    """

    def __init__(self, inner):
        self.inner = inner
        self.needs_occupancy = getattr(inner, "needs_occupancy", False)
        self.name = f"checked-{getattr(inner, 'name', type(inner).__name__)}"
        self.slots_checked = 0

    def schedule(self, requests: np.ndarray, occupancy=None) -> Matching:
        if self.needs_occupancy:
            matching = self.inner.schedule(requests, occupancy)
        else:
            matching = self.inner.schedule(requests)
        self._validate(requests, matching)
        self.slots_checked += 1
        return matching

    def _validate(self, requests: np.ndarray, matching: Matching) -> None:
        n = requests.shape[0]
        inputs_seen = set()
        outputs_seen = set()
        for i, j in matching:
            if not (0 <= i < n and 0 <= j < n):
                raise InvariantViolation(
                    "match-in-range", f"pair ({i}, {j}) outside {n}x{n}"
                )
            if i in inputs_seen:
                raise InvariantViolation("match-validity", f"input {i} matched twice")
            if j in outputs_seen:
                raise InvariantViolation("match-validity", f"output {j} matched twice")
            inputs_seen.add(i)
            outputs_seen.add(j)
            if not requests[i, j]:
                raise InvariantViolation(
                    "match-requested", f"pair ({i}, {j}) was never requested"
                )
        guaranteed = _maximality_guaranteed(self.inner, n)
        if not guaranteed and getattr(self.inner, "name", "") == "pim":
            last = getattr(self.inner, "last_result", None)
            # A PIM slot that claims convergence must be maximal: the
            # `completed` flag is itself part of the contract.
            guaranteed = last is not None and last.completed
        if guaranteed and not is_maximal(matching, requests):
            raise InvariantViolation(
                "maximality",
                f"{getattr(self.inner, 'name', '?')} returned a non-maximal "
                f"matching of size {len(matching)}",
            )

    def reset(self) -> None:
        self.inner.reset()

    def attach_probe(self, probe) -> None:
        if hasattr(self.inner, "attach_probe"):
            self.inner.attach_probe(probe)

    def __repr__(self) -> str:
        return f"CheckingScheduler({self.inner!r})"


def check_conservation(result, label: str = "") -> None:
    """End-of-run cell conservation, per port and globally.

    For ``warmup == 0`` runs of either backend: every offered cell is
    either carried or still buffered (``offered == carried +
    backlog``), and the per-port counters sum to the global ones.
    Raises :class:`InvariantViolation` on any mismatch.  Results from
    warmup-truncated runs are rejected -- the identity only holds when
    nothing was discarded.
    """
    prefix = f"{label}: " if label else ""
    if hasattr(result, "counter"):  # object backend SwitchResult
        if result.counter.warmup != 0:
            raise ValueError("conservation requires a warmup == 0 run")
        offered = result.counter.offered
        carried = result.counter.carried
        backlog = result.backlog
        by_input = sum(result.arrivals_by_input)
        by_output = sum(result.departures_by_output)
    else:  # FastpathResult
        if result.warmup != 0:
            raise ValueError("conservation requires a warmup == 0 run")
        offered = int(result.offered_cells.sum())
        carried = int(result.carried_cells.sum())
        backlog = int(result.final_backlog.sum())
        by_input = int(result.arrivals_by_input.sum())
        by_output = int(result.departures_by_output.sum())
        per_replica = result.offered_cells - result.carried_cells - result.final_backlog
        if (per_replica != 0).any():
            bad = int(np.nonzero(per_replica)[0][0])
            raise InvariantViolation(
                "conservation-per-replica",
                f"{prefix}replica {bad}: offered {int(result.offered_cells[bad])} "
                f"!= carried {int(result.carried_cells[bad])} + backlog "
                f"{int(result.final_backlog[bad])}",
            )
    if offered != carried + backlog:
        raise InvariantViolation(
            "conservation",
            f"{prefix}offered {offered} != carried {carried} + backlog {backlog}",
        )
    if by_input != offered:
        raise InvariantViolation(
            "conservation-per-input",
            f"{prefix}per-input arrivals sum to {by_input}, offered {offered}",
        )
    if by_output != carried:
        raise InvariantViolation(
            "conservation-per-output",
            f"{prefix}per-output departures sum to {by_output}, carried {carried}",
        )
