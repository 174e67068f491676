"""Multicast flows -- the feature the paper supports but defers.

Section 2: "Our network also supports multicast flows, but we will not
discuss that here."  This module supplies the natural AN2-style
implementation so the library covers the advertised feature:

- a crossbar can *replicate*: one input line can drive any set of
  output lines in the same slot, so a multicast cell costs one input
  slot regardless of how many outputs it reaches;
- scheduling generalizes PIM with **fanout splitting**: each slot the
  head multicast cell of an input requests every output remaining in
  its fanout set; outputs grant independently at random (exactly the
  unicast grant phase); the input accepts *all* grants, since they all
  serve the same cell.  Outputs served are removed from the residual
  fanout; the cell departs once the set is empty.  A cell partially
  served keeps its input's head position, preserving flow order.

The multicast bench compares fanout splitting against the strawman of
copying a cell into k unicast VOQs (which costs k input slots).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.batch import replay_generator, resolve_generator
from repro.sim.stats import DelayStats, ThroughputCounter
from repro.switch.switch import reset_traffic

__all__ = ["MulticastCell", "MulticastPIMScheduler", "MulticastSwitch"]

_mc_ids = itertools.count()


@dataclass
class MulticastCell:
    """A cell addressed to a set of outputs.

    ``residual`` starts equal to ``fanout`` and shrinks as copies are
    delivered; the cell departs when it empties.
    """

    flow_id: int
    fanout: FrozenSet[int]
    seqno: int = 0
    arrival_slot: int = 0
    residual: Set[int] = field(default_factory=set)
    uid: int = field(default_factory=lambda: next(_mc_ids))

    def __post_init__(self) -> None:
        if not self.fanout:
            raise ValueError("multicast cell needs at least one output")
        if not self.residual:
            self.residual = set(self.fanout)


class MulticastPIMScheduler:
    """Fanout-splitting PIM over head multicast cells.

    Per iteration: every input whose head cell still has unserved,
    unmatched outputs requests them all; each unmatched output grants
    one requesting input uniformly at random; every grant is accepted
    (all grants to an input serve its single head cell).  Iterating
    fills in outputs exactly as unicast PIM fills in pairs.
    """

    def __init__(self, iterations: int = 4, seed: Optional[int] = None):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        # Deterministic seed=None fallback (repro.sim.rng default-seed
        # policy); the token lets reset() rewind the stream.
        self._rng, self._rng_token = resolve_generator(seed, None, "multicast_pim")

    def schedule(self, heads: Sequence[Optional[Set[int]]], ports: int) -> List[Set[int]]:
        """Choose the output set each input transmits to this slot.

        ``heads[i]`` is input i's head cell's residual fanout (None
        when the input is empty).  Returns a per-input set of granted
        outputs; sets are disjoint across inputs.
        """
        granted: List[Set[int]] = [set() for _ in heads]
        output_taken = [False] * ports
        for _ in range(self.iterations):
            requests: Dict[int, List[int]] = {}
            for i, fanout in enumerate(heads):
                if fanout is None:
                    continue
                for j in fanout:
                    if not output_taken[j] and j not in granted[i]:
                        requests.setdefault(j, []).append(i)
            if not requests:
                break
            for j, requesters in requests.items():
                winner = int(self._rng.choice(requesters))
                granted[winner].add(j)
                output_taken[j] = True
        return granted

    def reset(self) -> None:
        """Rewind the grant stream to its as-constructed state."""
        self._rng = replay_generator(self._rng, self._rng_token)


class MulticastSwitch:
    """Input-buffered crossbar switch carrying multicast cells.

    One FIFO of multicast cells per input (the classic fanout-splitting
    discipline: the head cell holds its position until fully served).
    """

    def __init__(self, ports: int, scheduler: Optional[MulticastPIMScheduler] = None):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        self.ports = ports
        self.scheduler = scheduler if scheduler is not None else MulticastPIMScheduler(seed=0)
        self.reset()

    def reset(self) -> None:
        """Empty the input queues, zero the copy count, rewind the scheduler."""
        self.scheduler.reset()
        self.queues: List[Deque[MulticastCell]] = [deque() for _ in range(self.ports)]
        self.copies_delivered = 0

    def step(self, slot: int, arrivals: Sequence[Tuple[int, MulticastCell]]) -> List[MulticastCell]:
        """Advance one slot; returns cells that *completed* this slot."""
        for input_port, cell in arrivals:
            if not 0 <= input_port < self.ports:
                raise ValueError(f"arrival at invalid input {input_port}")
            for j in cell.fanout:
                if not 0 <= j < self.ports:
                    raise ValueError(f"fanout output {j} out of range")
            cell.arrival_slot = slot
            self.queues[input_port].append(cell)

        heads = [
            set(queue[0].residual) if queue else None for queue in self.queues
        ]
        granted = self.scheduler.schedule(heads, self.ports)
        completed: List[MulticastCell] = []
        seen_outputs: Set[int] = set()
        for i, outputs in enumerate(granted):
            if not outputs:
                continue
            if seen_outputs & outputs:
                raise AssertionError("two inputs granted the same output")
            seen_outputs |= outputs
            cell = self.queues[i][0]
            cell.residual -= outputs
            self.copies_delivered += len(outputs)
            if not cell.residual:
                completed.append(self.queues[i].popleft())
        return completed

    def backlog(self) -> int:
        """Multicast cells still buffered (partially served included)."""
        return sum(len(q) for q in self.queues)

    def run(self, traffic, slots: int, warmup: int = 0):
        """Simulate with a multicast traffic source.

        ``traffic`` needs ``ports`` and ``arrivals(slot)`` returning
        (input, MulticastCell) pairs.  Delay is measured to the cell's
        *completion* (last copy delivered).  Each run starts from
        :meth:`reset` and a rewound source, so a rerun replays the first.
        """
        if traffic.ports != self.ports:
            raise ValueError("traffic/switch port mismatch")
        self.reset()
        reset_traffic(traffic)
        delay = DelayStats(warmup=warmup)
        counter = ThroughputCounter(warmup=warmup)
        for slot in range(slots):
            arrivals = traffic.arrivals(slot)
            counter.record_arrival(slot, len(arrivals))
            done = self.step(slot, arrivals)
            counter.record_departure(slot, len(done))
            for cell in done:
                delay.record(cell.arrival_slot, slot)
        return delay, counter
