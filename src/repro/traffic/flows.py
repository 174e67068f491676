"""Flow-level traffic: sizes, arrival processes, demand matrices.

The paper's workloads (and everything in this repo before this module)
are *slot-level*: each slot independently flips a coin per input.  Real
LAN/datacenter load is *flow-level* -- a flow is a burst of ``size``
cells from one input to one output, sizes are heavy-tailed, arrivals
cluster (ON/OFF), and the demand matrix is rarely uniform (incast
fan-in, hotspots, skewed popularity).  This is exactly the regime where
queue-proportional schedulers separate from PIM/iSLIP and where
fairness under contention matters.

:class:`FlowTraffic` composes three orthogonal pieces into the existing
``arrivals(slot)`` protocol:

- a **size distribution** (:class:`SizeDist`): deterministic, bounded
  Pareto (heavy-tailed), or empirical (e.g. a websearch-style mix),
- an **arrival process**: Poisson flow starts, or Markov-modulated
  ON/OFF bursts of flow starts,
- a **demand matrix**: uniform, permutation (optionally re-drawn every
  ``churn_every`` slots), hotspot, incast fan-in groups, or
  Zipf-skewed output popularity.

Cells are injected at line rate -- at most one cell per input per slot,
round-robin among that input's active flows -- so the cell stream is
always admissible at the inputs and composes with every backend
(object switch, fast path, trace record/replay).  Per-flow bookkeeping
(:meth:`FlowTraffic.flow_records`) lets the switches report flow
completion times (:class:`repro.sim.stats.FlowStats`).

Sources must be driven through consecutive slots from 0 (all run loops
do), by ``arrivals(slot)`` calls -- ``Cell`` objects, what the object
switch consumes -- or by ``arrivals_batch(slot0, slots)`` -- the same
cells as flat int arrays, what the fast path compiles -- in any mix;
:meth:`FlowTraffic.reset` rewinds to slot 0 under the rerun contract.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.switch.cell import Cell, ServiceClass

__all__ = [
    "SizeDist",
    "FlowRecord",
    "FlowTraffic",
    "WindowedSource",
    "arrivals_batch",
]

_PROCESSES = ("poisson", "onoff")
_MATRICES = ("uniform", "permutation", "hotspot", "incast", "skewed")

#: ``FlowTraffic.arrivals_batch`` draws the Poisson group counts of up
#: to ``_LOOKAHEAD_SLOTS`` coming slots in one call when flow starts
#: are sparse enough to pay for the replay: below one group per 16
#: slots a quiet run outlasts the two sized draws and the bit-generator
#: save/restore that replace its scalar draws.
_LOOKAHEAD_SLOTS = 64
_LOOKAHEAD_MAX_RATE = 1.0 / 16.0

BatchArrivals = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _flat_arrivals(rows: List[int]) -> BatchArrivals:
    """Split ``[slot, input, output, flow_id, slot, ...]`` into columns."""
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def arrivals_batch(source, slot0: int, slots: int) -> BatchArrivals:
    """Cells of ``slots`` consecutive slots of any TrafficSource, flat.

    Returns ``(slot, input, output, flow_id)`` int64 arrays, one entry
    per cell, in the order ``slots`` consecutive ``arrivals`` calls
    would have produced them.  A source with its own ``arrivals_batch``
    (:class:`FlowTraffic`, :class:`WindowedSource`) is asked directly;
    any other source is called once per slot and flattened -- arrivals
    are open-loop, so generating them ahead of the slot loop changes
    nothing a switch can observe.
    """
    batch = getattr(source, "arrivals_batch", None)
    if batch is not None:
        return batch(slot0, slots)
    rows: List[int] = []
    for slot in range(slot0, slot0 + slots):
        for input_port, cell in source.arrivals(slot):
            rows += (slot, input_port, cell.output, cell.flow_id)
    return _flat_arrivals(rows)


class SizeDist:
    """A distribution over flow sizes in whole cells (>= 1).

    Build with one of the classmethods:

    >>> SizeDist.fixed(8).mean()
    8.0
    >>> SizeDist.empirical([1, 10], [0.5, 0.5]).mean()
    5.5
    """

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params
        if kind == "fixed":
            size = params["size"]
            if size < 1:
                raise ValueError(f"flow size must be >= 1, got {size}")
            self._mean = float(size)
        elif kind == "pareto":
            alpha = params["alpha"]
            lo, hi = params["min_size"], params["max_size"]
            if alpha <= 0:
                raise ValueError(f"alpha must be positive, got {alpha}")
            if not 1 <= lo < hi:
                raise ValueError(f"need 1 <= min_size < max_size, got {lo}, {hi}")
            # Exact mean of the discretized sampler (min(floor(x), hi)).
            ks = np.arange(lo, hi + 1, dtype=np.float64)
            upper = np.minimum(self._pareto_cdf(ks + 1.0, alpha, lo, hi), 1.0)
            probs = upper - self._pareto_cdf(ks, alpha, lo, hi)
            self._mean = float((ks * probs).sum())
        elif kind == "empirical":
            sizes = [int(s) for s in params["sizes"]]
            weights = [float(w) for w in params["weights"]]
            if len(sizes) != len(weights) or not sizes:
                raise ValueError("sizes and weights must be equal-length, non-empty")
            if any(s < 1 for s in sizes):
                raise ValueError(f"flow sizes must be >= 1, got {sizes}")
            if any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError(f"weights must be non-negative with positive sum")
            total = sum(weights)
            probs = np.array([w / total for w in weights])
            self._sizes = sizes
            self._mean = float((np.array(sizes) * probs).sum())
            # ``Generator.choice(p=)`` is one ``random()`` searched
            # (side="right") in the normalised cumulative sum; sampling
            # that way by hand consumes the identical stream without
            # the per-call validation of ``p``.
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf.tolist()
        else:
            raise ValueError(f"unknown size distribution {kind!r}")

    @staticmethod
    def _pareto_cdf(x: np.ndarray, alpha: float, lo: float, hi: float) -> np.ndarray:
        x = np.clip(x, lo, hi)
        denom = 1.0 - (lo / hi) ** alpha
        return (1.0 - (lo / x) ** alpha) / denom

    @classmethod
    def fixed(cls, size: int) -> "SizeDist":
        """Every flow is exactly ``size`` cells."""
        return cls("fixed", size=int(size))

    @classmethod
    def pareto(cls, alpha: float, min_size: int, max_size: int) -> "SizeDist":
        """Bounded Pareto on [min_size, max_size], shape ``alpha``.

        Heavy-tailed for small ``alpha`` (datacenter measurements
        cluster around 1.1-1.5): most flows are mice near ``min_size``,
        a few elephants near ``max_size`` carry most of the bytes.
        """
        return cls("pareto", alpha=float(alpha), min_size=int(min_size), max_size=int(max_size))

    @classmethod
    def empirical(cls, sizes: Sequence[int], weights: Sequence[float]) -> "SizeDist":
        """Discrete distribution over ``sizes`` with ``weights``."""
        return cls("empirical", sizes=list(sizes), weights=list(weights))

    def mean(self) -> float:
        """Expected flow size in cells (exact for the discrete sampler)."""
        return self._mean

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one flow size."""
        if self.kind == "fixed":
            return self.params["size"]
        if self.kind == "pareto":
            alpha = self.params["alpha"]
            lo, hi = self.params["min_size"], self.params["max_size"]
            ratio = 1.0 - (lo / hi) ** alpha
            u = rng.random()
            x = lo / (1.0 - u * ratio) ** (1.0 / alpha)
            return min(int(x), hi)
        return self._sizes[bisect_right(self._cdf, rng.random())]

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"SizeDist.{self.kind}({inner})"


@dataclass
class FlowRecord:
    """Immutable facts about one generated flow."""

    flow_id: int
    src: int
    dst: int
    size: int
    start_slot: int


class _ActiveFlow:
    """Mutable injection state for one in-progress flow."""

    __slots__ = ("flow_id", "dst", "remaining", "seqno")

    def __init__(self, flow_id: int, dst: int, size: int):
        self.flow_id = flow_id
        self.dst = dst
        self.remaining = size
        self.seqno = 0


class FlowTraffic:
    """Flow-level arrival process implementing the TrafficSource protocol.

    Parameters
    ----------
    ports:
        Switch size N.
    load:
        Long-run offered load per input link in cells/slot, in [0, 1).
        Flow start rate is calibrated as
        ``load * ports / (group_size * mean_flow_size)`` groups per
        slot, so the sustained cell rate matches slot-level sources.
    sizes:
        A :class:`SizeDist` (default ``SizeDist.fixed(8)``).
    process:
        ``"poisson"`` -- memoryless flow starts -- or ``"onoff"`` --
        a global Markov-modulated gate: flows start only during ON
        periods (mean ``burst_slots`` slots, duty cycle ``duty``), at a
        rate scaled by ``1/duty`` so the long-run load is preserved.
    matrix:
        Demand matrix: ``"uniform"`` (src and dst uniform),
        ``"permutation"`` (dst = pi(src), re-drawn every
        ``churn_every`` slots when nonzero), ``"hotspot"`` (dst is
        ``hot_port`` with probability ``hot_fraction``, else uniform),
        ``"incast"`` (each arrival event is a fan-in group: ``fanin``
        flows from distinct sources to one uniform destination, all
        starting the same slot), ``"skewed"`` (dst drawn from a Zipf
        law with exponent ``zipf_s``; port 0 is the most popular).
    seed:
        Arrival stream seed (default-seed policy when omitted).

    The constructor validates long-run per-output feasibility: a matrix
    whose hottest output would be offered more than 1 cell/slot can
    never drain and the run would measure an unbounded transient.
    """

    def __init__(
        self,
        ports: int,
        load: float,
        sizes: Optional[SizeDist] = None,
        process: str = "poisson",
        matrix: str = "uniform",
        burst_slots: float = 50.0,
        duty: float = 0.3,
        fanin: int = 4,
        hot_port: int = 0,
        hot_fraction: float = 0.5,
        zipf_s: float = 1.0,
        churn_every: int = 0,
        seed: Optional[int] = None,
    ):
        if ports <= 0:
            raise ValueError(f"ports must be positive, got {ports}")
        if not 0.0 <= load < 1.0:
            raise ValueError(f"load must be in [0, 1), got {load}")
        if process not in _PROCESSES:
            raise ValueError(f"process must be one of {_PROCESSES}, got {process!r}")
        if matrix not in _MATRICES:
            raise ValueError(f"matrix must be one of {_MATRICES}, got {matrix!r}")
        if burst_slots < 1.0:
            raise ValueError(f"burst_slots must be >= 1, got {burst_slots}")
        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {duty}")
        if matrix == "incast" and not 1 <= fanin < ports:
            raise ValueError(f"fanin must be in 1..{ports - 1}, got {fanin}")
        if matrix == "hotspot" and not 0 <= hot_port < ports:
            raise ValueError(f"hot_port {hot_port} outside [0, {ports})")
        if matrix == "hotspot" and not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if matrix == "skewed" and zipf_s < 0.0:
            raise ValueError(f"zipf_s must be >= 0, got {zipf_s}")
        if churn_every < 0:
            raise ValueError(f"churn_every must be >= 0, got {churn_every}")
        self.ports = ports
        self.load = load
        self.sizes = sizes if sizes is not None else SizeDist.fixed(8)
        self.process = process
        self.matrix = matrix
        self.burst_slots = burst_slots
        self.duty = duty
        self.fanin = fanin
        self.hot_port = hot_port
        self.hot_fraction = hot_fraction
        self.zipf_s = zipf_s
        self.churn_every = churn_every
        if seed is None:
            # Deterministic fallback (repro.sim.rng default-seed policy).
            from repro.sim.rng import default_seed

            seed = default_seed("traffic/flows")
        self._seed = int(seed)

        hottest = self._hottest_output_share()
        per_output = load * ports * hottest
        if per_output > 1.0 + 1e-9:
            raise ValueError(
                f"infeasible workload: the hottest output would be offered "
                f"{per_output:.3f} cells/slot (> 1) at load {load} with "
                f"matrix {matrix!r}; lower the load or flatten the matrix"
            )
        group = fanin if matrix == "incast" else 1
        self._group_rate = load * ports / (group * self.sizes.mean())
        # ON/OFF gate: geometric ON (mean burst_slots) and OFF periods
        # sized for the duty cycle; ON-rate scaled to preserve the load.
        self._p_end_on = 1.0 / burst_slots
        mean_off = burst_slots * (1.0 - duty) / duty
        self._p_end_off = 1.0 / mean_off if mean_off > 0 else 1.0
        if matrix == "skewed":
            weights = (1.0 / np.arange(1, ports + 1, dtype=np.float64)) ** zipf_s
            self._zipf_p = weights / weights.sum()
        self.reset()

    def _hottest_output_share(self) -> float:
        """Long-run fraction of all cells headed to the hottest output."""
        if self.matrix == "hotspot":
            return self.hot_fraction + (1.0 - self.hot_fraction) / self.ports
        if self.matrix == "skewed":
            weights = (1.0 / np.arange(1, self.ports + 1, dtype=np.float64)) ** self.zipf_s
            return float(weights.max() / weights.sum())
        # uniform, permutation, and incast all spread outputs uniformly.
        return 1.0 / self.ports

    def reset(self) -> None:
        """Rewind to slot 0 (rerun contract): RNG, queues, records."""
        self._rng = np.random.default_rng(self._seed)
        self._next_flow_id = 0
        self._records: Dict[int, FlowRecord] = {}
        self._queues: List[Deque[_ActiveFlow]] = [deque() for _ in range(self.ports)]
        self._on = False
        if self.matrix == "permutation":
            self._perm = self._rng.permutation(self.ports)

    # -- flow generation ------------------------------------------------

    def _sample_group(self) -> List[Tuple[int, int]]:
        """(src, dst) pairs for one arrival event."""
        rng = self._rng
        if self.matrix == "incast":
            dst = int(rng.integers(self.ports))
            others = [p for p in range(self.ports) if p != dst]
            srcs = rng.choice(len(others), size=self.fanin, replace=False)
            return [(others[int(s)], dst) for s in srcs]
        src = int(rng.integers(self.ports))
        if self.matrix == "uniform":
            dst = int(rng.integers(self.ports))
        elif self.matrix == "permutation":
            dst = int(self._perm[src])
        elif self.matrix == "hotspot":
            if rng.random() < self.hot_fraction:
                dst = self.hot_port
            else:
                dst = int(rng.integers(self.ports))
        else:  # skewed
            dst = int(rng.choice(self.ports, p=self._zipf_p))
        return [(src, dst)]

    def _start_flow(self, src: int, dst: int, slot: int) -> None:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        size = self.sizes.sample(self._rng)
        self._records[flow_id] = FlowRecord(flow_id, src, dst, size, slot)
        self._queues[src].append(_ActiveFlow(flow_id, dst, size))

    def _start_groups(self, groups: int, slot: int) -> None:
        for _ in range(groups):
            for src, dst in self._sample_group():
                self._start_flow(src, dst, slot)

    def _groups_this_slot(self) -> int:
        if self._group_rate == 0.0:
            return 0
        if self.process == "poisson":
            return int(self._rng.poisson(self._group_rate))
        # ON/OFF: advance the gate, then draw only while ON.
        if self._on:
            if self._rng.random() < self._p_end_on:
                self._on = False
        elif self._rng.random() < self._p_end_off:
            self._on = True
        if not self._on:
            return 0
        return int(self._rng.poisson(self._group_rate / self.duty))

    def _groups_ahead(self, horizon: int) -> Tuple[int, int]:
        """Poisson group counts of the next ``horizon`` slots in one draw.

        Returns ``(quiet, groups)``: the next ``quiet`` slots start
        nothing and the slot after them starts ``groups`` > 0 groups
        (``quiet == horizon`` and ``groups == 0`` when the whole
        horizon is quiet).  A sized ``poisson`` call consumes the
        stream exactly as that many scalar calls do, so restoring the
        bit-generator state and re-drawing ``quiet + 1`` counts leaves
        the RNG where the scalar path stands when it starts sampling
        the busy slot's groups.
        """
        rng = self._rng
        state = rng.bit_generator.state
        counts = rng.poisson(self._group_rate, size=horizon)
        busy = np.flatnonzero(counts)
        if busy.size == 0:
            return horizon, 0
        quiet = int(busy[0])
        if quiet + 1 < horizon:
            rng.bit_generator.state = state
            rng.poisson(self._group_rate, size=quiet + 1)
        return quiet, int(counts[quiet])

    def arrivals(self, slot: int) -> List[Tuple[int, Cell]]:
        """Cells arriving in ``slot`` as (input, cell) pairs.

        New flows are enqueued first (so a cell can depart in its
        flow's start slot); then each input injects at most one cell,
        round-robin over its active flows.
        """
        if (
            self.matrix == "permutation"
            and self.churn_every
            and slot > 0
            and slot % self.churn_every == 0
        ):
            self._perm = self._rng.permutation(self.ports)
        self._start_groups(self._groups_this_slot(), slot)
        cells: List[Tuple[int, Cell]] = []
        for i, queue in enumerate(self._queues):
            if not queue:
                continue
            flow = queue.popleft()
            cells.append(
                (
                    i,
                    Cell(
                        flow_id=flow.flow_id,
                        output=flow.dst,
                        service=ServiceClass.VBR,
                        seqno=flow.seqno,
                        injected_slot=slot,
                    ),
                )
            )
            flow.seqno += 1
            flow.remaining -= 1
            if flow.remaining > 0:
                queue.append(flow)
        return cells

    def arrivals_batch(self, slot0: int, slots: int) -> BatchArrivals:
        """``slots`` consecutive slots of :meth:`arrivals` as flat arrays.

        Returns ``(slot, input, output, flow_id)`` int64 arrays with
        one entry per cell and builds no ``Cell`` objects.  The draws,
        the flow records and the injection state afterwards are those
        of ``arrivals(slot0) ... arrivals(slot0 + slots - 1)``, so
        scalar and batch calls may be interleaved and where a caller
        cuts its batches is invisible.
        """
        rows: List[int] = []
        queues = self._queues
        churn = self.churn_every if self.matrix == "permutation" else 0
        lookahead = (
            self.process == "poisson"
            and 0.0 < self._group_rate <= _LOOKAHEAD_MAX_RATE
        )
        end = slot0 + slots
        # Slots before ``quiet_until`` are known to start nothing and
        # ``pending`` groups start at ``quiet_until``; the RNG already
        # stands past all of their count draws.
        quiet_until = slot0
        pending = 0
        for slot in range(slot0, end):
            if churn and slot > 0 and slot % churn == 0:
                self._perm = self._rng.permutation(self.ports)
            if slot < quiet_until:
                groups = 0
            elif pending:
                groups, pending = pending, 0
            elif lookahead:
                # Never draw past this batch (the state left behind must
                # be the scalar one) or past a permutation re-draw.
                horizon = min(_LOOKAHEAD_SLOTS, end - slot)
                if churn:
                    horizon = min(horizon, churn - slot % churn)
                quiet, groups = self._groups_ahead(horizon)
                if quiet:
                    quiet_until = slot + quiet
                    pending, groups = groups, 0
            else:
                groups = self._groups_this_slot()
            if groups:
                self._start_groups(groups, slot)
            for i, queue in enumerate(queues):
                if not queue:
                    continue
                flow = queue[0]
                rows += (slot, i, flow.dst, flow.flow_id)
                flow.seqno += 1
                flow.remaining -= 1
                if flow.remaining == 0:
                    queue.popleft()
                else:
                    queue.rotate(-1)
        return _flat_arrivals(rows)

    # -- flow bookkeeping ----------------------------------------------

    def flow_records(self) -> Dict[int, FlowRecord]:
        """All flows generated so far, keyed by flow id.

        ``start_slot`` is the slot the flow began injecting; a switch
        that has seen ``size`` departures for the flow knows its
        completion slot.  The mapping is live -- callers should read it
        after the run.
        """
        return self._records

    def pending_cells(self) -> int:
        """Cells generated but not yet injected (input-side queue depth)."""
        return sum(flow.remaining for queue in self._queues for flow in queue)

    def __repr__(self) -> str:
        return (
            f"FlowTraffic(ports={self.ports}, load={self.load}, "
            f"sizes={self.sizes!r}, process={self.process!r}, "
            f"matrix={self.matrix!r})"
        )


class WindowedSource:
    """Stop a source's arrivals after ``limit`` slots (drain window).

    Slots at or past ``limit`` return no cells and do not consult the
    wrapped source (a batch reaching past it is cut there), so both
    backends can append drain slots without perturbing the wrapped RNG
    stream.  Every other attribute (``reset``, ``flow_records``, ...)
    is forwarded.
    """

    def __init__(self, source, limit: int):
        self.source = source
        self.ports = source.ports
        self.limit = limit

    def arrivals(self, slot: int):
        if slot >= self.limit:
            return []
        return self.source.arrivals(slot)

    def arrivals_batch(self, slot0: int, slots: int) -> BatchArrivals:
        """The wrapped source's batch, cut off at ``limit``."""
        return arrivals_batch(
            self.source, slot0, max(0, min(slots, self.limit - slot0))
        )

    def __getattr__(self, name):
        # pickle and copy probe a bare instance, before ``source`` is
        # set: looking it up here again would recurse without end.
        if name == "source" or (name.startswith("__") and name.endswith("__")):
            raise AttributeError(name)
        return getattr(self.source, name)
