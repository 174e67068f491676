"""Vectorized multi-switch network fast path.

The batched counterpart of the object-model
:class:`repro.network.netsim.NetworkSimulator`, as
:mod:`repro.sim.fastpath` is of the single switch: **B independent
network replicas** at **all S switches** advance in lockstep over a few
switch-stacked arrays (no Cell objects, no per-switch containers):

- ``occ (S, B, P, P)``: VOQ depths, P the widest switch's port count
  (a narrower switch uses the leading ``[:p, :p]`` corner);
- ``queued (S, B, F)``: each flow's cells buffered at each switch;
- ``ring (R, S + 1, B, F)``: cells in flight, by landing slot modulo
  R = longest link latency + 1 and by the switch they land at (index S:
  the flow's destination host);
- ``pending (H * B, M)``: cells waiting at each source host in each
  replica for each of its (up to M) flows; a greedy flow's count never
  runs out;
- one :class:`repro.sim.flowring.FlowRing` row per (VOQ that several
  flows share, replica): the queues of its flows with cells there, in
  :class:`repro.switch.buffers.VOQBuffer`'s round-robin order.  A VOQ
  with a single flow (the common case) needs none.

The slot loop reads and writes all of it through 1-D views and flat
indices -- a queue ``(s * B + b) * F + f``, a VOQ cell ``(s * B + b) *
P * P + voq``, a host lane ``(h * B + b) * M + m``, a ledger ``b * F +
f`` -- and looks the plan up in tables spread over the replicas
(:class:`_Lanes`), so each step of the delivery, injection and
transfer passes is a 1-D gather (``take``), mask or scatter
(``flat[idx] += 1``) -- no 2-D or 3-D fancy indexing.

A slot is one kernel call per *turn* between three whole-fabric passes:

1. *delivery*: one ``nonzero`` over the landing slot's plane of the
   ring; its host part completes cells end to end, the rest buffers
   every arriving cell at every switch;
2. *injection*: all hosts at once -- credit check, Bernoulli arrivals
   from per-(host, replica) pools of pre-drawn outcomes, round-robin
   flow pick;
3. *kernel*: a turn is a compile-time group of T equal-width switches
   that one :class:`repro.core.batch.BatchScheduler` call (any registry
   scheduler, PIM by default) schedules over their stacked
   ``(T * B, p, p)`` request cube; it takes its matched cells out of
   ``occ`` before the next turn reads its credit.  Without a
   ``buffer_limit`` nobody reads a neighbour's buffers and each width
   is one turn (the k = 4 fat tree: one call per slot); with one, a
   switch goes one wave after its last neighbour earlier in
   ``topology.switches()`` order, so its blocked-output mask sees what
   the object's sequential loop would show it.  The kernel draws from a
   :class:`repro.core.batch.StreamBank` of the turn's ``sched:{switch}``
   generators: each switch's block of B replicas draws from its own
   stream, and only when a kernel of its own would have been called and
   drawn (not when idle or wholly credit-blocked);
4. *transfer*: the matched cells of all turns, attributed to their
   flows (sole flow of the VOQ, or the front of its ring) and put on
   their next link in one pass.

A link carries one cell per slot and a VOQ is matched at most once per
replica per slot, so every index array these passes build is free of
duplicates and plain fancy-indexed updates are safe.  Work per slot grows
with the number of *turns*, not of switches, cells, hosts or flows.

**Slot-exact parity with the object model.**  With ``replicas=1`` and
the default (PIM) scheduler a run replicates a freshly built
``NetworkSimulator`` with the same root seed *draw for draw*: the same
``sched:{switch}`` streams, replica 0's hosts on the object's
``host:{host}`` streams (one uniform per stochastic flow per unblocked
slot), and the object's phase order -- deliveries land, hosts inject
(credit-checked first, no draws when blocked), switches schedule under
the blocked-output masks of its sequential loop.  The per-slot
injection/delivery/transfer/backlog series therefore equal its
:class:`~repro.network.netsim.NetworkSlotRecord` stream exactly
(:func:`repro.check.differential.network_parity`).  Cell identity is
replaced by Little's law per flow: see :class:`NetworkFastpathResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, get_args

import numpy as np

from repro.core.batch import build_batch_scheduler
from repro.core.pim import AN2_ITERATIONS, AcceptPolicy
from repro.network.netsim import FlowSpec
from repro.obs.perf import NULL_PHASE_TIMER
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.sim.flowring import EmptyRing, FlowRing
from repro.sim.rng import RandomStreams

__all__ = [
    "NetworkFastpath",
    "NetworkFastpathResult",
    "NetworkSeries",
    "run_fastpath_network",
]

#: Slots of host-injection uniforms pre-drawn per RNG call (amortizes
#: generator overhead without breaking draw-for-draw stream order).
_HOST_CHUNK_SLOTS = 1024

#: ``pending`` of a greedy flow: it always has a cell ready, and taking
#: one per slot never gets near zero.
_ALWAYS_PENDING = 1 << 62


class _Turn(NamedTuple):
    """What one turn (T switches) of the slot loop reads, replicas included."""

    sched: object
    members: object  # the turn's switches on occ's S axis: a slice if consecutive
    ports: int
    rows: np.ndarray  # (T * B * ports,) flat occ index of each raveled match row
    credit_rows: np.ndarray  # (n, B) occ_rows index of the peer input fed by
    credit_cells: np.ndarray  # (n, B, ports) a switch-facing output's request column


@dataclass(frozen=True)
class _HostPlan:
    """Injection tables of the H source hosts, stacked.

    Hosts with a stochastic flow come first (``stochastic`` of them), so
    the draw pools and their cursors cover a leading slice.  M is the
    largest number of flows on one host; a host with fewer pads its row
    with columns that never have a cell (rate 0, not greedy).
    """

    names: Tuple[str, ...]
    stochastic: int
    flows: np.ndarray  # (H, M) global flow index, in add_flow order
    greedy: np.ndarray  # (H, M) bool: rate >= 1.0
    rates: np.ndarray  # (H, M) stochastic rate; 0 for greedy and padding
    draw_col: np.ndarray  # (H, M) position among the host's per-slot draws
    draws: np.ndarray  # (H,) uniforms drawn per unblocked slot
    rr_offsets: np.ndarray  # (H, M, M) [h, cursor, m] = (m - cursor) % flows of h
    rr_next: np.ndarray  # (H, M) cursor after serving column m
    dest: np.ndarray  # (H,) peer switch index; S for a direct host link
    port: np.ndarray  # (H,) input port on the peer (credit check target)
    latency: np.ndarray  # (H,) first-hop link latency


@dataclass(frozen=True)
class _FabricPlan:
    """Topology and routes as switch-stacked tables, replica-free.

    ``voq`` is ``input * P + output`` with P = ``width``; tables indexed
    by (switch, flow) or (switch, voq) are stored flat.
    """

    ports: Tuple[int, ...]  # per switch
    width: int  # P: the widest switch
    flow_voq: np.ndarray  # (S * F,) the flow's VOQ at the switch
    flow_ring: np.ndarray  # (S * F,) shared-VOQ number of that VOQ, else -1
    voq_flow: np.ndarray  # (S * P * P,) the VOQ's sole flow, else -1
    voq_ring: np.ndarray  # (S * P * P,) shared-VOQ number, else -1
    ring_switch: np.ndarray  # (V,) switch of each shared VOQ
    ring_width: int  # most flows sharing one VOQ
    next_hop: np.ndarray  # (S * F,) downstream switch; S for the host
    next_lat: np.ndarray  # (S * F,) latency of the flow's outgoing link
    switch_ports: Tuple[np.ndarray, ...]
    # per switch: (port, peer switch, peer port) of each switch-facing port
    # (what credit checks read: none without a buffer limit)
    turns: Tuple[np.ndarray, ...]  # switches scheduled together, in turn order
    ring_slots: int  # R: longest link latency + 1
    hosts: _HostPlan


class _Lanes(NamedTuple):
    """The plan's tables spread over the B replicas, so that the slot loop
    reads each with one ``take`` of a flat index.

    ``_run`` keeps its state 1-D over four flat index spaces:

    - a *queue* ``(s * B + b) * F + f``: flow f's cells at switch s in
      replica b (``queued``); with s = S, the flow's destination host,
      it is also the flow's place in one slot's plane of the in-flight
      ring;
    - a *VOQ cell* ``(s * B + b) * P * P + voq`` (``occ``);
    - a *host lane* ``(h * B + b) * M + m``: host h's column m in
      replica b (``pending``);
    - a *ledger* ``b * F + f`` (the per-flow counters).

    A ``*_hop`` entry is ``latency * plane + q``, q the queue the cell
    lands in and ``plane`` = (S + 1) * B * F: added to the current
    slot's plane offset, modulo the ring, it is the cell's place in the
    in-flight ring.  Entries of a flow at a switch it does not cross,
    or of a VOQ no flow uses, are never read.
    """

    queue_cell: np.ndarray  # by queue: the VOQ cell its arrivals buffer in
    queue_hop: np.ndarray  # by queue: where its departures land
    cell_queue: np.ndarray  # by VOQ cell: the queue of its sole flow, else -1
    cell_row: np.ndarray  # by VOQ cell: its FlowRing row if shared, else -1
    lane_ledger: np.ndarray  # by host lane: the flow's ledger index
    lane_hop: np.ndarray  # by host lane: where its injections land
    lane_next: np.ndarray  # by host lane: rr_offsets row once it has sent


def _spread(plan: _FabricPlan, B: int, F: int) -> _Lanes:
    """The :class:`_Lanes` of ``plan`` for B replicas of F flows."""
    S, PP, hosts = len(plan.ports), plan.width**2, plan.hosts
    M = hosts.flows.shape[1]
    plane = (S + 1) * B * F
    b = np.arange(B)[:, None]
    switch = np.arange(S)[:, None, None]
    sb = switch * B + b  # (S, B, 1)
    sf = switch * F + np.arange(F)  # (S, 1, F)
    sv = switch * PP + np.arange(PP)  # (S, 1, P * P)
    sole, ring = plan.voq_flow[sv], plan.voq_ring[sv]
    host = np.arange(hosts.flows.shape[0])[:, None, None]
    flows = hosts.flows[:, None, :]  # (H, 1, M)
    spread = _Lanes(
        queue_cell=sb * PP + plan.flow_voq[sf],
        queue_hop=plan.next_lat[sf] * plane + (plan.next_hop[sf] * B + b) * F + sf % F,
        cell_queue=np.where(sole >= 0, sb * F + sole, -1),
        cell_row=np.where(ring >= 0, ring * B + b, -1),
        lane_ledger=b * F + flows,
        lane_hop=(hosts.latency[:, None, None] * plane)
        + (hosts.dest[:, None, None] * B + b) * F
        + flows,
        lane_next=((host * M + hosts.rr_next[:, None, :]) * M).repeat(B, axis=1),
    )
    return _Lanes(*(table.ravel() for table in spread))


@dataclass
class NetworkSeries:
    """Per-slot observables of replica 0, for differential checks.

    Row ``t`` of each array is the slot-``t`` counterpart of the object
    simulator's :class:`~repro.network.netsim.NetworkSlotRecord`.
    """

    flow_ids: List[int]
    switch_names: List[str]
    injected: np.ndarray  # (slots, F) cells injected per flow
    delivered: np.ndarray  # (slots, F) cells delivered per flow
    transfers: np.ndarray  # (slots, S) cells crossing each fabric
    backlog: np.ndarray  # (slots, S) buffered cells at slot end


@dataclass
class NetworkFastpathResult:
    """Per-flow, per-replica statistics from a fast-path network run.

    Mirrors the pooled API of
    :class:`repro.network.netsim.NetworkResult` (``throughput``,
    ``shares``) so sweeps can switch backends, and adds per-replica
    arrays for confidence intervals.

    ``delivered`` counts deliveries in slots >= warmup (the object
    backend's convention); ``delay_cells``/``delay_integral`` key the
    warm-up filter on the *injection* slot, matching
    :class:`repro.sim.stats.DelayStats`, with the delay sum recovered
    by Little's law (exact for cells delivered before the run ends).
    """

    flow_ids: List[int]
    replicas: int
    slots: int
    warmup: int
    delivered: np.ndarray  # (B, F) deliveries inside the window
    injected: np.ndarray  # (B, F) injections over the whole run
    delay_cells: np.ndarray  # (B, F) warm cells delivered
    delay_integral: np.ndarray  # (B, F) summed in-system slots of warm cells
    final_backlog: np.ndarray  # (B,) cells buffered in switches at the end
    series: Optional[NetworkSeries] = None
    _index: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {fid: k for k, fid in enumerate(self.flow_ids)}

    @property
    def window(self) -> int:
        """Measurement slots: ``slots - warmup``."""
        return self.slots - self.warmup

    def throughput(self, flow_id: int) -> float:
        """Delivered cells per slot for one flow, pooled over replicas."""
        if self.window <= 0:
            return 0.0
        column = self.delivered[:, self._index[flow_id]]
        return float(column.sum()) / (self.window * self.replicas)

    def shares(self) -> Dict[int, float]:
        """Each flow's fraction of all delivered cells (pooled)."""
        total = int(self.delivered.sum())
        if total == 0:
            return {fid: 0.0 for fid in self.flow_ids}
        return {
            fid: float(self.delivered[:, k].sum()) / total
            for k, fid in enumerate(self.flow_ids)
        }

    def mean_delay(self, flow_id: int) -> float:
        """Pooled mean end-to-end delay of one flow, in slots."""
        k = self._index[flow_id]
        cells = int(self.delay_cells[:, k].sum())
        if cells == 0:
            return 0.0
        return float(self.delay_integral[:, k].sum()) / cells

    def delivered_map(self, replica: int = 0) -> Dict[int, int]:
        """One replica's delivered counts as a flow-id dict."""
        return {
            fid: int(self.delivered[replica, k])
            for k, fid in enumerate(self.flow_ids)
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        pooled = int(self.delivered.sum())
        return (
            f"network fastpath x{self.replicas} replicas, {self.slots} slots "
            f"({len(self.flow_ids)} flows): delivered {pooled} cells, "
            f"backlog {int(self.final_backlog.sum())}"
        )


class NetworkFastpath:
    """Batch-vectorized counterpart of
    :class:`repro.network.netsim.NetworkSimulator`.

    Parameters
    ----------
    topology:
        The network graph (switches, hosts, links with latencies).
    replicas:
        Independent network replicas B advanced in lockstep.
    seed:
        Root seed.  Scheduler streams are derived exactly as the
        object simulator derives them (``sched:{switch}``), and
        replica 0's host streams are the object's ``host:{host}``
        streams, which is what makes B=1 runs slot-exact replicas of
        the object backend.
    buffer_limit:
        Optional per-input-port buffer size in cells; enables the
        same credit-based link flow control as the object simulator.
    iterations, accept:
        Kernel configuration per switch (defaults match the object
        simulator's default scheduler factory).
    scheduler:
        Batched kernel registry name used at every switch
        (``repro.core.BATCH_SCHEDULERS``); occupancy-aware kernels read
        each switch's VOQ depths at its unblocked requests.

    Flows are registered with :meth:`add_flow`; :meth:`run` simulates.
    Every ``run()`` is an independent replay from slot 0, like the
    object backend's.
    """

    def __init__(
        self,
        topology: Topology,
        replicas: int = 1,
        seed: Optional[int] = None,
        buffer_limit: Optional[int] = None,
        iterations: Optional[int] = AN2_ITERATIONS,
        accept: AcceptPolicy = "random",
        scheduler: str = "pim",
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if buffer_limit is not None and buffer_limit < 1:
            raise ValueError(f"buffer_limit must be >= 1, got {buffer_limit}")
        build_batch_scheduler(scheduler, 1, 1)  # a typo fails here, not in run()
        if accept not in get_args(AcceptPolicy):
            raise ValueError(f"unknown accept policy: {accept!r}")
        self.topology = topology
        self.replicas = replicas
        self.seed = seed
        self.buffer_limit = buffer_limit
        self.iterations = iterations
        self.accept = accept
        self.scheduler = scheduler
        self.router = Router(topology)
        self._flows: Dict[int, FlowSpec] = {}
        self._host_order: List[str] = []  # sources, in first-flow order
        self._host_flows: Dict[str, List[FlowSpec]] = {}
        self._switch_names = [node.name for node in topology.switches()]
        self._switch_index = {name: k for k, name in enumerate(self._switch_names)}
        self._plan: Optional[_FabricPlan] = None

    def add_flow(self, flow: FlowSpec, path: Optional[List[str]] = None) -> None:
        """Register a flow: install its route and its host source."""
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        self.router.install(flow.flow_id, flow.src, flow.dst, path)
        self._flows[flow.flow_id] = flow
        if flow.src not in self._host_flows:
            self._host_order.append(flow.src)
            self._host_flows[flow.src] = []
        self._host_flows[flow.src].append(flow)
        self._plan = None

    # ------------------------------------------------------------------
    # Compilation: topology + routes -> dense switch-stacked tables
    # ------------------------------------------------------------------

    def _compile(self) -> _FabricPlan:
        if self._plan is not None:
            return self._plan
        flow_ids = list(self._flows)
        fcount = len(flow_ids)
        fidx = {fid: k for k, fid in enumerate(flow_ids)}
        n_sw = len(self._switch_names)
        ports = tuple(self.topology.node(name).ports for name in self._switch_names)
        width = max(ports, default=0)

        flow_voq = np.full((n_sw, fcount), -1, dtype=np.int64)
        next_hop = np.full((n_sw, fcount), n_sw, dtype=np.int64)
        next_lat = np.zeros((n_sw, fcount), dtype=np.int64)
        max_lat = 1

        for fid in flow_ids:
            f = fidx[fid]
            path = self.router.route(fid).path
            # Walk the actual links hop by hop, starting from the host's
            # single port, so parallel links resolve to the right ports.
            node, port = path[0], 0
            for hop in range(1, len(path)):
                link = self.topology.link_at(node, port)
                if link is None:
                    raise ValueError(f"{node} port {port} is not connected")
                peer, peer_port = link.endpoint(node)
                if peer != path[hop]:
                    raise AssertionError(
                        f"flow {fid}: link from {node} reaches {peer}, "
                        f"path expects {path[hop]}"
                    )
                max_lat = max(max_lat, link.latency)
                last = hop == len(path) - 1
                if node != path[0]:
                    s1 = self._switch_index[node]
                    if not last:
                        next_hop[s1, f] = self._switch_index[peer]
                    next_lat[s1, f] = link.latency
                node = peer
                if not last:
                    port = self.router.output_port(node, fid)
                    flow_voq[self._switch_index[node], f] = peer_port * width + port

        # A VOQ's flows: one resolves departures from a table, several
        # take a FlowRing row per replica.
        members: Dict[Tuple[int, int], List[int]] = {}
        for s, f in zip(*np.nonzero(flow_voq >= 0)):
            members.setdefault((int(s), int(flow_voq[s, f])), []).append(int(f))
        voq_flow = np.full((n_sw, width * width), -1, dtype=np.int64)
        voq_ring = np.full((n_sw, width * width), -1, dtype=np.int64)
        flow_ring = np.full((n_sw, fcount), -1, dtype=np.int64)
        ring_switch: List[int] = []
        ring_width = 0
        for (s, voq), flows_here in members.items():
            if len(flows_here) == 1:
                voq_flow[s, voq] = flows_here[0]
            else:
                voq_ring[s, voq] = flow_ring[s, flows_here] = len(ring_switch)
                ring_switch.append(s)
                ring_width = max(ring_width, len(flows_here))

        limited = self.buffer_limit is not None
        switch_ports = []
        for name, count in zip(self._switch_names, ports):
            facing = []
            for j in range(count):
                peer = self.topology.peer(name, j) if limited else None
                if peer is not None and self.topology.node(peer[0]).is_switch:
                    facing.append((j, self._switch_index[peer[0]], peer[1]))
            switch_ports.append(np.array(facing, dtype=np.int64).reshape(-1, 3))

        # A credit mask reads the neighbours' buffers after the departures of
        # those earlier in ``topology.switches()`` order, before those of later
        # ones: one wave after the last earlier neighbour.  Turn = wave x width.
        groups: Dict[Tuple[int, int], List[int]] = {}
        wave: List[int] = []
        for k, facing in enumerate(switch_ports):
            earlier = [wave[peer] + 1 for peer in facing[:, 1].tolist() if peer < k]
            wave.append(max(earlier, default=0))
            groups.setdefault((wave[k], ports[k]), []).append(k)

        self._plan = _FabricPlan(
            ports=ports,
            width=width,
            flow_voq=flow_voq.ravel(),
            flow_ring=flow_ring.ravel(),
            voq_flow=voq_flow.ravel(),
            voq_ring=voq_ring.ravel(),
            ring_switch=np.array(ring_switch, dtype=np.int64),
            ring_width=ring_width,
            next_hop=next_hop.ravel(),
            next_lat=next_lat.ravel(),
            switch_ports=tuple(switch_ports),
            turns=tuple(np.array(groups[key]) for key in sorted(groups)),
            ring_slots=max_lat + 1,
            hosts=self._compile_hosts(fidx),
        )
        return self._plan

    def _compile_hosts(self, fidx: Dict[int, int]) -> _HostPlan:
        # Hosts are independent within a slot, so their order is free.
        names = sorted(
            self._host_order,
            key=lambda host: all(f.rate >= 1.0 for f in self._host_flows[host]),
        )
        count = len(names)
        most = max((len(self._host_flows[host]) for host in names), default=1)
        flows = np.zeros((count, most), dtype=np.int64)
        greedy = np.zeros((count, most), dtype=bool)
        rates = np.zeros((count, most), dtype=np.float64)
        draw_col = np.zeros((count, most), dtype=np.int64)
        draws = np.zeros(count, dtype=np.int64)
        rr_offsets = np.zeros((count, most, most), dtype=np.int64)
        rr_next = np.zeros((count, most), dtype=np.int64)
        dest = np.full(count, len(self._switch_names), dtype=np.int64)
        port = np.zeros(count, dtype=np.int64)
        latency = np.zeros(count, dtype=np.int64)
        for h, host in enumerate(names):
            specs = self._host_flows[host]
            m = len(specs)
            column = np.arange(m)
            flows[h, :m] = [fidx[f.flow_id] for f in specs]
            greedy[h, :m] = [f.rate >= 1.0 for f in specs]
            stochastic = np.nonzero(~greedy[h, :m])[0]
            rates[h, stochastic] = [specs[k].rate for k in stochastic]
            draw_col[h, stochastic] = np.arange(stochastic.size)
            draws[h] = stochastic.size
            rr_offsets[h, :m, :m] = (column[None, :] - column[:, None]) % m
            rr_next[h, :m] = (column + 1) % m
            link = self.topology.link_at(host, 0)
            if link is None:
                raise ValueError(f"source host {host} is not connected")
            peer, port[h] = link.endpoint(host)
            if self.topology.node(peer).is_switch:
                dest[h] = self._switch_index[peer]
            latency[h] = link.latency
        return _HostPlan(
            names=tuple(names),
            stochastic=int(np.count_nonzero(draws)),
            flows=flows,
            greedy=greedy,
            rates=rates,
            draw_col=draw_col,
            draws=draws,
            rr_offsets=rr_offsets,
            rr_next=rr_next,
            dest=dest,
            port=port,
            latency=latency,
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def run(
        self,
        slots: int,
        warmup: int = 0,
        record_series: bool = False,
        check: bool = False,
        phase_timer=None,
    ) -> NetworkFastpathResult:
        """Simulate ``slots`` slots across all replicas.

        Parameters
        ----------
        slots, warmup:
            Run length and transient-elimination window, as the object
            backend's :meth:`~repro.network.netsim.NetworkSimulator.run`.
        record_series:
            Collect replica 0's per-slot
            injection/delivery/transfer/backlog series (the
            :class:`NetworkSeries` the parity oracle compares against
            object-backend :class:`~repro.network.netsim.NetworkSlotRecord`
            records).  Costs a few scalar reads per slot.
        check:
            Assert conservation/non-negativity invariants every slot
            (tests only; slows the run).
        phase_timer:
            Optional :class:`repro.obs.perf.PhaseTimer`; profiles the
            run under the shared taxonomy (``run`` root with
            ``run/compile`` plan compilation + scheduler construction,
            ``run/delivery`` link deliveries landing, ``run/arrivals``
            host injection, ``run/kernel`` per-turn scheduling and
            transfer, ``run/update`` delay/series/check accounting).
        """
        timer = phase_timer or NULL_PHASE_TIMER
        with timer.phase("run"):
            return self._run(timer, slots, warmup, record_series, check)

    def _run(
        self,
        timer,
        slots: int,
        warmup: int,
        record_series: bool,
        check: bool,
    ) -> NetworkFastpathResult:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if not 0 <= warmup <= slots:
            raise ValueError(f"warmup must be in [0, {slots}], got {warmup}")
        with timer.phase("compile"):
            plan = self._compile()
            hosts = plan.hosts
            flow_ids = list(self._flows)
            F = len(flow_ids)
            S = len(plan.ports)
            P = plan.width
            B = self.replicas
            R = plan.ring_slots
            PP, BF = P * P, B * F
            limit = self.buffer_limit
            names = self._switch_names
            replica = np.arange(B)
            lanes = _spread(plan, B, F)

            occ = np.zeros((S, B, P, P), dtype=np.int64)
            occ_flat = occ.reshape(-1)
            occ_rows = occ.reshape(S * B * P, P)
            queued = np.zeros((S, B, F), dtype=np.int64)
            queued_flat = queued.reshape(-1)
            ring = np.zeros((R, S + 1, B, F), dtype=bool)
            ring_flat = ring.reshape(-1)
            plane = (S + 1) * BF
            eligible = FlowRing(plan.ring_switch.size * B, plan.ring_width)

            # One kernel per turn, over its switches' sched:{switch} streams.
            # Credit flow control is tables that are empty without a limit:
            # each switch's switch-facing ports, the hosts that feed a switch.
            streams = RandomStreams(self.seed)
            turns = []
            for members in plan.turns:
                count, ports = members.size, plan.ports[members[0]]
                generators = [
                    np.random.default_rng(
                        int(streams.get(f"sched:{names[k]}").integers(2**31))
                    )
                    for k in members
                ]
                facing = [plan.switch_ports[k] for k in members]
                out, peer, peer_port = np.concatenate(facing).T[:, :, None]
                member = np.repeat(np.arange(count), [len(f) for f in facing])
                rows = (members[:, None] * B + replica)[:, :, None] * P
                column = (member[:, None] * B + replica) * ports  # in the turn's cube
                if members[-1] - members[0] + 1 == count:
                    members = slice(members[0], members[-1] + 1)  # views of occ
                turns.append(
                    _Turn(
                        sched=build_batch_scheduler(
                            self.scheduler,
                            replicas=count * B,
                            ports=ports,
                            iterations=self.iterations,
                            accept=self.accept,
                            rng=generators,
                            track_sizes=False,
                        ),
                        members=members,
                        ports=ports,
                        rows=((rows + np.arange(ports)) * P).ravel(),
                        credit_rows=(peer * B + replica) * P + peer_port,
                        credit_cells=(column[:, :, None] + np.arange(ports)) * ports
                        + out[:, :, None],
                    )
                )
            gated = np.flatnonzero((hosts.dest < S) & (limit is not None))
            gate_lanes = (gated[:, None] * B + replica).ravel()
            gate_rows = (
                (hosts.dest[gated, None] * B + replica) * P + hosts.port[gated, None]
            ).ravel()

            # Hosts: replica 0 consumes the object simulator's host:{h}
            # stream; extra replicas get independent derived streams.
            H, M = hosts.flows.shape
            stochastic = hosts.stochastic
            host_gens = [
                [
                    streams.get(f"host:{name}" if b == 0 else f"host:{name}/replica{b}")
                    for b in range(B)
                ]
                for name in hosts.names[:stochastic]
            ]
            # The pools hold each uniform's outcome (u < the rate of the
            # flow it is drawn for), not the uniform: the draws are the
            # same, the pool is an eighth of the size.
            pool_len = hosts.draws[:stochastic, None] * _HOST_CHUNK_SLOTS
            pool_rates = np.zeros((stochastic, int(pool_len.max(initial=0))))
            for h in range(stochastic):
                drawn = hosts.rates[h][~hosts.greedy[h]][: hosts.draws[h]]
                pool_rates[h, : pool_len[h, 0]] = np.tile(drawn, _HOST_CHUNK_SLOTS)
            pools = np.zeros((stochastic, B, pool_rates.shape[1]), dtype=bool)
            pools_flat = pools.reshape(-1)
            # Where in pools_flat each (host, replica, flow) reads once
            # the (host, replica) cursor is added.
            pool_at = (
                (np.arange(stochastic)[:, None] * B + replica)[:, :, None]
                * pools.shape[2]
                + hosts.draw_col[:stochastic, None, :]
            )
            pool_cursor = np.broadcast_to(pool_len, (stochastic, B)).copy()
            draws_per_slot = hosts.draws[:stochastic, None]
            drawing = hosts.rates[:stochastic, None, :] > 0  # greedy and padding: no draw
            # (H * B, M): row h * B + b is host h in replica b.
            pending = np.where(hosts.greedy, _ALWAYS_PENDING, 0).repeat(B, axis=0)
            pending_flat = pending.reshape(-1)
            rr_offsets = hosts.rr_offsets.reshape(-1)
            rr_row = np.arange(H).repeat(B) * M * M  # cursor 0's row of rr_offsets
            column = np.arange(M)
            free = np.ones((H, B), dtype=bool)
            free_flat = free.reshape(-1)

        # Ledgers, flat over (replica, flow): b * F + f.
        injected = np.zeros(BF, dtype=np.int64)
        delivered_total = np.zeros(BF, dtype=np.int64)
        delivered_window = np.zeros(BF, dtype=np.int64)
        delay_cells = np.zeros(BF, dtype=np.int64)
        delay_integral = np.zeros(BF, dtype=np.int64)
        in_system_warm = np.zeros(BF, dtype=np.int64)
        cold_outstanding = np.zeros(BF, dtype=np.int64)

        if record_series:
            series_inj = np.zeros((slots, F), dtype=np.int64)
            series_del = np.zeros((slots, F), dtype=np.int64)
            series_xfer = np.zeros((slots, S), dtype=np.int64)
            series_backlog = np.zeros((slots, S), dtype=np.int64)

        for t in range(slots):
            now = t % R * plane  # this slot's plane of ring_flat
            # -- 1. Link deliveries land: host arrivals complete end to
            #       end, switch arrivals buffer.
            with timer.phase("delivery"):
                landing = ring_flat[now : now + plane]
                at = landing.nonzero()[0]
                landing[:] = False
                # The host plane comes last: its cells are b * F + f on.
                home = at.searchsorted(S * BF)
                done = at[home:] - S * BF
                at = at[:home]  # the queue each arrival buffers in
                if record_series:
                    series_del[t][done[done < F]] = 1
                delivered_total[done] += 1
                if t >= warmup:
                    delivered_window[done] += 1
                cold = cold_outstanding.take(done) > 0
                cold_outstanding[done[cold]] -= 1
                warm = done[~cold]
                delay_cells[warm] += 1
                in_system_warm[warm] -= 1
                # One cell per link direction per slot means at most one
                # arrival per (switch, replica, input): every index below
                # is unique and plain fancy updates are safe.
                cell = lanes.queue_cell.take(at)
                occ_flat[cell] += 1
                before = queued_flat.take(at)
                queued_flat[at] = before + 1
                # Empty -> non-empty in a shared VOQ: becomes eligible.
                row = lanes.cell_row.take(cell)
                joins = ((row >= 0) & (before == 0)).nonzero()[0]
                eligible.append(row.take(joins), at.take(joins))

            # -- 2. Hosts inject one cell each (credit-checked first;
            #       a blocked host consumes no draws, like the object).
            arrivals_span = timer.phase("arrivals")
            arrivals_span.__enter__()
            if gated.size:
                free_flat[gate_lanes] = occ_rows[gate_rows].sum(axis=1) < limit
            spent = pool_cursor >= pool_len
            if spent.any():
                for h, b in np.argwhere(spent).tolist():
                    length = int(pool_len[h, 0])
                    uniforms = host_gens[h][b].random(length)
                    pools[h, b, :length] = uniforms < pool_rates[h, :length]
                    pool_cursor[h, b] = 0
            arrived = pools_flat.take(pool_at + pool_cursor[:, :, None])
            arrived &= drawing
            arrived &= free[:stochastic, :, None]
            pending[: stochastic * B] += arrived.reshape(-1, M)
            pool_cursor += free[:stochastic] * draws_per_slot
            ready = pending > 0
            ready &= free_flat[:, None]
            # Round-robin over the host's stable flow list: the first
            # ready flow at or after the cursor, i.e. the ready lane of
            # least offset.  Offsets of one host's flows are distinct and
            # below M, so ``initial`` only keeps a row with no ready lane
            # (all M) from matching its own minimum.
            score = np.where(ready, rr_offsets.take(rr_row[:, None] + column), M)
            first = score.min(axis=1, keepdims=True, initial=M - 1)
            lane = (score == first).ravel().nonzero()[0]
            rr_row[lane // M] = lanes.lane_next.take(lane)
            pending_flat[lane] -= 1
            sent = lanes.lane_ledger.take(lane)
            injected[sent] += 1
            if t >= warmup:
                in_system_warm[sent] += 1
            else:
                cold_outstanding[sent] += 1
            ring_flat[(lanes.lane_hop.take(lane) + now) % ring.size] = True
            if record_series:
                series_inj[t][sent[sent < F]] = 1
            arrivals_span.__exit__(None, None, None)

            # -- 3. Switches schedule, a turn per kernel call; its matched
            #       cells leave occ before the next turn reads its credit
            #       and move on in one pass afterwards.
            kernel_span = timer.phase("kernel")
            kernel_span.__enter__()
            departed = []
            for sched, members, p, rows, credit_rows, credit_cells in turns:
                depth = occ[members, :, :p, :p].reshape(-1, p, p)
                wants = depth > 0
                if credit_rows.size:
                    blocked = occ_rows[credit_rows].sum(axis=2) >= limit
                    wants.reshape(-1)[credit_cells[blocked]] = False
                # Depths are read at requests only; no request left, no draw.
                match = sched.schedule(wants, depth).ravel()
                matched = (match >= 0).nonzero()[0]
                cells = rows.take(matched) + match.take(matched)  # flat occ index
                occ_flat[cells] -= 1
                departed.append(cells)
            if departed:
                cells = np.concatenate(departed)
                if check and (occ_flat[cells] < 0).any():
                    at = cells[occ_flat[cells].argmin()] // (B * PP)
                    raise AssertionError(f"negative VOQ occupancy at {names[at]}")
                # The departing queue: the VOQ's only flow's, or the
                # front of its round-robin ring.
                queue = lanes.cell_queue.take(cells)
                shared = (queue < 0).nonzero()[0]
                row = lanes.cell_row.take(cells.take(shared))
                try:
                    queue[shared] = served = eligible.pop(row)
                except EmptyRing as empty:
                    name = names[plan.ring_switch[empty.row // B]]
                    raise IndexError(
                        f"slot {t}: a cell departed from a shared VOQ of "
                        f"{name} with no eligible flow"
                    ) from None
                left = queued_flat.take(queue) - 1
                queued_flat[queue] = left
                # Flow still has cells here: rotate to the back.
                stays = left.take(shared) > 0
                eligible.rejoin(row[stays], served[stays])
                ring_flat[(lanes.queue_hop.take(queue) + now) % ring.size] = True
                if record_series:
                    sb = queue // F
                    series_xfer[t] = np.bincount(sb[sb % B == 0] // B, minlength=S)
            kernel_span.__exit__(None, None, None)

            with timer.phase("update"):
                delay_integral += in_system_warm
                if record_series:
                    series_backlog[t] = occ[:, 0].sum(axis=(1, 2))
                if check:
                    self._check_slot(
                        t, plan, lanes, occ, queued, ring, eligible, pending,
                        injected, delivered_total,
                    )

        series = None
        if record_series:
            series = NetworkSeries(
                flow_ids=flow_ids,
                switch_names=list(self._switch_names),
                injected=series_inj,
                delivered=series_del,
                transfers=series_xfer,
                backlog=series_backlog,
            )
        final_backlog = occ.sum(axis=(0, 2, 3))
        return NetworkFastpathResult(
            flow_ids=flow_ids,
            replicas=B,
            slots=slots,
            warmup=warmup,
            delivered=delivered_window.reshape(B, F),
            injected=injected.reshape(B, F),
            delay_cells=delay_cells.reshape(B, F),
            delay_integral=delay_integral.reshape(B, F),
            final_backlog=final_backlog,
            series=series,
        )

    def _check_slot(
        self, t, plan, lanes, occ, queued, ring, eligible, pending, injected, delivered
    ) -> None:
        """The ``check=True`` invariants at the end of slot ``t``."""
        S, B, F = queued.shape
        buffered = occ.sum(axis=(0, 2, 3))
        in_flight = ring.sum(axis=(0, 1, 3))
        if not np.array_equal(
            injected.reshape(B, F).sum(axis=1),
            delivered.reshape(B, F).sum(axis=1) + buffered + in_flight,
        ):
            raise AssertionError(f"cell conservation violated at slot {t}")
        mismatch = (occ.sum(axis=(2, 3)) != queued.sum(axis=2)).any(axis=1)
        if mismatch.any():
            name = self._switch_names[int(np.flatnonzero(mismatch)[0])]
            raise AssertionError(f"VOQ/per-flow count mismatch at {name}")
        if (pending < 0).any():
            raise AssertionError(f"negative host backlog at slot {t}")
        # A shared VOQ's ring lists exactly its queues with cells, each
        # in its own row.
        row, queue = eligible.entries()
        listed = np.zeros((S, B, F), dtype=bool)
        listed.reshape(-1)[queue] = True
        shared = (plan.flow_ring >= 0).reshape(S, 1, F)
        if (
            listed.sum() != queue.size
            or not np.array_equal(listed, (queued > 0) & shared)
            or (lanes.cell_row.take(lanes.queue_cell.take(queue)) != row).any()
        ):
            raise AssertionError(
                f"round-robin rings out of step with queued flows at slot {t}"
            )


def run_fastpath_network(
    topology: Topology,
    flows: List[FlowSpec],
    slots: int,
    replicas: int = 1,
    warmup: int = 0,
    seed: Optional[int] = 0,
    buffer_limit: Optional[int] = None,
    scheduler: str = "pim",
    record_series: bool = False,
    check: bool = False,
    phase_timer=None,
) -> NetworkFastpathResult:
    """Build a :class:`NetworkFastpath`, add ``flows``, and run it."""
    sim = NetworkFastpath(
        topology, replicas=replicas, seed=seed, buffer_limit=buffer_limit,
        scheduler=scheduler,
    )
    for flow in flows:
        sim.add_flow(flow)
    return sim.run(
        slots,
        warmup=warmup,
        record_series=record_series,
        check=check,
        phase_timer=phase_timer,
    )
