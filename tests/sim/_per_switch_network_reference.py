"""Test-only oracle: the fabric slot loop with one kernel call per switch.

This is ``NetworkFastpath._run`` (and the ``_Turn`` table it read) as it
stood before the stacked turns, kept verbatim, with the ``_check_slot``
of that layout (the production loop has since gone flat): every busy switch gets
its own ``BatchScheduler`` over its own ``sched:{switch}`` generator and
is scheduled in ``topology.switches()`` order, a switch whose requests
are all credit-blocked is skipped before any draw.  It pins the
production loop's exact output -- same draws, same matchings, same
generator states -- in ``test_network_stacked_reference.py``.  Not a
second production path: nothing under ``src/`` imports this module.
"""

from typing import NamedTuple

import numpy as np

from repro.core.batch import build_batch_scheduler
from repro.sim.fastpath_network import (
    _ALWAYS_PENDING,
    _HOST_CHUNK_SLOTS,
    NetworkFastpath,
    NetworkFastpathResult,
    NetworkSeries,
)
from repro.sim.flowring import EmptyRing, FlowRing
from repro.sim.rng import RandomStreams

_NO_PORTS = np.zeros((0, 3), dtype=np.int64)


class _Turn(NamedTuple):
    """What one switch's turn in the slot loop reads, replicas included."""

    sched: object
    depth: np.ndarray  # (B, ports, ports) view: the switch's corner of occ
    wants: np.ndarray  # (B, ports, ports) view: its corner of the request cube
    rows: np.ndarray  # (B * ports,) flat occ index of each raveled match row
    credit_ports: np.ndarray  # (n,) switch-facing output ports, if limited
    credit_rows: np.ndarray  # (B, n) occ_rows index of the peer input each feeds


class PerSwitchNetworkFastpath(NetworkFastpath):
    """``NetworkFastpath`` with the per-switch kernel loop."""

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
            replica = np.arange(B)

            occ = np.zeros((S, B, P, P), dtype=np.int64)
            occ_flat = occ.reshape(-1)
            occ_rows = occ.reshape(S * B * P, P)
            requests = np.zeros((S, B, P, P), dtype=bool)
            queued = np.zeros((S, B, F), dtype=np.int64)
            queued_flat = queued.reshape(-1)
            ring = np.zeros((R, S + 1, B, F), dtype=bool)
            ring_flat = ring.reshape(-1)
            eligible = FlowRing(plan.ring_switch.size * B, plan.ring_width)

            # Credit flow control is tables that are empty without a
            # limit: the switch-facing ports of each switch and the
            # hosts that feed a switch.
            streams = RandomStreams(self.seed)
            switches = []
            for s, (name, ports) in enumerate(zip(self._switch_names, plan.ports)):
                sched_seed = int(streams.get(f"sched:{name}").integers(2**31))
                sched = build_batch_scheduler(
                    self.scheduler,
                    replicas=B,
                    ports=ports,
                    iterations=self.iterations,
                    accept=self.accept,
                    rng=np.random.default_rng(sched_seed),
                    track_sizes=False,
                )
                rows = ((s * B + replica)[:, None] * P + np.arange(ports)) * P
                facing = plan.switch_ports[s] if limit is not None else _NO_PORTS
                out, peer, peer_port = facing.T
                switches.append(
                    _Turn(
                        sched=sched,
                        depth=occ[s, :, :ports, :ports],
                        wants=requests[s, :, :ports, :ports],
                        rows=rows.ravel(),
                        credit_ports=out,
                        credit_rows=(peer * B + replica[:, None]) * P + peer_port,
                    )
                )
            gated = np.flatnonzero((hosts.dest < S) & (limit is not None))
            gate_rows = (hosts.dest[gated, None] * B + replica) * P + hosts.port[
                gated, None
            ]

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
            pool_len = hosts.draws[:stochastic, None] * _HOST_CHUNK_SLOTS
            pools = np.zeros((stochastic, B, int(pool_len.max(initial=0))))
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
            arrival_rates = hosts.rates[:stochastic, None, :]
            pending = np.where(hosts.greedy, _ALWAYS_PENDING, 0)[:, None, :].repeat(
                B, axis=1
            )
            rr_cursor = np.zeros((H, B), dtype=np.int64)
            host_col = np.arange(H)[:, None]
            free = np.ones((H, B), dtype=bool)

        injected = np.zeros((B, F), dtype=np.int64)
        delivered_total = np.zeros((B, F), dtype=np.int64)
        delivered_window = np.zeros((B, F), dtype=np.int64)
        delay_cells = np.zeros((B, F), dtype=np.int64)
        delay_integral = np.zeros((B, F), dtype=np.int64)
        in_system_warm = np.zeros((B, F), dtype=np.int64)
        cold_outstanding = np.zeros((B, F), dtype=np.int64)

        if record_series:
            series_inj = np.zeros((slots, F), dtype=np.int64)
            series_del = np.zeros((slots, F), dtype=np.int64)
            series_xfer = np.zeros((slots, S), dtype=np.int64)
            series_backlog = np.zeros((slots, S), dtype=np.int64)

        for t in range(slots):
            # -- 1. Link deliveries land: host arrivals complete end to
            #       end, switch arrivals buffer.
            with timer.phase("delivery"):
                landing = ring[t % R]
                if record_series:
                    series_del[t] = landing[S, 0]
                bb, ff = landing[S].nonzero()
                if bb.size:
                    delivered_total[bb, ff] += 1
                    if t >= warmup:
                        delivered_window[bb, ff] += 1
                    cold = cold_outstanding[bb, ff] > 0
                    cold_outstanding[bb[cold], ff[cold]] -= 1
                    warm_b, warm_f = bb[~cold], ff[~cold]
                    delay_cells[warm_b, warm_f] += 1
                    in_system_warm[warm_b, warm_f] -= 1
                # One cell per link direction per slot means at most one
                # arrival per (switch, replica, input): every index below
                # is unique and plain fancy updates are safe.
                at = landing[:S].ravel().nonzero()[0]  # flat (switch, replica, flow)
                if at.size:
                    sb, ff = np.divmod(at, F)
                    sf = sb // B * F + ff
                    occ_flat[sb * PP + plan.flow_voq[sf]] += 1
                    before = queued_flat[at]
                    queued_flat[at] = before + 1
                    # Empty -> non-empty in a shared VOQ: becomes eligible.
                    shared_voq = plan.flow_ring[sf]
                    joins = ((shared_voq >= 0) & (before == 0)).nonzero()[0]
                    eligible.append(
                        shared_voq[joins] * B + sb[joins] % B, ff[joins]
                    )
                landing[:] = False

            # -- 2. Hosts inject one cell each (credit-checked first;
            #       a blocked host consumes no draws, like the object).
            arrivals_span = timer.phase("arrivals")
            arrivals_span.__enter__()
            if gated.size:
                free[gated] = occ_rows[gate_rows].sum(axis=2) < limit
            spent = pool_cursor >= pool_len
            if spent.any():
                for h, b in np.argwhere(spent).tolist():
                    length = int(pool_len[h, 0])
                    pools[h, b, :length] = host_gens[h][b].random(length)
                    pool_cursor[h, b] = 0
            arrived = pools_flat[pool_at + pool_cursor[:, :, None]] < arrival_rates
            arrived &= free[:stochastic, :, None]
            pending[:stochastic] += arrived
            pool_cursor += free[:stochastic] * draws_per_slot
            ready = pending > 0
            ready &= free[:, :, None]
            # Round-robin over the host's stable flow list: the first
            # ready flow at or after the cursor.
            score = np.where(ready, hosts.rr_offsets[host_col, rr_cursor], M)
            pick = score.argmin(axis=2)
            hh, bb = ready.any(axis=2).nonzero()
            if hh.size:
                pick = pick[hh, bb]
                rr_cursor[hh, bb] = hosts.rr_next[hh, pick]
                pending[hh, bb, pick] -= 1
                fsel = hosts.flows[hh, pick]
                injected[bb, fsel] += 1
                if t >= warmup:
                    in_system_warm[bb, fsel] += 1
                else:
                    cold_outstanding[bb, fsel] += 1
                landing_slot = (t + hosts.latency[hh]) % R
                ring_flat[
                    (landing_slot * (S + 1) + hosts.dest[hh]) * BF + bb * F + fsel
                ] = True
                if record_series:
                    series_inj[t, fsel[bb == 0]] = 1
            arrivals_span.__exit__(None, None, None)

            # -- 3. Switches schedule, sequentially in topology order,
            #       each taking its matched cells out of occ at its turn
            #       (credit masks see earlier switches' departures,
            #       exactly like the object loop); the cells move on in
            #       one pass afterwards.
            kernel_span = timer.phase("kernel")
            kernel_span.__enter__()
            np.greater(occ, 0, out=requests)
            departed = []
            for s in requests.any(axis=(1, 2, 3)).nonzero()[0].tolist():
                sched, depth, wants, rows, credit_ports, credit_rows = switches[s]
                if credit_ports.size:
                    blocked = occ_rows[credit_rows].sum(axis=2) >= limit
                    if blocked.any():
                        wants[:, :, credit_ports] &= ~blocked[:, None, :]
                        if not wants.any():
                            continue  # no scheduling rounds run: no draws
                # Kernels read the depths at requested cells only.
                match = sched.schedule(wants, depth).ravel()
                matched = (match >= 0).nonzero()[0]
                if matched.size == 0:
                    continue
                cells = rows[matched] + match[matched]  # flat occ index
                left = occ_flat[cells] - 1
                occ_flat[cells] = left
                if check and (left < 0).any():
                    raise AssertionError(
                        f"negative VOQ occupancy at {self._switch_names[s]}"
                    )
                departed.append(cells)
            if departed:
                cells = np.concatenate(departed)
                sb, voq = np.divmod(cells, PP)
                ss = sb // B
                sv = ss * PP + voq
                # The departing flow: the VOQ's only one, or the front of
                # its round-robin ring.
                flow = plan.voq_flow[sv]
                shared = (flow < 0).nonzero()[0]
                ring_rows = plan.voq_ring[sv[shared]] * B + sb[shared] % B
                try:
                    flow[shared] = served = eligible.pop(ring_rows)
                except EmptyRing as empty:
                    name = self._switch_names[plan.ring_switch[empty.row // B]]
                    raise IndexError(
                        f"slot {t}: a cell departed from a shared VOQ of "
                        f"{name} with no eligible flow"
                    ) from None
                at = sb * F + flow
                left = queued_flat[at] - 1
                queued_flat[at] = left
                # Flow still has cells here: rotate to the back.
                stays = left[shared] > 0
                eligible.rejoin(ring_rows[stays], served[stays])
                sf = ss * F + flow
                landing_slot = (t + plan.next_lat[sf]) % R
                # ``at`` is ss * BF + (replica, flow): swap the switch.
                ring_flat[
                    (landing_slot * (S + 1) + plan.next_hop[sf] - ss) * BF + at
                ] = True
                if record_series:
                    series_xfer[t] = np.bincount(ss[sb % B == 0], minlength=S)
            kernel_span.__exit__(None, None, None)

            with timer.phase("update"):
                delay_integral += in_system_warm
                if record_series:
                    series_backlog[t] = occ[:, 0].sum(axis=(1, 2))
                if check:
                    self._check_slot(
                        t, plan, occ, queued, ring, eligible, pending,
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
            delivered=delivered_window,
            injected=injected,
            delay_cells=delay_cells,
            delay_integral=delay_integral,
            final_backlog=final_backlog,
            series=series,
        )

    def _check_slot(
        self, t, plan, occ, queued, ring, eligible, pending, injected, delivered
    ) -> None:
        """The ``check=True`` invariants at the end of slot ``t``."""
        buffered = occ.sum(axis=(0, 2, 3))
        in_flight = ring.sum(axis=(0, 1, 3))
        if not np.array_equal(
            injected.sum(axis=1), delivered.sum(axis=1) + buffered + in_flight
        ):
            raise AssertionError(f"cell conservation violated at slot {t}")
        mismatch = (occ.sum(axis=(2, 3)) != queued.sum(axis=2)).any(axis=1)
        if mismatch.any():
            name = self._switch_names[int(np.flatnonzero(mismatch)[0])]
            raise AssertionError(f"VOQ/per-flow count mismatch at {name}")
        if (pending < 0).any():
            raise AssertionError(f"negative host backlog at slot {t}")
        # A shared VOQ's ring lists exactly its flows with cells queued.
        S, B, F = queued.shape
        row, flow = eligible.entries()
        listed = np.zeros((S, B, F), dtype=bool)
        listed[plan.ring_switch[row // B], row % B, flow] = True
        shared = (plan.flow_ring >= 0).reshape(S, 1, F)
        if listed.sum() != row.size or not np.array_equal(
            listed, (queued > 0) & shared
        ):
            raise AssertionError(
                f"round-robin rings out of step with queued flows at slot {t}"
            )
