"""Command-line interface: run the paper's experiments from a shell.

Installed as the ``repro-an2`` console script::

    repro-an2 info
    repro-an2 delay --scheduler pim --load 0.9 --ports 16
    repro-an2 delay --load 0.9 --trace run.jsonl --metrics
    repro-an2 delay --backend fastpath --load 0.9 --trace run.jsonl --profile
    repro-an2 trace summarize run.jsonl --plot
    repro-an2 trace summarize run.jsonl --format json
    repro-an2 sweep --workload clientserver --loads 0.5 0.7 0.9
    repro-an2 table1 --patterns 5000
    repro-an2 cbr-bounds --hops 4 --tolerance 1e-4
    repro-an2 fairness
    repro-an2 statistical --backend fastpath --replicas 64 --load 0.8
    repro-an2 network --topology mesh --size 4 --backend fastpath --replicas 64
    repro-an2 check --suite network --seeds 10
    repro-an2 perf report --backend fastpath --replicas 16
    repro-an2 perf report --from-history latest --bench fastpath
    repro-an2 perf compare prev latest --bench fastpath
    repro-an2 perf gate --tolerance 0.4
    repro-an2 perf list
    repro-an2 scenario run --trace run.csv --ports 8 --backend fastpath
    repro-an2 fleet run benchmarks/perf/specs/sched_zoo.json --pool 4
    repro-an2 fleet status benchmarks/perf/specs/sched_zoo.json
    repro-an2 fleet report benchmarks/perf/specs/sched_zoo.json --out report.txt
    repro-an2 fleet gate benchmarks/perf/specs/fleet_smoke.json --metric throughput

Each subcommand is a thin wrapper over the library; the full
regeneration harness lives in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_scheduler(name: str, ports: int, iterations: int, seed: int):
    from repro.core.islip import ISLIPScheduler
    from repro.core.lqf import LQFScheduler
    from repro.core.maximum import MaximumMatchingScheduler
    from repro.core.pim import PIMScheduler
    from repro.core.qps import QPSScheduler
    from repro.core.wavefront import WavefrontScheduler

    if name == "pim":
        return PIMScheduler(iterations=iterations, seed=seed)
    if name == "pim-inf":
        return PIMScheduler(iterations=None, seed=seed)
    if name == "islip":
        return ISLIPScheduler(iterations=iterations)
    if name == "lqf":
        return LQFScheduler(seed=seed)
    if name == "qps":
        return QPSScheduler(rounds=iterations, seed=seed)
    if name == "wavefront":
        return WavefrontScheduler()
    if name == "maximum":
        return MaximumMatchingScheduler()
    raise argparse.ArgumentTypeError(f"unknown scheduler: {name}")


def _build_traffic(name: str, ports: int, load: float, seed: int):
    from repro.traffic.bursty import BurstyTraffic
    from repro.traffic.clientserver import ClientServerTraffic
    from repro.traffic.periodic import PeriodicTraffic
    from repro.traffic.uniform import UniformTraffic

    if name == "uniform":
        return UniformTraffic(ports, load=load, seed=seed)
    if name == "clientserver":
        return ClientServerTraffic(ports, load=load, seed=seed)
    if name == "bursty":
        return BurstyTraffic(ports, load=min(load, 0.99), seed=seed)
    if name == "periodic":
        return PeriodicTraffic(ports, load=load, burst=2 * ports, seed=seed)
    raise argparse.ArgumentTypeError(f"unknown workload: {name}")


def _build_switch(scheduler_name: str, ports: int, iterations: int, seed: int):
    from repro.core.fifo import FIFOScheduler
    from repro.core.output_queueing import OutputQueuedSwitch
    from repro.switch.switch import CrossbarSwitch, FIFOSwitch

    if scheduler_name == "fifo":
        return FIFOSwitch(ports, FIFOScheduler(policy="random", seed=seed))
    if scheduler_name == "output-queueing":
        return OutputQueuedSwitch(ports)
    return CrossbarSwitch(ports, _build_scheduler(scheduler_name, ports, iterations, seed))


def cmd_info(args: argparse.Namespace) -> int:
    """Print the AN2 headline hardware numbers."""
    from repro.hardware.cost import (
        PRODUCTION_MODEL,
        PROTOTYPE_MODEL,
        cell_rate,
        schedule_time_budget,
        uncontended_latency,
    )

    print("AN2 switch (16 ports, 1 Gb/s links, 53-byte ATM cells)")
    print(f"  scheduling budget per slot : {schedule_time_budget() * 1e9:.0f} ns")
    print(f"  aggregate cell rate        : {cell_rate() / 1e6:.1f} M cells/s")
    print(f"  uncontended latency        : {uncontended_latency() * 1e6:.1f} us")
    print("\nComponent cost shares (Table 2):")
    print(f"  {'unit':<18}{'prototype':>10}{'production':>12}")
    production = dict(PRODUCTION_MODEL.table2_rows())
    for name, share in PROTOTYPE_MODEL.table2_rows():
        print(f"  {name:<18}{share:>9.0f}%{production[name]:>11.0f}%")
    return 0


def _args_config(args: argparse.Namespace) -> dict:
    """The run's logical config from its parsed flags (for manifests)."""
    skip = {"func", "command", "trace", "metrics", "trace_stride", "profile"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not callable(value)
    }


def _build_probe(args: argparse.Namespace):
    """Probe from --trace/--metrics/--trace-stride flags (or None).

    Traced runs open with a :class:`repro.obs.perf.RunManifest` record,
    so every JSONL trace carries the git SHA / platform / versions /
    seed / config hash of the run that produced it.
    """
    if not (args.trace or args.metrics):
        return None
    from repro.obs import JSONLSink, MetricsRegistry, NullSink, Probe

    sink = JSONLSink(args.trace) if args.trace else NullSink()
    metrics = MetricsRegistry() if args.metrics else None
    probe = Probe(sink, metrics=metrics, stride=args.trace_stride)
    if args.trace:
        from repro.obs.perf import RunManifest

        probe.run_manifest(
            RunManifest.collect(
                seed=getattr(args, "seed", None), config=_args_config(args)
            )
        )
    return probe


def _finish_probe(probe) -> None:
    """Close the sink and render the metrics table, if any."""
    if probe is None:
        return
    probe.close()
    if probe.metrics is not None:
        print("\nmetrics:")
        print(probe.metrics.render())


def cmd_delay(args: argparse.Namespace) -> int:
    """One (scheduler, workload, load) point, on either backend."""
    from repro.obs.perf import PhaseTimer

    probe = _build_probe(args)
    timer = PhaseTimer() if args.profile else None

    def _print_profile() -> None:
        if timer is not None:
            print("\nphase profile:")
            print(timer.report(slots=args.slots).render())

    if args.backend == "fastpath":
        fastpath_choices = ("pim", "pim-inf", "islip", "lqf", "wavefront", "qps")
        if args.scheduler not in fastpath_choices or args.workload != "uniform":
            print(
                "error: --backend fastpath supports only --scheduler "
                + "/".join(fastpath_choices)
                + " with --workload uniform",
                file=sys.stderr,
            )
            return 2
        from repro.sim.fastpath import run_fastpath

        result = run_fastpath(
            args.ports,
            args.load,
            args.slots,
            replicas=1,
            warmup=args.warmup,
            iterations=None if args.scheduler == "pim-inf" else args.iterations,
            scheduler="pim" if args.scheduler == "pim-inf" else args.scheduler,
            seed=args.seed,
            arrival_seeds=[args.seed + 1],
            probe=probe,
            phase_timer=timer,
        )
        print(result.summary())
        _print_profile()
        _finish_probe(probe)
        return 0
    switch = _build_switch(args.scheduler, args.ports, args.iterations, args.seed)
    if (probe is not None or timer is not None) and args.scheduler in (
        "fifo", "output-queueing"
    ):
        print(
            "error: --trace/--metrics/--profile require a crossbar scheduler "
            "(pim, pim-inf, islip, lqf, wavefront, qps, maximum)",
            file=sys.stderr,
        )
        return 2
    traffic = _build_traffic(args.workload, args.ports, args.load, args.seed + 1)
    result = switch.run(
        traffic, slots=args.slots, warmup=args.warmup, probe=probe, phase_timer=timer
    )
    print(result.summary())
    _print_profile()
    _finish_probe(probe)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Delay vs load for FIFO / PIM-4 / output queueing (Figures 3-4)."""
    from repro.traffic.trace import TraceRecorder

    names = ["fifo", "pim", "output-queueing"]
    print(f"{'load':>6}" + "".join(f"{name:>22}" for name in names))
    for load in args.loads:
        recorder = TraceRecorder(
            _build_traffic(args.workload, args.ports, load, args.seed)
        )
        cells = []
        first = True
        for name in names:
            traffic = recorder if first else recorder.replay()
            first = False
            switch = _build_switch(name, args.ports, args.iterations, args.seed)
            result = switch.run(traffic, slots=args.slots, warmup=args.warmup)
            cells.append(f"{result.mean_delay:12.2f} ({result.throughput:4.2f})")
        print(f"{load:6.2f}" + "".join(f"{cell:>22}" for cell in cells))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate Table 1 at a chosen sample size."""
    from repro.core.pim import BatchPIMScheduler

    rng = np.random.default_rng(args.seed)
    print(f"{'p':>5}  K=1     K=2     K=3     K=4    ({args.patterns} patterns each)")
    for p in (0.10, 0.25, 0.50, 0.75, 1.0):
        batch = rng.random((args.patterns, args.ports, args.ports)) < p
        kernel = BatchPIMScheduler(args.patterns, args.ports, iterations=None, rng=rng)
        kernel.schedule(batch)
        cumulative = kernel.last_cumulative_sizes
        total = cumulative[:, -1].sum()
        row = []
        for k in range(4):
            col = cumulative[:, min(k, cumulative.shape[1] - 1)]
            row.append(100.0 * col.sum() / total)
        print(f"{p:5.2f}  " + "  ".join(f"{x:6.2f}" for x in row))
    return 0


def cmd_cbr_bounds(args: argparse.Namespace) -> int:
    """Appendix B bounds vs a simulated drifting-clock chain."""
    from repro.cbr.clock import (
        ClockModel,
        cbr_buffer_bound,
        cbr_latency_bound,
        controller_frame_slots,
        simulate_cbr_chain,
    )

    clock = ClockModel(
        slot_time=1.0,
        switch_frame_slots=args.frame,
        controller_frame_slots=controller_frame_slots(args.frame, args.tolerance, 5),
        tolerance=args.tolerance,
    )
    result = simulate_cbr_chain(
        clock, hops=args.hops, link_latency=args.link_latency,
        cells=args.cells, seed=args.seed,
    )
    latency_bound = cbr_latency_bound(args.hops, clock, args.link_latency)
    buffer_bound = cbr_buffer_bound(args.hops, clock, args.link_latency)
    print(f"{args.hops} hops, frame {args.frame} slots, tolerance {args.tolerance:g}")
    print(f"  max adjusted latency : {result.max_adjusted_latency():10.1f} slots "
          f"(bound {latency_bound:.1f})")
    print(f"  max buffer occupancy : {max(result.max_buffer_occupancy):10d} cells "
          f"(bound {buffer_bound:.1f} per unit reservation)")
    return 0


def cmd_fairness(args: argparse.Namespace) -> int:
    """The Figure 8 unfairness and the statistical-matching fix."""
    from repro.core.pim import PIMScheduler
    from repro.core.statistical import StatisticalMatcher
    from repro.fairness.metrics import jain_index

    ports = 4
    requests = np.zeros((ports, ports), dtype=bool)
    requests[0, 0] = requests[1, 0] = requests[2, 0] = True
    requests[3, :] = True
    pim = PIMScheduler(iterations=4, seed=args.seed)
    counts = np.zeros(ports)
    for _ in range(args.slots):
        for i, j in pim.schedule(requests):
            if j == 0:
                counts[i] += 1
    shares = counts / counts.sum()
    print("Figure 8 with PIM: output 1 split", [f"{s:.3f}" for s in shares],
          f"jain={jain_index(list(shares)):.3f}")

    alloc = np.zeros((ports, ports), dtype=np.int64)
    alloc[:, 0] = 4
    alloc[3, 1] = alloc[3, 2] = alloc[3, 3] = 4
    matcher = StatisticalMatcher(alloc, units=16, rounds=2, seed=args.seed)
    counts = np.zeros(ports)
    for _ in range(args.slots):
        for i, j in matcher.match():
            if j == 0:
                counts[i] += 1
    shares = counts / counts.sum()
    print("With statistical matching:      ", [f"{s:.3f}" for s in shares],
          f"jain={jain_index(list(shares)):.3f}")
    return 0


def _build_reservations(ports: int, frame_slots: int, utilization: float, seed: int):
    """Random feasible reservation table, one flow per connection.

    Built as a sum of permutation matrices (like the differential
    harness), so no input or output link is over-committed and the
    Slepian-Duguid insertion always succeeds.
    """
    from repro.cbr.reservations import ReservationTable
    from repro.check.differential import _random_allocations
    from repro.sim.rng import derive_seed
    from repro.switch.cell import ServiceClass
    from repro.switch.flow import Flow

    rng = np.random.default_rng(derive_seed(seed, "cli/cbr-allocations"))
    matrix = _random_allocations(ports, frame_slots, rng, fraction=utilization)
    table = ReservationTable(ports, frame_slots)
    flow_id = 1
    for i in range(ports):
        for j in range(ports):
            if matrix[i, j]:
                table.admit(
                    Flow(
                        flow_id=flow_id, src=i, dst=j,
                        service=ServiceClass.CBR,
                        cells_per_frame=int(matrix[i, j]),
                    )
                )
                flow_id += 1
    return table


def cmd_cbr(args: argparse.Namespace) -> int:
    """Integrated CBR+VBR switch (Section 4), on either backend."""
    probe = _build_probe(args)
    table = _build_reservations(args.ports, args.frame, args.utilization, args.seed)
    reserved = int(table.reserved_matrix().sum())
    print(
        f"{args.ports}x{args.ports} integrated switch, frame {args.frame} slots, "
        f"{len(table.flows())} CBR flows ({reserved} cells/frame reserved), "
        f"VBR load {args.vbr_load}"
    )
    if args.backend == "fastpath":
        from repro.sim.fastpath_cbr import run_fastpath_cbr

        result = run_fastpath_cbr(
            table,
            args.vbr_load,
            args.slots,
            replicas=args.replicas,
            warmup=args.warmup,
            scheduler=args.scheduler,
            seed=args.seed,
            probe=probe,
        )
        print(result.summary())
        _finish_probe(probe)
        return 0
    if args.replicas != 1:
        print("error: --replicas needs --backend fastpath", file=sys.stderr)
        return 2
    if args.scheduler != "pim":
        print("error: --scheduler needs --backend fastpath", file=sys.stderr)
        return 2
    from repro.cbr.integrated import IntegratedSwitch
    from repro.core.pim import PIMScheduler
    from repro.sim.rng import derive_seed
    from repro.traffic.cbr_source import CBRSource
    from repro.traffic.uniform import UniformTraffic

    switch = IntegratedSwitch(
        table, scheduler=PIMScheduler(seed=derive_seed(args.seed, "cli/cbr-match"))
    )
    traffic = [
        CBRSource(args.ports, table.flows(), args.frame),
        UniformTraffic(
            args.ports, load=args.vbr_load,
            seed=derive_seed(args.seed, "cli/cbr-vbr"),
        ),
    ]
    result = switch.run(traffic, slots=args.slots, warmup=args.warmup, probe=probe)
    print(result.summary())
    print(
        f"  cbr: {result.cbr_delay.count} cells, mean delay "
        f"{result.cbr_delay.mean:.2f} slots; vbr: {result.vbr_delay.count} "
        f"cells, mean delay {result.vbr_delay.mean:.2f} slots"
    )
    bound = (
        f", bound max {max(result.cbr_buffer_bound)}"
        if result.cbr_buffer_bound else ""
    )
    print(
        f"  reserved slots used {result.cbr_slots_used}, donated "
        f"{result.cbr_slots_donated}; peak cbr buffer "
        f"{result.peak_cbr_buffer}{bound}"
    )
    _finish_probe(probe)
    return 0


def cmd_statistical(args: argparse.Namespace) -> int:
    """Statistically-matched switch (Section 5), on either backend."""
    from repro.check.differential import _random_allocations
    from repro.sim.rng import derive_seed

    probe = _build_probe(args)
    rng = np.random.default_rng(derive_seed(args.seed, "cli/stat-allocations"))
    allocations = _random_allocations(
        args.ports, args.units, rng, fraction=args.utilization
    )
    match_seed = derive_seed(args.seed, "cli/stat-match")
    print(
        f"{args.ports}x{args.ports} statistical matching, X={args.units} units "
        f"({int(allocations.sum())} allocated), rounds {args.rounds}, "
        f"fill {'on' if args.fill else 'off'}, load {args.load}"
    )
    if args.backend == "fastpath":
        from repro.sim.fastpath_statistical import run_fastpath_statistical

        result = run_fastpath_statistical(
            allocations,
            args.units,
            args.load,
            args.slots,
            rounds=args.rounds,
            fill=args.fill,
            replicas=args.replicas,
            warmup=args.warmup,
            seed=args.seed,
            match_seed=match_seed,
            probe=probe,
        )
        print(result.summary())
        _finish_probe(probe)
        return 0
    if args.replicas != 1:
        print("error: --replicas needs --backend fastpath", file=sys.stderr)
        return 2
    from repro.core.statistical import StatisticalMatcher
    from repro.switch.switch import CrossbarSwitch
    from repro.traffic.uniform import UniformTraffic

    matcher = StatisticalMatcher(
        allocations, units=args.units, rounds=args.rounds,
        seed=match_seed, fill=args.fill,
    )
    switch = CrossbarSwitch(args.ports, matcher)
    traffic = UniformTraffic(
        args.ports, load=args.load, seed=derive_seed(args.seed, "cli/stat-traffic")
    )
    result = switch.run(traffic, slots=args.slots, warmup=args.warmup, probe=probe)
    print(result.summary())
    _finish_probe(probe)
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    """Multi-switch fabric (Section 2's LAN view), on either backend."""
    from repro.network.netsim import FlowSpec, NetworkSimulator
    from repro.network.topologies import build
    from repro.sim.rng import derive_seed

    topo, hosts = build(args.topology, args.size, latency=args.latency)
    if len(hosts) < 2:
        print(
            f"error: {args.topology}(size={args.size}) has {len(hosts)} hosts; "
            "need at least 2 for flows",
            file=sys.stderr,
        )
        return 2
    flow_rng = np.random.default_rng(derive_seed(args.seed, "cli/network-flows"))
    rates = (1.0, 0.8, 0.5, 0.25)
    flows = []
    for flow_id in range(1, args.flows + 1):
        src, dst = flow_rng.choice(len(hosts), size=2, replace=False)
        flows.append(
            FlowSpec(flow_id, hosts[src], hosts[dst], float(flow_rng.choice(rates)))
        )
    limit = args.buffer_limit if args.buffer_limit > 0 else None
    print(
        f"{args.topology}(size={args.size}): {len(topo.switches())} switches, "
        f"{len(hosts)} hosts, {len(flows)} flows, link latency {args.latency}"
        + (f", buffer limit {limit}" if limit else "")
    )
    for flow in flows:
        print(f"  flow {flow.flow_id}: {flow.src} -> {flow.dst} rate {flow.rate}")
    if args.backend == "fastpath":
        from repro.sim.fastpath_network import run_fastpath_network

        result = run_fastpath_network(
            topo,
            flows,
            args.slots,
            replicas=args.replicas,
            warmup=args.warmup,
            scheduler=args.scheduler,
            seed=args.seed,
            buffer_limit=limit,
        )
        print(result.summary())
        return 0
    if args.replicas != 1:
        print("error: --replicas needs --backend fastpath", file=sys.stderr)
        return 2
    if args.scheduler != "pim":
        print("error: --scheduler needs --backend fastpath", file=sys.stderr)
        return 2
    sim = NetworkSimulator(topo, seed=args.seed, buffer_limit=limit)
    for flow in flows:
        sim.add_flow(flow)
    result = sim.run(args.slots, warmup=args.warmup)
    window = args.slots - args.warmup
    print(f"{len(flows)} flows over {window} post-warm-up slots:")
    for flow in flows:
        stats = result.delay.get(flow.flow_id)
        delay = (
            f"mean delay {stats.mean:8.2f} ({stats.count} cells)"
            if stats is not None and stats.count
            else "no warm deliveries"
        )
        print(
            f"  flow {flow.flow_id}: throughput "
            f"{result.throughput(flow.flow_id):6.4f}  {delay}"
        )
    return 0


def cmd_sched_study(args: argparse.Namespace) -> int:
    """Cross-scheduler delay-vs-load study on the fast path."""
    from repro.analysis.scheduler_study import (
        format_table,
        rows_for_record,
        run_study,
    )

    print(
        f"{args.ports}x{args.ports} fast path, {args.replicas} replicas, "
        f"{args.slots} slots (warmup {args.slots // 5}), "
        f"schedulers: {', '.join(args.schedulers)}"
    )
    rows = run_study(
        ports=args.ports,
        loads=args.loads,
        slots=args.slots,
        replicas=args.replicas,
        iterations=args.iterations,
        seed=args.seed,
        schedulers=args.schedulers,
    )
    print(format_table(rows))
    violations = [row for row in rows if row.bound_ok is False]
    if violations:
        for row in violations:
            print(
                f"BOUND VIOLATION: {row.scheduler} at load {row.load:.2f}: "
                f"measured {row.mean_delay:.2f} > bound {row.bound:.2f}",
                file=sys.stderr,
            )
    else:
        finite = sum(1 for row in rows if row.bound_ok is not None)
        print(
            f"\nmaximal-matching delay bound held at all {finite} "
            "applicable points"
        )
    if args.record:
        from repro.obs.store import record_result

        entry = record_result(
            "sched_study",
            rows_for_record(rows),
            config={
                "ports": args.ports,
                "loads": list(args.loads),
                "slots": args.slots,
                "replicas": args.replicas,
                "iterations": args.iterations,
                "schedulers": list(args.schedulers),
            },
            seed=args.seed,
        )
        print(f"recorded {entry.bench} run {entry.run_id}")
    return 1 if violations else 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    """The named-scenario registry, one line per scenario."""
    from repro.traffic.scenarios import list_scenarios

    print(f"{'name':<19}{'ports':>6}{'load':>6}{'slots':>7}{'warmup':>8}  description")
    for spec in list_scenarios():
        print(
            f"{spec.name:<19}{spec.ports:>6}{spec.load:>6.2f}{spec.slots:>7}"
            f"{spec.warmup:>8}  {spec.description}"
        )
    return 0


def _run_trace_replay(args: argparse.Namespace) -> int:
    """``scenario run --trace``: replay a recorded trace file.

    JSON traces carry their own port count; rotorsim-style CSV traces
    (``slot,input,output`` rows) need ``--ports``.  The replay runs on
    either backend; flow-completion stats need flow-aware sources, so
    the FCT columns come out blank (the cell-level summary still
    prints).
    """
    from repro.analysis.fct_tables import fct_row, format_fct_table
    from repro.core.batch import build_object_scheduler
    from repro.sim.rng import derive_seed
    from repro.traffic.trace import TraceTraffic

    if args.parity:
        print("error: --parity and --trace are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.replicas != 1:
        print("error: --trace replays one fixed schedule; --replicas "
              "must stay 1", file=sys.stderr)
        return 2
    try:
        if args.trace.endswith(".csv"):
            if args.ports is None:
                print("error: CSV traces carry no port count; pass --ports",
                      file=sys.stderr)
                return 2
            traffic = TraceTraffic.load_csv(args.trace, args.ports)
        else:
            traffic = TraceTraffic.load(args.trace)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ports = traffic.ports
    slots = args.slots if args.slots is not None else traffic.last_slot + 1
    if slots < 1:
        print(f"error: {args.trace}: trace is empty", file=sys.stderr)
        return 2
    warmup = args.warmup if args.warmup is not None else 0
    drain = args.drain if args.drain is not None else max(600, 2 * slots)
    load = traffic.total_cells / (ports * slots) if slots else 0.0
    print(
        f"trace replay {args.trace}: {traffic.total_cells} cells, "
        f"{ports}x{ports}, {slots} arrival slots (warmup {warmup}, "
        f"drain {drain}), scheduler {args.scheduler}, backend {args.backend}"
    )
    if args.backend == "fastpath":
        from repro.sim.fastpath import run_fastpath

        result = run_fastpath(
            ports,
            load,
            slots,
            replicas=1,
            warmup=warmup,
            iterations=args.iterations,
            scheduler=args.scheduler,
            seed=args.seed,
            sources=[traffic],
            drain_slots=drain,
            warmup_mode="arrival",
        )
    else:
        from repro.switch.switch import CrossbarSwitch

        scheduler = build_object_scheduler(
            args.scheduler,
            iterations=args.iterations,
            seed=derive_seed(args.seed, "cli/scenario-match"),
            ports=ports,
        )
        switch = CrossbarSwitch(ports, scheduler)
        result = switch.run(traffic, slots=slots + drain, warmup=warmup)
    print(result.summary())
    print()
    print(format_fct_table(
        [fct_row(args.trace, args.scheduler, args.backend,
                 getattr(result, "fct", None), result)]
    ))
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """One named scenario on either backend, with per-flow FCT stats."""
    from repro.analysis.fct_tables import fct_row, format_fct_table
    from repro.sim.rng import derive_seed
    from repro.traffic.scenarios import get_scenario

    if args.trace is not None:
        if args.name is not None:
            print("error: --trace replays a file; omit the scenario name",
                  file=sys.stderr)
            return 2
        return _run_trace_replay(args)
    if args.name is None:
        print("error: pass a scenario name (see 'scenario list') or --trace",
              file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    slots = args.slots if args.slots is not None else spec.slots
    if args.warmup is not None:
        warmup = args.warmup
    elif args.slots is not None:
        # Shortened run: scale the warmup down with it, or the whole
        # arrival window could fall inside the discarded transient.
        warmup = min(spec.warmup, slots // 5)
    else:
        warmup = spec.warmup
    drain = args.drain if args.drain is not None else max(600, 2 * slots)
    ports = args.ports if args.ports is not None else spec.ports
    load = args.load if args.load is not None else spec.load

    if args.parity:
        from repro.check.differential import scenario_parity
        from repro.check.invariants import InvariantViolation

        try:
            report = scenario_parity(
                args.name,
                scheduler=args.scheduler,
                slots=slots,
                seed=args.seed,
                warmup=warmup,
                drain_slots=drain,
                iterations=args.iterations,
                ports=args.ports,
                load=args.load,
            )
        except InvariantViolation as exc:
            print(f"PARITY FAILURE: {exc}", file=sys.stderr)
            return 1
        print(report)
        rows = [
            fct_row(args.name, args.scheduler, "object",
                    report.object_result.fct, report.object_result),
            fct_row(args.name, args.scheduler, "fastpath",
                    report.fast_result.fct, report.fast_result),
        ]
        print()
        print(format_fct_table(rows))
        return 0

    print(
        f"scenario {spec.name}: {spec.description}\n"
        f"  {ports}x{ports}, load {load}, {slots} arrival slots "
        f"(warmup {warmup}, drain {drain}), scheduler {args.scheduler}, "
        f"backend {args.backend}"
    )
    if args.backend == "fastpath":
        from repro.sim.fastpath import run_fastpath

        sources = [
            spec.build_source(
                derive_seed(args.seed, f"cli/scenario-traffic/{replica}"),
                ports=args.ports,
                load=args.load,
            )
            for replica in range(args.replicas)
        ]
        result = run_fastpath(
            ports,
            load,
            slots,
            replicas=args.replicas,
            warmup=warmup,
            iterations=args.iterations,
            scheduler=args.scheduler,
            seed=args.seed,
            sources=sources,
            drain_slots=drain,
            warmup_mode="arrival",
        )
    else:
        if args.replicas != 1:
            print("error: --replicas needs --backend fastpath", file=sys.stderr)
            return 2
        from repro.core.batch import build_object_scheduler
        from repro.switch.switch import CrossbarSwitch
        from repro.traffic.flows import WindowedSource

        scheduler = build_object_scheduler(
            args.scheduler,
            iterations=args.iterations,
            seed=derive_seed(args.seed, "cli/scenario-match"),
            ports=ports,
        )
        source = spec.build_source(
            derive_seed(args.seed, "cli/scenario-traffic/0"),
            ports=args.ports,
            load=args.load,
        )
        switch = CrossbarSwitch(ports, scheduler)
        result = switch.run(
            WindowedSource(source, slots), slots=slots + drain, warmup=warmup
        )
    print(result.summary())
    print()
    print(format_fct_table(
        [fct_row(spec.name, args.scheduler, args.backend, result.fct, result)]
    ))
    return 0


def cmd_scenario_smoke(args: argparse.Namespace) -> int:
    """One small scenario per kernel, both backends, parity-checked.

    Kernel ``i`` runs scenario ``i mod len(registry)``, so every batched
    kernel and every named scenario appears at least once.  Each run is
    a full :func:`repro.check.differential.scenario_parity` comparison;
    the combined FCT table goes to stdout and, with ``--out``, to a
    file for CI artifacting.
    """
    from repro.analysis.fct_tables import fct_row, format_fct_table
    from repro.check.differential import scenario_parity
    from repro.check.invariants import InvariantViolation
    from repro.core.batch import BATCH_SCHEDULERS
    from repro.traffic.scenarios import SCENARIOS

    names = list(SCENARIOS)
    rows = []
    failures = []
    for index, scheduler in enumerate(BATCH_SCHEDULERS):
        scenario = names[index % len(names)]
        try:
            report = scenario_parity(
                scenario,
                scheduler=scheduler,
                slots=args.slots,
                seed=args.seed,
                warmup=args.warmup,
            )
        except InvariantViolation as exc:
            failures.append(str(exc))
            print(f"PARITY FAILURE: {exc}", file=sys.stderr)
            continue
        print(report)
        rows.append(
            fct_row(scenario, scheduler, "object",
                    report.object_result.fct, report.object_result)
        )
        rows.append(
            fct_row(scenario, scheduler, "fastpath",
                    report.fast_result.fct, report.fast_result)
        )
    table = format_fct_table(rows)
    print()
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(table + "\n")
            for failure in failures:
                handle.write(f"PARITY FAILURE: {failure}\n")
        print(f"\nwrote FCT table to {args.out}")
    if failures:
        print(f"\n{len(failures)} parity failures", file=sys.stderr)
        return 1
    print(f"\nall {len(BATCH_SCHEDULERS)} kernel/scenario parity runs passed")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Randomized invariant/differential sweeps (see repro.check)."""
    from repro.check.fuzz import FAMILIES, fuzz

    selected = list(FAMILIES) if args.suite == "all" else [args.suite]
    ok = True
    for name in selected:
        report = fuzz(
            name,
            seeds=args.seeds,
            budget_seconds=args.budget,
            out_dir=args.out,
            base_seed=args.seed,
        )
        print(f"[{name}] {report.describe()}")
        ok = ok and report.ok
    return 0 if ok else 1


def _budget_seconds(text: str) -> float:
    """Parse a wall-clock budget: plain seconds, '60s', or '2m'."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def _summarize_events(events) -> dict:
    """Machine-readable summary of a trace's events.

    This dict is the single source for both output formats of ``trace
    summarize``: the text renderer prints it, and ``--format json``
    dumps it verbatim (so the JSON is exactly what the text shows).
    """
    slot_begins = [e for e in events if e.kind == "slot_begin"]
    transfers = [e for e in events if e.kind == "crossbar_transfer"]
    departures = [e for e in events if e.kind == "cell_departure"]
    snapshots = [e for e in events if e.kind == "voq_snapshot"]
    pim_by_slot = {}
    for e in events:
        if e.kind == "pim_iteration":
            pim_by_slot.setdefault(e.slot, []).append(e)

    summary = {
        "events": len(events),
        "slots_traced": len(slot_begins),
        "offered_cells": sum(e.arrivals for e in slot_begins),
        "carried_cells": sum(e.cells for e in transfers),
        "departures": len(departures),
        "mean_delay": (
            sum(e.delay for e in departures) / len(departures)
            if departures
            else None
        ),
    }

    manifests = [e for e in events if e.kind == "run_manifest"]
    if manifests:
        summary["manifest"] = manifests[0].manifest

    if pim_by_slot:
        # Table 1's statistic from the trace: for each slot, matched is
        # cumulative per iteration; slots that converged early carry
        # their final size forward to K.
        iterations_per_slot = []
        k_max = 0
        for rounds in pim_by_slot.values():
            rounds.sort(key=lambda e: e.iteration)
            iterations_per_slot.append(rounds[-1].iteration)
            k_max = max(k_max, rounds[-1].iteration)
        within_k = [0] * k_max
        final_total = 0
        for rounds in pim_by_slot.values():
            final_total += rounds[-1].matched
            for k in range(k_max):
                within_k[k] += rounds[min(k, len(rounds) - 1)].matched
        summary["pim"] = {
            "sampled_slots": len(pim_by_slot),
            "mean_iterations": sum(iterations_per_slot) / len(iterations_per_slot),
            "within_k_pct": {
                f"K={k + 1}": (
                    100.0 * within_k[k] / final_total if final_total else 0.0
                )
                for k in range(k_max)
            },
        }

    if snapshots:
        hottest = max(snapshots, key=lambda e: e.total)
        summary["voq"] = {
            "snapshots": len(snapshots),
            "peak_occupancy": hottest.total,
            "peak_slot": hottest.slot,
        }

    profiles = [e for e in events if e.kind == "phase_profile"]
    if profiles:
        profile = profiles[-1]
        summary["phases"] = {
            "phases": profile.phases,
            "wall_seconds": profile.wall_seconds,
            "slots": profile.slots,
            "cells": profile.cells,
        }
    return summary


def _phase_report_from_summary(phases: dict):
    """A renderable PhaseReport from a summary's ``phases`` block."""
    from repro.obs.perf import PhaseReport, PhaseStat

    wall = phases.get("wall_seconds", 0.0)
    stats = [
        PhaseStat(
            path=path,
            calls=int(stat.get("calls", 0)),
            seconds=stat.get("seconds", 0.0),
            share=(stat.get("seconds", 0.0) / wall) if wall > 0 else 0.0,
        )
        for path, stat in phases.get("phases", {}).items()
    ]
    slots = phases.get("slots", -1)
    cells = phases.get("cells", -1)
    return PhaseReport(
        phases=stats,
        wall_seconds=wall,
        slots=slots if slots is not None and slots >= 0 else None,
        cells=cells if cells is not None and cells >= 0 else None,
    )


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    """Render a traced run: totals, PIM anatomy, backlog curve."""
    from repro.analysis.ascii_plot import bar_chart, line_chart
    from repro.obs import read_events, write_csv_summary

    try:
        events = list(read_events(args.path))
    except FileNotFoundError:
        print(f"{args.path}: no such trace file", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"{args.path}: malformed trace: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"{args.path}: empty trace", file=sys.stderr)
        return 1

    summary = _summarize_events(events)
    if args.csv:
        rows = write_csv_summary(events, args.csv)
        summary["csv"] = {"path": args.csv, "rows": rows}
    if args.format == "json":
        summary["path"] = args.path
        print(json.dumps(summary, indent=2))
        return 0

    print(f"trace: {args.path}  ({summary['events']} events)")
    print(f"  slots traced    : {summary['slots_traced']}")
    print(f"  offered cells   : {summary['offered_cells']}")
    print(f"  carried cells   : {summary['carried_cells']}")
    if summary["departures"]:
        print(
            f"  mean delay      : {summary['mean_delay']:.2f} slots "
            f"({summary['departures']} cell departures)"
        )
    if "manifest" in summary:
        manifest = summary["manifest"]
        print(
            f"  manifest        : git {manifest.get('git_sha', 'unknown')[:12]}  "
            f"seed {manifest.get('seed')}  config {manifest.get('config_hash', '')}"
        )

    if "pim" in summary:
        pim = summary["pim"]
        print(f"\nPIM anatomy ({pim['sampled_slots']} sampled slots):")
        print(f"  mean iterations/slot : {pim['mean_iterations']:.2f}")
        print("  % of final matches found within K iterations (cf. Table 1):")
        shares = pim["within_k_pct"]
        for name, pct in shares.items():
            print(f"    {name}  {pct:6.2f}%")
        if args.plot:
            print()
            print(bar_chart(shares, width=40, reference=100.0, reference_label="100%"))

    if args.plot:
        slot_begins = [e for e in events if e.kind == "slot_begin"]
        if len(slot_begins) >= 2:
            backlog_points = [(float(e.slot), float(e.backlog)) for e in slot_begins]
            print("\nbacklog at slot start:")
            print(
                line_chart(
                    {"backlog": backlog_points},
                    width=60,
                    height=10,
                    x_label="slot",
                )
            )
    if "voq" in summary:
        voq = summary["voq"]
        print(
            f"\n{voq['snapshots']} VOQ snapshots; peak pooled occupancy "
            f"{voq['peak_occupancy']} cells at slot {voq['peak_slot']}"
        )
    if "phases" in summary:
        print("\nphase profile:")
        print(_phase_report_from_summary(summary["phases"]).render())
    if "csv" in summary:
        print(
            f"\nwrote per-slot summary ({summary['csv']['rows']} rows) "
            f"to {summary['csv']['path']}"
        )
    return 0


def _history_store(args: argparse.Namespace):
    """A PerfStore rooted at --history (default: the repo's history)."""
    from repro.obs.store import DEFAULT_HISTORY_DIR, PerfStore

    return PerfStore(args.history or DEFAULT_HISTORY_DIR)


def _print_manifest(manifest: dict) -> None:
    print(
        f"manifest: git {manifest.get('git_sha', 'unknown')[:12]}  "
        f"python {manifest.get('python_version', '?')}  "
        f"numpy {manifest.get('numpy_version', '?')}  "
        f"seed {manifest.get('seed')}  config {manifest.get('config_hash', '')}"
    )


def cmd_perf_report(args: argparse.Namespace) -> int:
    """Per-phase breakdown: profile a run now, or render a history entry."""
    from repro.obs.perf import PhaseReport, PhaseTimer, RunManifest

    if args.from_history is not None:
        store = _history_store(args)
        try:
            entry = store.resolve(args.bench, args.from_history)
        except (LookupError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"bench {entry.bench}, run {entry.run_id}")
        _print_manifest(entry.manifest)
        if entry.phases is None:
            print(
                f"error: run {entry.run_id} recorded no phase breakdown",
                file=sys.stderr,
            )
            return 1
        print()
        print(PhaseReport.from_dict(entry.phases).render())
        return 0

    timer = PhaseTimer()
    slots_total = args.replicas * args.slots
    cells = None
    if args.backend == "fastpath":
        from repro.sim.fastpath import run_fastpath

        result = run_fastpath(
            args.ports, args.load, args.slots, replicas=args.replicas,
            warmup=args.warmup, seed=args.seed, phase_timer=timer,
        )
        cells = int(result.carried_cells.sum())
    elif args.backend == "cbr":
        from repro.sim.fastpath_cbr import run_fastpath_cbr

        table = _build_reservations(args.ports, 50, 0.5, args.seed)
        result = run_fastpath_cbr(
            table, args.load, args.slots, replicas=args.replicas,
            warmup=args.warmup, seed=args.seed, phase_timer=timer,
        )
        cells = int(result.carried_cbr.sum() + result.carried_vbr.sum())
    elif args.backend == "statistical":
        from repro.check.differential import _random_allocations
        from repro.sim.fastpath_statistical import run_fastpath_statistical
        from repro.sim.rng import derive_seed

        rng = np.random.default_rng(derive_seed(args.seed, "cli/stat-allocations"))
        allocations = _random_allocations(args.ports, 16, rng, fraction=0.75)
        result = run_fastpath_statistical(
            allocations, 16, args.load, args.slots, replicas=args.replicas,
            warmup=args.warmup, seed=args.seed, phase_timer=timer,
        )
        cells = int(result.carried_cells.sum())
    elif args.backend == "network":
        from repro.network.netsim import FlowSpec
        from repro.network.topologies import build
        from repro.sim.fastpath_network import run_fastpath_network
        from repro.sim.rng import derive_seed

        topo, hosts = build("parking_lot", 3, latency=1)
        flow_rng = np.random.default_rng(derive_seed(args.seed, "cli/network-flows"))
        flows = []
        for flow_id in range(1, 5):
            src, dst = flow_rng.choice(len(hosts), size=2, replace=False)
            flows.append(FlowSpec(flow_id, hosts[src], hosts[dst], args.load))
        result = run_fastpath_network(
            topo, flows, args.slots, replicas=args.replicas,
            warmup=args.warmup, seed=args.seed, phase_timer=timer,
        )
        cells = int(result.delivered.sum())
    elif args.backend == "object":
        from repro.core.pim import PIMScheduler
        from repro.switch.switch import CrossbarSwitch
        from repro.traffic.uniform import UniformTraffic

        switch = CrossbarSwitch(args.ports, PIMScheduler(seed=args.seed))
        traffic = UniformTraffic(args.ports, load=args.load, seed=args.seed + 1)
        switch.run(
            traffic, slots=args.slots, warmup=args.warmup, phase_timer=timer
        )
        slots_total = args.slots
    else:  # parity: both backends nested under parity/object and parity/fastpath
        from repro.check.differential import backend_parity

        drain_slots = 500
        backend_parity(
            args.ports, args.load, args.slots, seed=args.seed,
            drain_slots=drain_slots, phase_timer=timer,
        )
        slots_total = 2 * (args.slots + drain_slots)

    manifest = RunManifest.collect(seed=args.seed, config=_args_config(args))
    print(f"profiled {args.backend} run:")
    _print_manifest(manifest.to_dict())
    print()
    print(timer.report(slots=slots_total, cells=cells).render())
    return 0


def cmd_perf_list(args: argparse.Namespace) -> int:
    """Recorded history entries, per bench."""
    store = _history_store(args)
    benches = [args.bench] if args.bench else store.benches()
    if not benches:
        print(f"no perf history under {store.root}", file=sys.stderr)
        return 1
    status = 0
    for bench in benches:
        try:
            entries = store.load(bench)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"{bench}: {len(entries)} entries")
        if not entries and args.bench:
            status = 1
        for index, entry in enumerate(entries):
            sha = entry.manifest.get("git_sha", "unknown")[:12]
            extra = "  +phases" if entry.phases else ""
            print(
                f"  [{index}] {entry.run_id}  git {sha}  "
                f"{len(entry.results)} results{extra}"
            )
    return status


def cmd_perf_compare(args: argparse.Namespace) -> int:
    """Config-by-config diff of two history entries."""
    from repro.obs.store import compare_entries

    store = _history_store(args)
    try:
        entry_a = store.resolve(args.bench, args.run_a)
        entry_b = store.resolve(args.bench, args.run_b)
    except (LookupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = compare_entries(entry_a, entry_b, metric=args.metric)
    print(f"bench {args.bench}, metric {args.metric}:")
    print(f"  a = {entry_a.run_id}  (git {entry_a.manifest.get('git_sha', '?')[:12]})")
    print(f"  b = {entry_b.run_id}  (git {entry_b.manifest.get('git_sha', '?')[:12]})")
    if not rows:
        print("  no shared configs carry this metric", file=sys.stderr)
        return 1
    for row in rows:
        print(
            f"  {row['a']:>12.2f} -> {row['b']:>12.2f}  "
            f"(x{row['ratio']:.2f})  {row['config']}"
        )
    ratios = sorted(row["ratio"] for row in rows)
    print(f"  ratio b/a: min x{ratios[0]:.2f}, max x{ratios[-1]:.2f}")
    return 0


def cmd_perf_gate(args: argparse.Namespace) -> int:
    """Gate the newest history entry of each bench against its past."""
    from repro.obs.store import DEFAULT_TOLERANCE, gate

    store = _history_store(args)
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    benches = [args.bench] if args.bench else store.benches()
    if not benches:
        print(f"no perf history under {store.root}", file=sys.stderr)
        return 1
    ok = True
    for bench in benches:
        try:
            entries = store.load(bench)
            if not entries:
                raise ValueError(f"no history recorded for bench {bench!r}")
            report = gate(
                entries, bench=bench, metric=args.metric, tolerance=tolerance
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"[{bench}]")
        print(report.describe())
        ok = ok and report.ok
    return 0 if ok else 1


def _parse_set(items: Optional[List[str]]) -> dict:
    """Parse repeated ``--set key=value`` flags into a parameter dict.

    Values parse as JSON when they can (``--set slots=100`` is an int,
    ``--set measure='"speedup"'`` a string) and fall back to the raw
    string otherwise, so bare words work without quoting gymnastics.
    """
    out = {}
    for item in items or []:
        key, sep, text = item.partition("=")
        if not sep or not key.strip():
            raise argparse.ArgumentTypeError(
                f"--set needs key=value, got {item!r}"
            )
        try:
            out[key.strip()] = json.loads(text)
        except json.JSONDecodeError:
            out[key.strip()] = text
    return out


def _load_fleet_spec(args: argparse.Namespace):
    """(spec, results_path, extra_defaults) from the shared fleet flags."""
    import os

    from repro.fleet import load_spec

    spec = load_spec(args.spec)
    results = args.results or os.path.join("fleet-results", f"{spec.name}.jsonl")
    extra = _parse_set(args.set)
    return spec, results, extra


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run (or resume) a sweep spec across a worker pool."""
    from repro.fleet import record_sweep, render_report, run_sweep

    try:
        spec, results, extra = _load_fleet_spec(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(spec.summary())
    print(f"results: {results}  pool: {args.pool}")
    outcome = run_sweep(
        spec, results, pool=args.pool, extra_defaults=extra, progress=print
    )
    print()
    print(outcome.describe())
    if not outcome.ok:
        return 1
    print()
    print(render_report(spec, outcome.records))
    if args.record:
        from repro.obs.store import DEFAULT_HISTORY_DIR

        entry = record_sweep(
            spec,
            outcome.records,
            history_dir=args.history or DEFAULT_HISTORY_DIR,
            snapshot=args.snapshot,
        )
        print(f"\nrecorded {entry.bench} run {entry.run_id}")
    return 0


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """Where a sweep stands: done / error / pending cells vs the spec."""
    from repro.fleet import sweep_status

    try:
        spec, results, extra = _load_fleet_spec(args)
        print(sweep_status(spec, results, extra))
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_fleet_report(args: argparse.Namespace) -> int:
    """Aggregate a sweep's completed cells into tables."""
    from repro.fleet import SweepStore, render_report

    try:
        spec, results, _ = _load_fleet_spec(args)
        records = list(SweepStore(results).latest_done().values())
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records.sort(key=lambda r: r["index"])
    text = render_report(spec, records, metrics=args.metrics)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nwrote report to {args.out}")
    return 0 if records else 1


def cmd_fleet_gate(args: argparse.Namespace) -> int:
    """Gate the current sweep against the bench's recorded trajectory.

    The sweep store's completed cells become the candidate entry; the
    baseline is every entry recorded for the spec's bench name in the
    perf history (``fleet run --record`` appends them).  Same median /
    tolerance policy as ``perf gate``.
    """
    from repro.fleet import SweepStore, sweep_entry
    from repro.obs.store import DEFAULT_TOLERANCE, gate

    try:
        spec, results, _ = _load_fleet_spec(args)
        records = list(SweepStore(results).latest_done().values())
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: no completed cells in {results}; run the sweep first",
              file=sys.stderr)
        return 1
    records.sort(key=lambda r: r["index"])
    candidate = sweep_entry(spec, records)
    store = _history_store(args)
    try:
        baseline = store.load(spec.bench_name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    try:
        report = gate(
            baseline + [candidate],
            bench=spec.bench_name,
            metric=args.metric,
            tolerance=tolerance,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[{spec.bench_name}] candidate: current sweep store "
          f"({len(records)} cells), baseline: {len(baseline)} recorded runs")
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-an2`` argument parser."""
    from repro.core.batch import BATCH_SCHEDULERS
    from repro.network.topologies import TOPOLOGIES

    parser = argparse.ArgumentParser(
        prog="repro-an2",
        description="Experiments from 'High Speed Switch Scheduling for LANs' (ASPLOS 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="AN2 headline hardware numbers").set_defaults(func=cmd_info)

    delay = sub.add_parser("delay", help="one scheduler/workload/load point")
    delay.add_argument("--scheduler", default="pim",
                       choices=["pim", "pim-inf", "islip", "lqf", "wavefront",
                                "qps", "maximum", "fifo", "output-queueing"])
    delay.add_argument("--workload", default="uniform",
                       choices=["uniform", "clientserver", "bursty", "periodic"])
    delay.add_argument("--load", type=float, default=0.9)
    delay.add_argument("--ports", type=int, default=16)
    delay.add_argument("--iterations", type=int, default=4)
    delay.add_argument("--slots", type=int, default=10_000)
    delay.add_argument("--warmup", type=int, default=1_000)
    delay.add_argument("--seed", type=int, default=0)
    delay.add_argument("--backend", default="object", choices=["object", "fastpath"],
                       help="object = per-cell CrossbarSwitch; fastpath = "
                            "count-based vectorized simulator (uniform workload; "
                            "pim/pim-inf/islip/lqf/wavefront/qps)")
    delay.add_argument("--trace", metavar="PATH", default=None,
                       help="write per-slot trace events to PATH as JSONL")
    delay.add_argument("--metrics", action="store_true",
                       help="collect and print a metrics registry summary")
    delay.add_argument("--trace-stride", type=_positive_int, default=1, metavar="N",
                       help="sample volume-heavy events (PIM anatomy, VOQ "
                            "snapshots) every N slots (default 1)")
    delay.add_argument("--profile", action="store_true",
                       help="time the run's phases (compile/arrivals/kernel/"
                            "update) and print the per-phase breakdown; with "
                            "--trace the profile also lands in the trace")
    delay.set_defaults(func=cmd_delay)

    sweep = sub.add_parser("sweep", help="Figure 3/4 style load sweep")
    sweep.add_argument("--workload", default="uniform",
                       choices=["uniform", "clientserver", "bursty"])
    sweep.add_argument("--loads", type=float, nargs="+",
                       default=[0.4, 0.6, 0.8, 0.9, 0.95])
    sweep.add_argument("--ports", type=int, default=16)
    sweep.add_argument("--iterations", type=int, default=4)
    sweep.add_argument("--slots", type=int, default=10_000)
    sweep.add_argument("--warmup", type=int, default=1_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=cmd_sweep)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--patterns", type=int, default=5_000)
    table1.add_argument("--ports", type=int, default=16)
    table1.add_argument("--seed", type=int, default=0)
    table1.set_defaults(func=cmd_table1)

    cbr = sub.add_parser("cbr-bounds", help="Appendix B latency/buffer bounds")
    cbr.add_argument("--hops", type=int, default=4)
    cbr.add_argument("--frame", type=int, default=1000)
    cbr.add_argument("--tolerance", type=float, default=1e-4)
    cbr.add_argument("--link-latency", type=float, default=10.0)
    cbr.add_argument("--cells", type=int, default=500)
    cbr.add_argument("--seed", type=int, default=0)
    cbr.set_defaults(func=cmd_cbr_bounds)

    fairness = sub.add_parser("fairness", help="Figure 8 and the statistical fix")
    fairness.add_argument("--slots", type=int, default=20_000)
    fairness.add_argument("--seed", type=int, default=0)
    fairness.set_defaults(func=cmd_fairness)

    cbr_run = sub.add_parser(
        "cbr",
        help="integrated CBR+VBR switch (Section 4) on a random feasible "
             "reservation table, object or vectorized fastpath backend",
    )
    cbr_run.add_argument("--ports", type=int, default=16)
    cbr_run.add_argument("--frame", type=int, default=50,
                         help="frame length F in slots (default 50)")
    cbr_run.add_argument("--utilization", type=float, default=0.5,
                         help="fraction of frame capacity reserved for CBR "
                              "(default 0.5)")
    cbr_run.add_argument("--vbr-load", type=float, default=0.6,
                         help="Bernoulli VBR load riding on top (default 0.6)")
    cbr_run.add_argument("--slots", type=int, default=10_000)
    cbr_run.add_argument("--warmup", type=int, default=1_000)
    cbr_run.add_argument("--seed", type=int, default=0)
    cbr_run.add_argument("--backend", default="object",
                         choices=["object", "fastpath"],
                         help="object = per-cell IntegratedSwitch; fastpath = "
                              "count-based vectorized simulator")
    cbr_run.add_argument("--replicas", type=_positive_int, default=1,
                         help="independent replicas (fastpath only, default 1)")
    cbr_run.add_argument("--scheduler", default="pim",
                         choices=["pim", "islip", "lqf", "wavefront", "qps"],
                         help="VBR matching kernel (fastpath only, default pim)")
    cbr_run.add_argument("--trace", metavar="PATH", default=None,
                         help="write per-slot trace events to PATH as JSONL")
    cbr_run.add_argument("--metrics", action="store_true",
                         help="collect and print a metrics registry summary")
    cbr_run.add_argument("--trace-stride", type=_positive_int, default=1,
                         metavar="N",
                         help="sample volume-heavy events every N slots")
    cbr_run.set_defaults(func=cmd_cbr)

    stat = sub.add_parser(
        "statistical",
        help="statistically-matched switch (Section 5) on a random feasible "
             "allocation matrix, object or vectorized fastpath backend",
    )
    stat.add_argument("--ports", type=int, default=16)
    stat.add_argument("--units", type=_positive_int, default=16,
                      help="allocation granularity X (default 16)")
    stat.add_argument("--utilization", type=float, default=0.75,
                      help="fraction of the X units reserved per link "
                           "(default 0.75)")
    stat.add_argument("--load", type=float, default=0.8,
                      help="Bernoulli offered load (default 0.8)")
    stat.add_argument("--rounds", type=_positive_int, default=2,
                      help="matching rounds per slot (default 2)")
    stat.add_argument("--no-fill", dest="fill", action="store_false",
                      help="disable the Section 5.2 PIM fill phase")
    stat.add_argument("--slots", type=int, default=10_000)
    stat.add_argument("--warmup", type=int, default=1_000)
    stat.add_argument("--seed", type=int, default=0)
    stat.add_argument("--backend", default="object",
                      choices=["object", "fastpath"],
                      help="object = per-cell CrossbarSwitch; fastpath = "
                           "count-based vectorized simulator")
    stat.add_argument("--replicas", type=_positive_int, default=1,
                      help="independent replicas (fastpath only, default 1)")
    stat.add_argument("--trace", metavar="PATH", default=None,
                      help="write per-slot trace events to PATH as JSONL")
    stat.add_argument("--metrics", action="store_true",
                      help="collect and print a metrics registry summary")
    stat.add_argument("--trace-stride", type=_positive_int, default=1,
                      metavar="N",
                      help="sample volume-heavy events every N slots")
    stat.set_defaults(func=cmd_statistical)

    network = sub.add_parser(
        "network",
        help="multi-switch fabric with routed host-to-host flows, object "
             "or vectorized fastpath backend",
    )
    network.add_argument("--topology", default="parking_lot",
                         choices=list(TOPOLOGIES),
                         help="bundled topology shape (default parking_lot)")
    network.add_argument("--size", type=_positive_int, default=3,
                         help="shape's natural scale knob: switches per chain, "
                              "pods per fat tree, rows per mesh (default 3)")
    network.add_argument("--latency", type=_positive_int, default=1,
                         help="link latency in slots (default 1)")
    network.add_argument("--flows", type=_positive_int, default=4,
                         help="random host-to-host flows to route (default 4)")
    network.add_argument("--slots", type=int, default=2_000)
    network.add_argument("--warmup", type=int, default=200)
    network.add_argument("--seed", type=int, default=0)
    network.add_argument("--buffer-limit", type=int, default=0,
                         help="per-output buffer credit limit in cells "
                              "(0 = unlimited, default)")
    network.add_argument("--backend", default="object",
                         choices=["object", "fastpath"],
                         help="object = per-cell NetworkSimulator; fastpath = "
                              "batched whole-fabric vectorized simulator")
    network.add_argument("--replicas", type=_positive_int, default=1,
                         help="independent replicas (fastpath only, default 1)")
    network.add_argument("--scheduler", default="pim",
                         choices=["pim", "islip", "lqf", "wavefront", "qps"],
                         help="per-switch matching kernel (fastpath only, "
                              "default pim)")
    network.set_defaults(func=cmd_network)

    study = sub.add_parser(
        "sched-study",
        help="cross-scheduler delay-vs-load study on the fast path, with "
             "the maximal-matching delay bound checked where it applies",
    )
    study.add_argument("--ports", type=int, default=16)
    study.add_argument("--loads", type=float, nargs="+",
                       default=[0.3, 0.45, 0.6, 0.75, 0.9])
    study.add_argument("--slots", type=int, default=2_000)
    study.add_argument("--replicas", type=_positive_int, default=8)
    study.add_argument("--iterations", type=_positive_int, default=4,
                       help="PIM/iSLIP iterations and QPS rounds (default 4)")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--schedulers", nargs="+", default=list(BATCH_SCHEDULERS),
                       choices=list(BATCH_SCHEDULERS),
                       help="kernels to sweep (default: the whole registry)")
    study.add_argument("--record", action="store_true",
                       help="append the table to the perf history store "
                            "(benchmarks/perf/history/sched_study.jsonl)")
    study.set_defaults(func=cmd_sched_study)

    scenario = sub.add_parser(
        "scenario",
        help="named flow-level workload scenarios with per-flow FCT stats "
             "(repro.traffic.scenarios)",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    slist = scenario_sub.add_parser("list", help="the scenario registry")
    slist.set_defaults(func=cmd_scenario_list)

    srun = scenario_sub.add_parser(
        "run",
        help="run one named scenario on either backend (defaults: the "
             "scenario's own geometry), reporting per-flow FCT stats",
    )
    srun.add_argument("name", nargs="?", default=None,
                      help="scenario name (see 'scenario list'); omit "
                           "with --trace")
    srun.add_argument("--trace", metavar="PATH", default=None,
                      help="replay a recorded trace instead of a named "
                           "scenario: .json (TraceTraffic.save) or "
                           "rotorsim-style .csv (slot,input,output rows; "
                           "needs --ports)")
    srun.add_argument("--backend", default="object",
                      choices=["object", "fastpath"],
                      help="object = per-cell CrossbarSwitch; fastpath = "
                           "count-based vectorized simulator with a "
                           "flow-exact VOQ shadow (default object)")
    srun.add_argument("--scheduler", default="islip",
                      choices=list(BATCH_SCHEDULERS),
                      help="matching kernel (default islip)")
    srun.add_argument("--replicas", type=_positive_int, default=1,
                      help="independent replicas (fastpath only, default 1)")
    srun.add_argument("--slots", type=int, default=None,
                      help="arrival-carrying slots (default: the scenario's)")
    srun.add_argument("--warmup", type=int, default=None,
                      help="warmup slots (default: the scenario's)")
    srun.add_argument("--drain", type=int, default=None,
                      help="extra arrival-free slots to drain flow tails "
                           "(default max(600, 2*slots))")
    srun.add_argument("--iterations", type=_positive_int, default=4,
                      help="PIM/iSLIP iterations and QPS rounds (default 4)")
    srun.add_argument("--seed", type=int, default=0)
    srun.add_argument("--ports", type=int, default=None,
                      help="override the scenario's port count")
    srun.add_argument("--load", type=float, default=None,
                      help="override the scenario's offered load")
    srun.add_argument("--parity", action="store_true",
                      help="run BOTH backends seed-matched and check exact "
                           "agreement (scenario_parity), printing both FCT "
                           "rows")
    srun.set_defaults(func=cmd_scenario_run)

    ssmoke = scenario_sub.add_parser(
        "smoke",
        help="one small scenario per batched kernel, object vs fastpath "
             "with exact parity; prints the combined FCT table",
    )
    ssmoke.add_argument("--slots", type=int, default=250,
                        help="arrival slots per run (default 250)")
    ssmoke.add_argument("--warmup", type=int, default=0,
                        help="warmup slots (default 0, keeps parity exact)")
    ssmoke.add_argument("--seed", type=int, default=0)
    ssmoke.add_argument("--out", metavar="PATH", default=None,
                        help="also write the FCT table to PATH (CI artifact)")
    ssmoke.set_defaults(func=cmd_scenario_smoke)

    check = sub.add_parser(
        "check",
        help="randomized invariant & differential sweep across schedulers "
             "and backends (repro.check)",
    )
    check.add_argument("--suite", default="switch",
                       choices=["switch", "cbr", "churn", "statistical",
                                "network", "scenario", "all"],
                       help="switch = scheduler invariants + PIM parity; "
                            "cbr = integrated CBR+VBR object-vs-fastpath "
                            "parity; churn = Slepian-Duguid add/remove "
                            "consistency; statistical = slot-exact "
                            "statistical-matching object-vs-fastpath parity; "
                            "network = slot-exact whole-fabric "
                            "object-vs-fastpath parity; scenario = named "
                            "flow-level scenario parity with FCT samples "
                            "(default switch)")
    check.add_argument("--seeds", type=_positive_int, default=25,
                       help="number of random cases to sweep (default 25)")
    check.add_argument("--budget", type=_budget_seconds, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget, e.g. 60, 60s, or 2m "
                            "(default: unbounded)")
    check.add_argument("--seed", type=int, default=0,
                       help="base seed; case i uses seed base+i (default 0)")
    check.add_argument("--out", metavar="DIR", default=None,
                       help="write shrunk failing cases to DIR as JSON "
                            "reproducers")
    check.set_defaults(func=cmd_check)

    trace = sub.add_parser("trace", help="inspect trace files written with --trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="totals, PIM anatomy, and backlog curve of a trace"
    )
    summarize.add_argument("path", help="JSONL trace file")
    summarize.add_argument("--plot", action="store_true",
                           help="render ASCII charts of the anatomy and backlog")
    summarize.add_argument("--csv", metavar="PATH", default=None,
                           help="also write a per-slot CSV summary to PATH")
    summarize.add_argument("--format", default="text", choices=["text", "json"],
                           help="text = human-readable rendering (default); "
                                "json = the same summary as one JSON object")
    summarize.set_defaults(func=cmd_trace_summarize)

    perf = sub.add_parser(
        "perf",
        help="phase profiles, run manifests, and the perf-history store "
             "(repro.obs.perf / repro.obs.store)",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    report = perf_sub.add_parser(
        "report",
        help="per-phase wall-time breakdown: profile a run now, or render "
             "the breakdown recorded in a history entry",
    )
    report.add_argument("--backend", default="fastpath",
                        choices=["fastpath", "cbr", "statistical", "network",
                                 "object", "parity"],
                        help="which simulator to profile (default fastpath)")
    report.add_argument("--ports", type=int, default=16)
    report.add_argument("--load", type=float, default=0.8)
    report.add_argument("--slots", type=int, default=2_000)
    report.add_argument("--warmup", type=int, default=200)
    report.add_argument("--replicas", type=_positive_int, default=8,
                        help="independent replicas (batch backends, default 8)")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--from-history", metavar="REF", default=None,
                        help="render a recorded entry instead of running: a "
                             "run id (or unique prefix), an integer index, "
                             "'latest', or 'prev'")
    report.add_argument("--bench", default="fastpath",
                        help="history bench name for --from-history "
                             "(default fastpath)")
    report.add_argument("--history", metavar="DIR", default=None,
                        help="history root (default benchmarks/perf/history)")
    report.set_defaults(func=cmd_perf_report)

    plist = perf_sub.add_parser("list", help="recorded history entries per bench")
    plist.add_argument("--bench", default=None,
                       help="one bench only (default: all recorded benches)")
    plist.add_argument("--history", metavar="DIR", default=None,
                       help="history root (default benchmarks/perf/history)")
    plist.set_defaults(func=cmd_perf_list)

    compare = perf_sub.add_parser(
        "compare", help="config-by-config diff of two history entries"
    )
    compare.add_argument("run_a", help="baseline entry: run id (or prefix), "
                                       "index, 'latest', or 'prev'")
    compare.add_argument("run_b", help="candidate entry, same references")
    compare.add_argument("--bench", default="fastpath",
                         help="history bench name (default fastpath)")
    compare.add_argument("--metric", default="slots_per_sec",
                         help="result field to diff (default slots_per_sec)")
    compare.add_argument("--history", metavar="DIR", default=None,
                         help="history root (default benchmarks/perf/history)")
    compare.set_defaults(func=cmd_perf_compare)

    pgate = perf_sub.add_parser(
        "gate",
        help="regression gate: newest entry vs the recorded trajectory "
             "(median of earlier runs, per matching config)",
    )
    pgate.add_argument("--bench", default=None,
                       help="one bench only (default: gate every recorded bench)")
    pgate.add_argument("--metric", default="speedup_vs_object",
                       help="result field to gate on (default "
                            "speedup_vs_object: machine-relative, so a "
                            "history recorded elsewhere stays meaningful)")
    pgate.add_argument("--tolerance", type=float, default=None,
                       help="allowed fractional drop below the baseline "
                            "median (default 0.4)")
    pgate.add_argument("--history", metavar="DIR", default=None,
                       help="history root (default benchmarks/perf/history)")
    pgate.set_defaults(func=cmd_perf_gate)

    fleet = sub.add_parser(
        "fleet",
        help="declarative sweep orchestration: run a spec file's grid "
             "across a worker pool with a crash-safe resumable results "
             "store (repro.fleet)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(p):
        p.add_argument("spec", help="sweep spec file (.toml on Python >= "
                                    "3.11, or .json)")
        p.add_argument("--results", metavar="PATH", default=None,
                       help="sweep results store (default "
                            "fleet-results/<name>.jsonl)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append",
                       default=None,
                       help="layer a parameter under the spec's defaults "
                            "(repeatable); changed parameters invalidate "
                            "completed cells, which then rerun")

    frun = fleet_sub.add_parser(
        "run",
        help="run (or resume) the sweep; completed cells are skipped, "
             "each worker appends its results crash-safely",
    )
    _fleet_common(frun)
    frun.add_argument("--pool", type=_positive_int, default=1,
                      help="worker processes (default 1; cell results are "
                           "pool-size-independent)")
    frun.add_argument("--record", action="store_true",
                      help="append the aggregated sweep to the perf history "
                           "under the spec's bench name")
    frun.add_argument("--history", metavar="DIR", default=None,
                      help="history root for --record "
                           "(default benchmarks/perf/history)")
    frun.add_argument("--snapshot", metavar="PATH", default=None,
                      help="also write a human-facing JSON snapshot "
                           "(with --record)")
    frun.set_defaults(func=cmd_fleet_run)

    fstatus = fleet_sub.add_parser(
        "status", help="done/error/pending cells of the sweep vs its spec"
    )
    _fleet_common(fstatus)
    fstatus.set_defaults(func=cmd_fleet_status)

    freport = fleet_sub.add_parser(
        "report",
        help="aggregate completed cells (median across repeats) into "
             "delay/FCT/speedup tables",
    )
    _fleet_common(freport)
    freport.add_argument("--metrics", nargs="+", default=None,
                         help="metric columns (default: the kind's standard "
                              "set plus any timing fields present)")
    freport.add_argument("--out", metavar="PATH", default=None,
                         help="also write the report to PATH (CI artifact)")
    freport.set_defaults(func=cmd_fleet_report)

    fgate = fleet_sub.add_parser(
        "gate",
        help="regression gate: the current sweep store vs the trajectory "
             "recorded for the spec's bench (same policy as 'perf gate')",
    )
    _fleet_common(fgate)
    fgate.add_argument("--metric", default="speedup_vs_object",
                       help="result field to gate on (default "
                            "speedup_vs_object; use a deterministic metric "
                            "like throughput for machine-independent gates)")
    fgate.add_argument("--tolerance", type=float, default=None,
                       help="allowed fractional drop below the baseline "
                            "median (default 0.4)")
    fgate.add_argument("--history", metavar="DIR", default=None,
                       help="history root (default benchmarks/perf/history)")
    fgate.set_defaults(func=cmd_fleet_gate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
