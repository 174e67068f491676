"""The stacked fabric slot loop against the per-switch loop it replaced.

``NetworkFastpath`` schedules a whole turn of switches with one kernel
call over per-switch stream banks; ``_per_switch_network_reference``
keeps the loop that called one kernel per busy switch.  Same draws,
same matchings: every result array, the replica-0 series and the final
state of every switch's ``sched:{switch}`` generator must be byte-equal
-- including at ``buffer_limit=1``, where whole switches are
credit-blocked and must not draw.

Wavefront is the one kernel left out: its start diagonal is one scalar
per kernel, so stacked it rotates once per fabric slot (the object
simulator's behaviour, pinned at the bottom) where the per-switch loop
rotated a switch's diagonal only in slots it had a request.
"""

import inspect
import json
import sys

import numpy as np
import pytest

import repro.sim.fastpath_network as fastpath_network
from repro.core.wavefront import WavefrontScheduler
from repro.network.netsim import FlowSpec, NetworkSimulator
from repro.network.topologies import build, mesh
from repro.sim.fastpath_network import NetworkFastpath, run_fastpath_network
from repro.sim.rng import RandomStreams
from . import _per_switch_network_reference as reference
from .test_fastpath_network import _lopsided_fabric

SLOTS = 60
KERNELS = {
    "pim-random": dict(scheduler="pim", accept="random"),
    "pim-round-robin": dict(scheduler="pim", accept="round_robin"),
    "islip": dict(scheduler="islip"),
    "lqf": dict(scheduler="lqf"),
    "qps": dict(scheduler="qps"),
}


def _random_flows(hosts, count, seed):
    rng = np.random.default_rng(seed)
    flows = []
    for flow_id in range(1, count + 1):
        src, dst = rng.choice(len(hosts), size=2, replace=False)
        rate = float(rng.choice((1.0, 0.8, 0.5, 0.25)))
        flows.append(FlowSpec(flow_id, hosts[src], hosts[dst], rate))
    return flows


def _torus(size):
    """A size x size mesh of 5-port switches with the wrap-around links:
    the first switch of a row or column neighbours the last one."""
    topo, hosts = mesh(size, size, switch_ports=5)
    for k in range(size):
        topo.connect(f"s{k}_{size - 1}", f"s{k}_0")
        topo.connect(f"s{size - 1}_{k}", f"s0_{k}")
    return topo, hosts


def _fabric(name):
    if name == "lopsided":  # 6-port and 3-port switches, shared VOQs
        return _lopsided_fabric()
    if name == "torus":
        topo, hosts = _torus(3)
    else:
        topo, hosts = build(name, {"fat_tree": 4, "mesh": 3, "parking_lot": 3}[name])
    return topo, _random_flows(hosts, 8, seed=len(hosts))


def _run(cls, module, monkeypatch, topo, flows, slots=SLOTS, flags=True, **options):
    """Result of one run plus {initial state: final state} of every
    generator the run handed to a kernel.  ``flags`` turns
    ``record_series`` and ``check`` on together."""
    generators = []

    def recording(*args, rng=None, **kwargs):
        handed = rng if isinstance(rng, list) else [rng] if rng is not None else []
        generators.extend(
            (json.dumps(g.bit_generator.state, sort_keys=True), g) for g in handed
        )
        return build(*args, rng=rng, **kwargs)

    build = module.build_batch_scheduler
    monkeypatch.setattr(module, "build_batch_scheduler", recording)
    sim = cls(topo, **options)
    for flow in flows:
        sim.add_flow(flow)
    result = sim.run(slots, warmup=10, record_series=flags, check=flags)
    monkeypatch.setattr(module, "build_batch_scheduler", build)
    return result, {first: g.bit_generator.state for first, g in generators}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("buffer_limit", [None, 1, 2, 5])
@pytest.mark.parametrize(
    "fabric", ["fat_tree", "mesh", "torus", "parking_lot", "lopsided"]
)
def test_byte_equal_to_the_per_switch_loop(monkeypatch, fabric, buffer_limit, kernel):
    topo, flows = _fabric(fabric)
    for replicas in (1, 8):
        for seed in (0, 1, 2):
            options = dict(
                replicas=replicas, seed=seed, buffer_limit=buffer_limit,
                **KERNELS[kernel],
            )
            got, got_streams = _run(
                NetworkFastpath, fastpath_network, monkeypatch, topo, flows, **options
            )
            want, want_streams = _run(
                reference.PerSwitchNetworkFastpath, reference, monkeypatch,
                topo, flows, **options,
            )
            where = f"B={replicas} seed={seed}"
            for name in (
                "delivered", "injected", "delay_cells", "delay_integral",
                "final_backlog",
            ):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (where, name)
            for name in ("injected", "delivered", "transfers", "backlog"):
                a, b = getattr(got.series, name), getattr(want.series, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (where, name)
            assert len(got_streams) == len(topo.switches()), where
            assert got_streams == want_streams, where
            assert int(got.delivered.sum()) > 0, where


def test_byte_equal_on_the_path_the_suite_times(monkeypatch):
    """Every case above runs with ``record_series`` and ``check`` on; the
    suite's ``fabric-fat-tree-k4`` runs with both off, a loop that takes
    neither branch.  Pin that path at the suite's shape: the k = 4 fat
    tree, one flow out of and one into every host (shift 3, rates
    alternating 1.0 / 0.6), B = 64, 100 slots.  Every result array and
    the final state of every generator -- each kernel's and each named
    ``sched:`` / ``host:`` stream -- must be byte-equal to the per-switch
    loop's."""
    topo, hosts = build("fat_tree", 4)
    flows = [
        FlowSpec(k + 1, host, hosts[(k + 3) % len(hosts)], (1.0, 0.6)[k % 2])
        for k, host in enumerate(hosts)
    ]
    named = []
    get = RandomStreams.get

    def recording(self, name):
        named.append((name, get(self, name)))
        return named[-1][1]

    monkeypatch.setattr(RandomStreams, "get", recording)
    runs = []
    for cls, module in (
        (NetworkFastpath, fastpath_network),
        (reference.PerSwitchNetworkFastpath, reference),
    ):
        named.clear()
        result, kernels = _run(
            cls, module, monkeypatch, topo, flows, slots=100, flags=False,
            replicas=64, seed=3,
        )
        streams = {name: g.bit_generator.state for name, g in named}
        runs.append((result, kernels, streams))
    (got, got_kernels, got_streams), (want, want_kernels, want_streams) = runs
    assert got.series is None
    for name in (
        "delivered", "injected", "delay_cells", "delay_integral", "final_backlog",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(got_kernels) == 20 and got_kernels == want_kernels
    # 20 sched: streams, and the 8 stochastic hosts' streams of 64 replicas.
    assert len(got_streams) == 20 + 8 * 64 and got_streams == want_streams
    assert int(got.delivered.sum()) > 0


def _blocked_skips(topo, flows, **options):
    """How often the per-switch loop passed over a switch whose every
    request was credit-blocked (its ``continue`` before any draw)."""
    run = reference.PerSwitchNetworkFastpath._run
    source, first = inspect.getsourcelines(run)
    skip = first + next(
        k for k, text in enumerate(source) if "no scheduling rounds run" in text
    )
    hits = []

    def lines(frame, event, _):
        if event == "line" and frame.f_lineno == skip:
            hits.append(frame.f_locals["t"])
        return lines

    sim = reference.PerSwitchNetworkFastpath(topo, **options)
    for flow in flows:
        sim.add_flow(flow)
    sys.settrace(lambda frame, *_: lines if frame.f_code is run.__code__ else None)
    try:
        sim.run(SLOTS)
    finally:
        sys.settrace(None)
    return len(hits)


def test_the_grid_meets_blocked_switches_and_several_turns():
    """The premise of the grid: limit 1 leaves requesting switches with
    nothing to schedule (so 'a blocked switch draws nothing' is under
    test, by the generator states), and with a limit the fabrics split
    into waves."""
    for fabric in ("fat_tree", "parking_lot", "lopsided"):
        topo, flows = _fabric(fabric)
        assert _blocked_skips(topo, flows, replicas=1, seed=0, buffer_limit=1) > 0
    topo, flows = _fabric("fat_tree")
    free = NetworkFastpath(topo)
    limited = NetworkFastpath(topo, buffer_limit=1)
    for flow in flows:
        free.add_flow(flow)
        limited.add_flow(flow)
    assert [t.tolist() for t in free._compile().turns] == [list(range(20))]
    turns = [t.tolist() for t in limited._compile().turns]
    assert len(turns) == 3 and turns[0] == [0, 1, 2, 3]  # cores, aggs, edges
    assert sorted(sum(turns, [])) == list(range(20))
    # Mixed widths never share a turn.
    topo, flows = _fabric("mesh")
    sim = NetworkFastpath(topo, buffer_limit=2)
    for flow in flows:
        sim.add_flow(flow)
    plan = sim._compile()
    assert all(len({plan.ports[k] for k in turn}) == 1 for turn in plan.turns)


@pytest.mark.parametrize("buffer_limit", [None, 2])
@pytest.mark.parametrize("fabric", ["fat_tree", "lopsided", "parking_lot"])
def test_wavefront_rotates_with_the_slot_like_the_object_simulator(
    fabric, buffer_limit
):
    """B=1 wavefront fabric == the object simulator with a
    ``WavefrontScheduler`` at every switch: the object schedules every
    switch every slot, idle or not, so its diagonals turn with the slot
    -- as one stacked kernel's single diagonal does."""
    topo, flows = _fabric(fabric)
    records = []
    simulator = NetworkSimulator(
        topo,
        seed=3,
        buffer_limit=buffer_limit,
        scheduler_factory=lambda name, ports: WavefrontScheduler(),
    )
    for flow in flows:
        simulator.add_flow(flow)
    simulator.run(150, observer=records.append)
    series = run_fastpath_network(
        topo, flows, 150, seed=3, buffer_limit=buffer_limit,
        scheduler="wavefront", record_series=True, check=True,
    ).series
    for name, columns in (
        ("injected", series.flow_ids),
        ("delivered", series.flow_ids),
        ("transfers", series.switch_names),
        ("backlog", series.switch_names),
    ):
        want = [[getattr(r, name).get(c, 0) for c in columns] for r in records]
        np.testing.assert_array_equal(getattr(series, name), want, err_msg=name)
    # The premise: switches do sit idle here, so a diagonal that turned
    # only in busy slots (the per-switch loop's) takes another course.
    per_switch = reference.PerSwitchNetworkFastpath(
        topo, seed=3, buffer_limit=buffer_limit, scheduler="wavefront"
    )
    for flow in flows:
        per_switch.add_flow(flow)
    old = per_switch.run(150, record_series=True).series
    assert not np.array_equal(old.transfers, series.transfers)
