"""Randomized invariant and parity sweeps with failure shrinking.

A :class:`Case` is one fully-seeded fuzz point: a *family*, a seed, and
the family's params.  :data:`FAMILIES` is the strategy table: for each
family, how a seed becomes params (:func:`case_for_seed`) and the
function that runs them (:func:`run_case`), raising on the first
violation.

- ``switch`` -- every registry scheduler on a crossbar with every
  checker attached (a :class:`~repro.check.invariants.CheckingScheduler`,
  an :class:`~repro.check.invariants.InvariantSink` probe, end-of-run
  conservation) and, where the fast path has a batched twin and the
  traffic is uniform, a seed-matched
  :func:`~repro.check.differential.backend_parity` run;
- ``cbr`` / ``statistical`` / ``network`` / ``scenario`` -- the
  :func:`~repro.check.differential.integrated_parity`,
  :func:`~repro.check.differential.statistical_parity`,
  :func:`~repro.check.differential.network_parity` and
  :func:`~repro.check.differential.scenario_parity` oracles;
- ``churn`` -- Slepian-Duguid add/remove reservation sequences.

:func:`fuzz` sweeps one family until a seed count or wall-clock budget
is exhausted.  Each failure is shrunk (:func:`shrink`: per-field moves
towards the plainest, smallest case that still fails) and written as
``<family>_case_<seed>.json``, which ``tests/check/test_replay_failures.py``
replays under pytest -- a fuzz finding becomes a regression test by
dropping the file in ``tests/check/failures/``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.cbr.slepian_duguid import SlepianDuguidScheduler
from repro.check.differential import (
    _random_allocations,
    backend_parity,
    integrated_parity,
    network_parity,
    scenario_parity,
    statistical_parity,
)
from repro.check.invariants import CheckingScheduler, InvariantSink, check_conservation
from repro.core.batch import build_object_scheduler
from repro.core.rrm import RRMScheduler
from repro.core.statistical import StatisticalMatcher
from repro.network.topologies import TOPOLOGIES
from repro.obs.probe import Probe
from repro.sim.rng import derive_seed
from repro.switch.switch import CrossbarSwitch
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.clientserver import ClientServerTraffic
from repro.traffic.scenarios import SCENARIOS
from repro.traffic.uniform import UniformTraffic

__all__ = [
    "Case",
    "FAMILIES",
    "FuzzReport",
    "case_for_seed",
    "fuzz",
    "load_case",
    "run_case",
    "shrink",
]

PATTERNS = ("uniform", "bursty", "clientserver")
SCHEDULERS = ("pim", "islip", "rrm", "statistical", "lqf", "wavefront", "qps")
#: Registry kernels with a batched fast-path twin: these cases also run
#: the cross-backend differential stage (slot-exact for non-PIM).
DIFFERENTIAL_SCHEDULERS = ("pim", "islip", "lqf", "wavefront", "qps")


@dataclass(frozen=True)
class Case:
    """One reproducible fuzz point: ``run_case`` replays it exactly.

    ``params`` are the keyword arguments of the family's run function;
    any it leaves out take that function's defaults.
    """

    family: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """The reproducer: family, seed and params as one flat object."""
        return json.dumps(
            {"family": self.family, "seed": self.seed, **self.params}, sort_keys=True
        )


def load_case(text: str) -> Case:
    """Parse a JSON reproducer back into a :class:`Case`."""
    params = json.loads(text)
    return Case(params.pop("family"), params.pop("seed"), params)


def _build_traffic(seed: int, ports: int, load: float, pattern: str):
    traffic_seed = derive_seed(seed, f"fuzz/traffic/{pattern}")
    if pattern == "uniform":
        return UniformTraffic(ports, load=load, seed=traffic_seed)
    if pattern == "bursty":
        return BurstyTraffic(ports, load=load, seed=traffic_seed)
    if pattern == "clientserver":
        return ClientServerTraffic(
            ports, load=load, servers=max(1, ports // 4), seed=traffic_seed
        )
    raise ValueError(f"unknown pattern {pattern!r}")


def _build_scheduler(seed: int, ports: int, scheduler: str, iterations: int):
    match_seed = derive_seed(seed, f"fuzz/match/{scheduler}")
    if scheduler == "rrm":
        return RRMScheduler(iterations=iterations)
    if scheduler == "statistical":
        units = 16
        allocations = _random_allocations(
            ports, units, np.random.default_rng(match_seed)
        )
        return StatisticalMatcher(allocations, units=units, seed=match_seed, fill=True)
    return build_object_scheduler(
        scheduler, iterations=iterations, seed=match_seed, ports=ports
    )


def _run_switch(
    seed: int,
    ports: int = 8,
    load: float = 0.9,
    pattern: str = "uniform",
    scheduler: str = "pim",
    iterations: int = 4,
    slots: int = 200,
) -> None:
    """Every invariant checker on one scheduler, then cross-backend parity.

    PIM compares drained totals (independent matching streams); every
    other registry kernel with a batched twin runs against its
    seed-matched object twin and must agree slot for slot.
    """
    switch = CrossbarSwitch(
        ports, CheckingScheduler(_build_scheduler(seed, ports, scheduler, iterations))
    )
    result = switch.run(
        _build_traffic(seed, ports, load, pattern),
        slots=slots,
        probe=Probe(InvariantSink()),
    )
    check_conservation(
        result, label=f"switch(seed={seed}, {scheduler}, {pattern}, N={ports})"
    )
    if scheduler in DIFFERENTIAL_SCHEDULERS and pattern == "uniform":
        backend_parity(
            ports, load, slots, seed=seed, iterations=iterations, scheduler=scheduler
        )


def _run_churn(
    seed: int, ports: int = 4, frame_slots: int = 8, operations: int = 120
) -> None:
    """Interleave add/remove reservations, checking after every op.

    Drives a :class:`SlepianDuguidScheduler` through a random
    high-utilization add/remove sequence (biased 2:1 toward adds so
    the frame fills up and insertions exercise the ``_swap_chain``
    rearrangement path, including removal-then-reinsertion).  After
    *every* operation:

    - ``FrameSchedule.validate()`` must hold (forward/backward slot
      maps agree);
    - the schedule's ``reservation_matrix()`` must equal the
      scheduler's own ``reservations`` ledger;
    - no input or output may be committed past the frame length.
    """
    rng = np.random.default_rng(derive_seed(seed, "fuzz/churn"))
    scheduler = SlepianDuguidScheduler(ports, frame_slots)
    active: List[tuple] = []  # (input, output, cells) still reserved

    def check(op: str) -> None:
        scheduler.schedule.validate()
        matrix = scheduler.schedule.reservation_matrix()
        ledger = scheduler.reservations
        where = f"churn(seed={seed}): after {op}"
        if not (matrix == ledger).all():
            raise AssertionError(
                f"{where}: schedule matrix disagrees with ledger:\n{matrix}\nvs\n{ledger}"
            )
        if (matrix.sum(axis=1) > frame_slots).any() or (
            matrix.sum(axis=0) > frame_slots
        ).any():
            raise AssertionError(f"{where}: link over-committed")

    for _ in range(operations):
        if not active or rng.random() < 2 / 3:
            i = int(rng.integers(ports))
            j = int(rng.integers(ports))
            headroom = min(
                frame_slots - scheduler.input_committed(i),
                frame_slots - scheduler.output_committed(j),
            )
            if headroom <= 0:
                continue
            cells = int(rng.integers(1, headroom + 1))
            scheduler.add_reservation(i, j, cells)
            active.append((i, j, cells))
            check(f"add({i}, {j}, {cells})")
        else:
            i, j, cells = active.pop(int(rng.integers(len(active))))
            scheduler.remove_reservation(i, j, cells)
            check(f"remove({i}, {j}, {cells})")


def _run_network(seed: int, buffer_limit: int = 0, **params) -> None:
    """:func:`network_parity`, with ``buffer_limit == 0`` encoding "no
    link-level flow control" so the case stays JSON-primitive."""
    network_parity(seed=seed, buffer_limit=buffer_limit or None, **params)


class Family(NamedTuple):
    """How one fuzz family turns a seed into params, and runs them.

    ``choices`` are drawn in order from the ``label`` stream
    (``derive_seed(seed, label)``), one uniform pick per field; a
    callable gets the params drawn so far and returns the options.
    ``cycled`` maps the seed straight to the fields that cycle with it
    (none by default), so a sweep of consecutive seeds provably covers
    them.
    """

    label: str
    choices: Dict[str, Any]
    run: Callable[..., Any]
    cycled: Callable[[int], Dict[str, Any]] = lambda seed: {}


def _scenario_cycle(seed: int) -> Dict[str, Any]:
    # Kernel and scenario cycle at coprime strides: any
    # len(DIFFERENTIAL_SCHEDULERS) * len(SCENARIOS) consecutive seeds
    # cover every (kernel, scenario) pair.
    names = sorted(SCENARIOS)
    width = len(DIFFERENTIAL_SCHEDULERS)
    return {
        "scenario": names[(seed // width) % len(names)],
        "scheduler": DIFFERENTIAL_SCHEDULERS[seed % width],
    }


#: The strategy table, in ``repro-an2 check --suite all`` order.
FAMILIES: Dict[str, Family] = {
    "switch": Family(
        "fuzz/config",
        dict(
            ports=[2, 4, 8, 16],
            load=[0.3, 0.6, 0.8, 0.9, 0.95],
            pattern=PATTERNS,
            iterations=[1, 2, 4],
            slots=[100, 200, 400],
        ),
        _run_switch,
        lambda seed: {"scheduler": SCHEDULERS[seed % len(SCHEDULERS)]},
    ),
    "cbr": Family(
        "fuzz/cbr-config",
        dict(
            ports=[2, 4, 8],
            frame_slots=[4, 8, 16],
            utilization=[0.25, 0.5, 0.75, 1.0],
            vbr_load=[0.2, 0.5, 0.8, 1.0],
            slots=[80, 150, 300],
            warmup=[0, 20],
        ),
        integrated_parity,
    ),
    "churn": Family(
        "fuzz/churn-config",
        dict(ports=[2, 4, 8, 16], frame_slots=[4, 8, 16, 32], operations=[60, 120, 250]),
        _run_churn,
    ),
    "statistical": Family(
        "fuzz/stat-config",
        dict(
            ports=[2, 4, 8],
            units=[4, 8, 16],
            utilization=[0.25, 0.5, 0.75, 1.0],
            load=[0.2, 0.5, 0.8, 1.0],
            rounds=[1, 2, 3],
            slots=[80, 150, 300],
            warmup=[0, 20],
        ),
        statistical_parity,
        # Two consecutive seeds cover the filled and the lottery-only switch.
        lambda seed: {"fill": seed % 2 == 0},
    ),
    "network": Family(
        "fuzz/network-config",
        dict(
            topology=TOPOLOGIES,
            # Keep the big shapes small: fuzz wants many cheap cases,
            # not a handful of fabric-scale ones (the bench covers those).
            size=lambda p: [2, 3] if p["topology"] in ("fat_tree", "mesh") else [2, 3, 4],
            n_flows=[2, 4, 6],
            latency=[1, 1, 2, 3],
            buffer_limit=[0, 0, 2, 4],
            slots=[120, 200, 350],
            warmup=[0, 25],
        ),
        _run_network,
    ),
    "scenario": Family(
        "fuzz/scenario-config",
        dict(slots=[120, 200, 350], warmup=[0, 25]),
        scenario_parity,
        _scenario_cycle,
    ),
}


def case_for_seed(family: str, seed: int) -> Case:
    """Deterministically map a seed to one point of ``family``."""
    spec = FAMILIES[family]
    rng = np.random.default_rng(derive_seed(seed, spec.label))
    params = spec.cycled(seed)
    for name, options in spec.choices.items():
        params[name] = rng.choice(options(params) if callable(options) else options).item()
    return Case(family, seed, params)


def run_case(case: Case) -> None:
    """Run one case; raises on the first violation."""
    FAMILIES[case.family].run(seed=case.seed, **case.params)


def _fails(case: Case) -> Optional[str]:
    try:
        run_case(case)
    except Exception as exc:  # noqa: BLE001 -- any failure is a reproducer
        return f"{type(exc).__name__}: {exc}"
    return None


#: Per-field shrink moves, tried in this order: each maps a value to a
#: plainer or smaller one (equal when there is nothing left to shrink).
SHRINK_MOVES: Dict[str, Callable[[Any], Any]] = {
    "pattern": lambda value: "uniform",
    "ports": lambda value: max(2, value // 2),
    "slots": lambda value: max(10, value // 2),
    "iterations": lambda value: 1,
    "load": lambda value: min(value, 0.5),
}


def shrink(case: Case, fails: Callable[[Case], Optional[str]] = _fails) -> Case:
    """Greedily minimize a failing case while it keeps failing.

    Tries, in :data:`SHRINK_MOVES` order and to fixpoint, every move
    that applies to one of the case's params: the plainest traffic
    pattern, halved ports (floor 2), halved slots (floor 10), a single
    iteration, and a tamer load.  ``fails`` returns the failure message
    (truthy) or None; the default re-runs the case.
    """
    if fails(case) is None:
        raise ValueError("shrink() needs a failing case")
    changed = True
    while changed:
        changed = False
        for name, move in SHRINK_MOVES.items():
            if name not in case.params or move(case.params[name]) == case.params[name]:
                continue
            candidate = replace(
                case, params={**case.params, name: move(case.params[name])}
            )
            if fails(candidate) is not None:
                case, changed = candidate, True
                break
    return case


@dataclass
class FuzzReport:
    """Outcome of one sweep."""

    cases_run: int
    seeds_requested: int
    elapsed_seconds: float
    failures: List[dict]
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases, "
            f"{self.elapsed_seconds:.1f}s elapsed"
            + (", budget exhausted" if self.budget_exhausted else "")
        ]
        if self.failures:
            lines.append(f"  {len(self.failures)} FAILURES:")
            for failure in self.failures:
                lines.append(
                    f"    {failure['shrunk'].to_json()}  <-  {failure['error']}"
                )
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def fuzz(
    family: str,
    seeds: int = 25,
    budget_seconds: Optional[float] = None,
    out_dir: Optional[str] = None,
    base_seed: int = 0,
) -> FuzzReport:
    """Sweep ``seeds`` cases of ``family`` (bounded by ``budget_seconds``).

    Every failure is shrunk to a minimal reproducer; when ``out_dir``
    is given, each reproducer is written there as
    ``<family>_case_<seed>.json`` for pytest replay.
    """
    start = time.monotonic()
    failures: List[dict] = []
    cases_run = 0
    budget_exhausted = False
    for index in range(seeds):
        if budget_seconds is not None and time.monotonic() - start > budget_seconds:
            budget_exhausted = True
            break
        case = case_for_seed(family, base_seed + index)
        error = _fails(case)
        cases_run += 1
        if error is None:
            continue
        try:
            shrunk = shrink(case)
        except ValueError:
            # The failure did not reproduce (it was transient); keep
            # the original case.
            shrunk = case
        failures.append({"case": case, "shrunk": shrunk, "error": error})
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{family}_case_{case.seed}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(shrunk.to_json() + "\n")
    return FuzzReport(
        cases_run=cases_run,
        seeds_requested=seeds,
        elapsed_seconds=time.monotonic() - start,
        failures=failures,
        budget_exhausted=budget_exhausted,
    )
