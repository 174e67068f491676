"""NullSink and no-op PhaseTimer overhead: disabled telemetry is free.

The telemetry design budget is <5% wall-clock overhead for a default
(NullSink) run versus a fully untraced run on both backends, and the
same for the disabled :data:`repro.obs.perf.NULL_PHASE_TIMER` default
threaded through every simulator.  A wall-clock ratio cannot be asserted
on a shared box (the best-of-3 form of these tests failed under load);
what can be asserted exactly, anywhere, is the mechanism: a disabled
probe or timer costs no function call *per slot*.  Under ``cProfile`` a
run with the null object makes the calls of a run with ``None`` plus a
per-run constant (0 on the object backend and for the timer, 1 for the
fast path's probe when this was written), so the difference is the same
at 200 and at 400 slots.
"""

import cProfile
import gc

from repro.core.pim import PIMScheduler
from repro.obs.perf import NULL_PHASE_TIMER, PhaseTimer
from repro.obs.probe import NULL_PROBE, Probe
from repro.obs.sinks import InMemorySink
from repro.sim.fastpath import run_fastpath
from repro.switch.switch import CrossbarSwitch
from repro.traffic.uniform import UniformTraffic

PORTS = 16
SLOTS = 200


def _calls(fn, *args):
    """Every Python and C call ``fn(*args)`` makes, counted by cProfile.

    The garbage collector is held off while counting: a collection that
    lands inside the window runs every ``gc.callbacks`` hook (Hypothesis
    installs one that calls ``time.perf_counter``), calls that belong to
    no slot and that come or go with the allocation count's phase.
    """
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        fn(*args)
        profile.disable()
    finally:
        gc.enable()
    return sum(entry.callcount for entry in profile.getstats())


def _assert_no_per_slot_calls(run, null):
    """``run(slots, null)`` against ``run(slots, None)``: the extra calls
    do not grow with ``slots``."""
    run(SLOTS, None)  # warm caches and lazy imports
    extra = [
        _calls(run, slots, null) - _calls(run, slots, None)
        for slots in (SLOTS, 2 * SLOTS)
    ]
    assert extra[0] == extra[1], (
        f"the disabled object costs {extra[1] - extra[0]} calls per {SLOTS} slots"
    )


def test_null_probe_overhead_object_backend():
    def run(slots, probe):
        switch = CrossbarSwitch(PORTS, PIMScheduler(iterations=4, seed=1))
        switch.run(UniformTraffic(PORTS, load=0.9, seed=2), slots=slots, probe=probe)

    _assert_no_per_slot_calls(run, NULL_PROBE)


def test_null_probe_overhead_fastpath_backend():
    def run(slots, probe):
        run_fastpath(PORTS, 0.9, slots, replicas=8, seed=3, probe=probe)

    _assert_no_per_slot_calls(run, NULL_PROBE)


def test_noop_phase_timer_overhead_fastpath_backend():
    """A disabled PhaseTimer adds no per-slot call."""

    def run(slots, timer):
        run_fastpath(PORTS, 0.9, slots, replicas=8, seed=3, phase_timer=timer)

    _assert_no_per_slot_calls(run, NULL_PHASE_TIMER)


def test_disabled_phase_timer_records_nothing():
    """The no-op path leaves the timer completely empty after a run."""
    timer = PhaseTimer(enabled=False)
    run_fastpath(PORTS, 0.8, 50, replicas=2, seed=3, phase_timer=timer)
    assert timer.seconds == {}
    assert timer.calls == {}
    assert timer.wall_seconds == 0.0


def test_disabled_phase_timer_emits_nothing_through_enabled_probe():
    """A live probe must not receive phase_profile events from a
    disabled timer: the profiler-was-never-on invariant."""
    sink = InMemorySink()
    run_fastpath(
        PORTS, 0.8, 50, replicas=2, seed=3,
        probe=Probe(sink), phase_timer=PhaseTimer(enabled=False),
    )
    assert list(sink.of_kind("phase_profile")) == []
    # The same run with an enabled timer does emit exactly one profile.
    sink = InMemorySink()
    run_fastpath(
        PORTS, 0.8, 50, replicas=2, seed=3,
        probe=Probe(sink), phase_timer=PhaseTimer(),
    )
    assert len(list(sink.of_kind("phase_profile"))) == 1
