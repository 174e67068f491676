"""Figure 2: the anatomy of one parallel-iterative-matching iteration.

The figure walks a 4x4 example: five requests are made, three granted,
two accepted in iteration 1; the remaining unmatched-input-to-
unmatched-output request is made, granted, and accepted in iteration 2,
after which no pairing can be added.  We replay a request pattern with
that structure, read the request/grant/accept counts of each phase
from the kernel's ``pim_iteration`` probe events, and verify the
narrative quantitatively over many random seeds.
"""

import numpy as np
import pytest

from repro.core.matching import is_maximal
from repro.core.pim import PIMScheduler
from repro.obs.probe import Probe
from repro.obs.sinks import InMemorySink

from _common import print_table, trace_probe


def figure2_requests():
    """Five requests; greedy contention on output 1, an isolated
    (3, 3) request that usually needs iteration 2."""
    requests = np.zeros((4, 4), dtype=bool)
    requests[0, 0] = True
    requests[0, 1] = True
    requests[1, 1] = True
    requests[2, 1] = True
    requests[3, 1] = True  # note: makes output 1 four-way contended
    requests[3, 3] = True
    return requests


def compute_fig2(trials=2000, seed=0):
    # Every trial is one probed slot; its PimIteration events carry the
    # request/grant/accept anatomy.  With REPRO_TRACE set they also land
    # in $REPRO_TRACE/fig2.jsonl (one "slot" per trial) so the figure is
    # auditable via `repro-an2 trace summarize`.
    trace = trace_probe("fig2")
    probe = Probe(InMemorySink())
    scheduler = PIMScheduler(iterations=None, rng=np.random.default_rng(seed))
    scheduler.attach_probe(probe)
    requests = figure2_requests()
    iteration_counts = {}
    first_iteration_sizes = []
    grant_counts = []
    for trial in range(trials):
        probe.begin_slot(trial, arrivals=int(requests.sum()))
        matching = scheduler.schedule(requests)
        result = scheduler.last_result
        assert result.completed
        assert is_maximal(matching, requests)
        iterations = result.iterations
        iteration_counts[iterations] = iteration_counts.get(iterations, 0) + 1
        first_iteration_sizes.append(result.cumulative_sizes[0])
        grant_counts.append(probe.sink.of_kind("pim_iteration")[0].grants)
        if trace.enabled:
            for event in probe.sink.events:
                trace.sink.write(event)
        probe.sink.clear()
    trace.close()
    return {
        "iterations_histogram": iteration_counts,
        "mean_first_iteration_matches": float(np.mean(first_iteration_sizes)),
        "mean_first_iteration_grants": float(np.mean(grant_counts)),
    }


def test_fig2(benchmark):
    stats = benchmark.pedantic(compute_fig2, rounds=1, iterations=1)
    print_table(
        "Figure 2: one-iteration anatomy on the example request pattern",
        ["metric", "value"],
        [
            ("requests", 6),
            ("mean grants (iter 1)", stats["mean_first_iteration_grants"]),
            ("mean accepts (iter 1)", stats["mean_first_iteration_matches"]),
            ("P[2 iterations]", stats["iterations_histogram"].get(2, 0) / 2000),
        ],
    )
    # Output 1 and output 0 and output 3 can each grant once: <= 3 grants.
    assert stats["mean_first_iteration_grants"] <= 3.0
    # Iteration 1 usually matches 2 pairs (of the eventual 3).
    assert 1.5 < stats["mean_first_iteration_matches"] <= 3.0
    # A second iteration is frequently needed to finish, as in the figure.
    histogram = stats["iterations_histogram"]
    assert histogram.get(2, 0) > 0
    # Never more than a handful of iterations on a 4x4 (Appendix A).
    assert max(histogram) <= 5
