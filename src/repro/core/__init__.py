"""Switch schedulers: the paper's contribution and its baselines.

Switch scheduling is bipartite matching (Section 3.4): inputs and
outputs are the two node sets, and an edge (i, j) exists when input i
has at least one queued cell for output j.  A scheduler picks a
*matching* -- at most one output per input and vice versa -- every cell
slot.

- :mod:`repro.core.pim` -- **Parallel Iterative Matching**, the paper's
  randomized request/grant/accept algorithm (Section 3),
- :mod:`repro.core.statistical` -- **Statistical Matching**, the
  weighted variant for bandwidth allocation (Section 5, Appendix C),
- :mod:`repro.core.fifo` -- FIFO input queueing baseline (HOL blocking),
- :mod:`repro.core.output_queueing` -- perfect output queueing baseline,
- :mod:`repro.core.maximum` -- maximum matching (Hopcroft-Karp), the
  "more sophisticated algorithm" the paper argues against,
- :mod:`repro.core.islip` / :mod:`repro.core.wavefront` -- descendant
  and alternative arbiters, used for the randomness ablations,
- :mod:`repro.core.lqf` / :mod:`repro.core.qps` -- occupancy-aware
  extension baselines (longest-queue-first, queue-proportional
  sampling),
- :mod:`repro.core.batch` -- the ``BatchScheduler`` protocol and the
  kernel registry shared by the fast paths, the CLI and the
  differential checks,
- :mod:`repro.core.matching` -- matching datatypes and checks.
"""

from repro import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "BATCH_SCHEDULERS": "batch",
    "BatchScheduler": "batch",
    "as_request_batch": "batch",
    "build_batch_scheduler": "batch",
    "build_object_scheduler": "batch",
    "BatchPIMScheduler": "pim",
    "BatchISLIPScheduler": "islip",
    "BatchLQFScheduler": "lqf",
    "BatchQPSScheduler": "qps",
    "BatchWavefrontScheduler": "wavefront",
    "RRMScheduler": "rrm",
    "WindowedFIFOScheduler": "windowed_fifo",
    "WindowedFIFOSwitch": "windowed_fifo",
    "LQFScheduler": "lqf",
    "QPSScheduler": "qps",
    "qps_match": "qps",
    "Matching": "matching",
    "greedy_maximal_match": "matching",
    "is_maximal": "matching",
    "PIMScheduler": "pim",
    "pim_match": "pim",
    "StatisticalMatcher": "statistical",
    "FIFOScheduler": "fifo",
    "ISLIPScheduler": "islip",
    "WavefrontScheduler": "wavefront",
    "MaximumMatchingScheduler": "maximum",
    "hopcroft_karp": "maximum",
    "OutputQueuedSwitch": "output_queueing",
})

# The batch-kernel family loads with the package: every fast path builds
# one, and a kernel first imported inside a timed operation (the discarded
# warm-up included) measurably slows the in-process suite workloads.
from repro.core import batch, islip, lqf, pim, qps, wavefront  # noqa: E402,F401
