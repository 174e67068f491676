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

from repro.core.batch import (
    BATCH_SCHEDULERS,
    BatchScheduler,
    as_request_batch,
    build_batch_scheduler,
    build_object_scheduler,
)
from repro.core.matching import Matching, greedy_maximal_match, is_maximal
from repro.core.pim import BatchPIMScheduler, PIMScheduler, pim_match
from repro.core.statistical import StatisticalMatcher
from repro.core.fifo import FIFOScheduler
from repro.core.islip import BatchISLIPScheduler, ISLIPScheduler
from repro.core.wavefront import BatchWavefrontScheduler, WavefrontScheduler
from repro.core.maximum import MaximumMatchingScheduler, hopcroft_karp
from repro.core.output_queueing import OutputQueuedSwitch
from repro.core.windowed_fifo import WindowedFIFOScheduler, WindowedFIFOSwitch
from repro.core.lqf import BatchLQFScheduler, LQFScheduler
from repro.core.qps import BatchQPSScheduler, QPSScheduler, qps_match
from repro.core.rrm import RRMScheduler

__all__ = [
    "BATCH_SCHEDULERS",
    "BatchScheduler",
    "as_request_batch",
    "build_batch_scheduler",
    "build_object_scheduler",
    "BatchPIMScheduler",
    "BatchISLIPScheduler",
    "BatchLQFScheduler",
    "BatchQPSScheduler",
    "BatchWavefrontScheduler",
    "RRMScheduler",
    "WindowedFIFOScheduler",
    "WindowedFIFOSwitch",
    "LQFScheduler",
    "QPSScheduler",
    "qps_match",
    "Matching",
    "greedy_maximal_match",
    "is_maximal",
    "PIMScheduler",
    "pim_match",
    "StatisticalMatcher",
    "FIFOScheduler",
    "ISLIPScheduler",
    "WavefrontScheduler",
    "MaximumMatchingScheduler",
    "hopcroft_karp",
    "OutputQueuedSwitch",
]
