"""Reproduction of *High Speed Switch Scheduling for Local Area Networks*.

Anderson, Owicki, Saxe, and Thacker (ASPLOS 1992) describe the AN2
switch: an input-buffered crossbar switch scheduled by **Parallel
Iterative Matching** (PIM), with frame-based **CBR** bandwidth
guarantees built via the Slepian-Duguid algorithm, and **Statistical
Matching** for dynamically adjustable bandwidth allocation.

This package implements the paper's algorithms and every substrate they
rest on -- cell-slotted simulation, per-flow random-access input
buffers, crossbar and batcher-banyan fabrics, traffic generators, a
multi-switch network simulator -- plus the baselines the paper compares
against (FIFO input queueing, perfect output queueing, maximum
matching) and its direct descendants (iSLIP, wavefront arbitration).

Quickstart::

    from repro import CrossbarSwitch, PIMScheduler, UniformTraffic

    switch = CrossbarSwitch(ports=16, scheduler=PIMScheduler(iterations=4, seed=1))
    traffic = UniformTraffic(ports=16, load=0.9, seed=2)
    result = switch.run(traffic, slots=20_000, warmup=2_000)
    print(result.mean_delay, result.throughput)

Every package namespace here is lazy: it holds a table of
``public name -> submodule`` and imports a submodule the first time one
of its names is read, so a process compiles only the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, List, Tuple

__version__ = "1.0.0"


class _Namespace(ModuleType):
    """A lazy package.  Importing a submodule binds it on its package; a
    public name spelled like its own submodule (``repro.check.fuzz``, the
    function in ``repro/check/fuzz.py``) keeps the public object."""

    def __setattr__(self, name: str, value) -> None:
        if not (isinstance(value, ModuleType) and name in self._exports):
            super().__setattr__(name, value)


def _lazy_namespace(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` and the ``__all__`` of
    ``package``, whose public names are the keys of ``exports`` and live
    in the submodules (relative to ``package``) they map to.

    A name loads its submodule on first read and is cached on the
    package.  An unknown name raises ``AttributeError``, so
    ``from package import submodule`` still imports the submodule.
    """
    module = sys.modules[package]
    module._exports = exports
    module.__class__ = _Namespace

    def __getattr__(name: str) -> object:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        module.__dict__[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*module.__dict__, *exports})

    return __getattr__, __dir__, list(exports)


__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    "Cell": "switch.cell",
    "ServiceClass": "switch.cell",
    "Matching": "core.matching",
    "PIMScheduler": "core.pim",
    "pim_match": "core.pim",
    "StatisticalMatcher": "core.statistical",
    "FIFOScheduler": "core.fifo",
    "ISLIPScheduler": "core.islip",
    "WavefrontScheduler": "core.wavefront",
    "MaximumMatchingScheduler": "core.maximum",
    "hopcroft_karp": "core.maximum",
    "OutputQueuedSwitch": "core.output_queueing",
    "CrossbarSwitch": "switch.switch",
    "FIFOSwitch": "switch.switch",
    "SwitchResult": "switch.results",
    "FrameSchedule": "cbr.frame",
    "ReservationTable": "cbr.reservations",
    "SlepianDuguidScheduler": "cbr.slepian_duguid",
    "IntegratedSwitch": "cbr.integrated",
    "UniformTraffic": "traffic.uniform",
    "ClientServerTraffic": "traffic.clientserver",
    "PeriodicTraffic": "traffic.periodic",
    "BurstyTraffic": "traffic.bursty",
    "Topology": "network.topology",
    "NetworkSimulator": "network.netsim",
})
