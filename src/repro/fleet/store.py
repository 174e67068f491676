"""The crash-safe, resumable results store behind a fleet sweep.

One JSONL file per sweep; one line per *finished* cell attempt::

    {"cell_key": ..., "params_hash": ..., "status": "done"|"error",
     "config": {...}, "seed": ..., "rep": ..., "index": ...,
     "metrics": {...},   # deterministic outputs (seed-reproducible)
     "timing": {...},    # wall-clock rates (machine-dependent)
     "error": "...",     # status == "error" only
     "elapsed": ..., "pid": ...}

Workers append their own records directly (a single ``write()`` per
record -- see :func:`repro.obs.store.append_jsonl_line` -- so parallel
writers cannot interleave), which makes the store the sweep's crash
log: kill the pool at any instant and every completed cell is already
on disk.  Resume is a set lookup: a cell whose ``(cell_key,
params_hash)`` has a ``done`` record is skipped; error records and
records from a stale parameterization are rerun.

The split between ``metrics`` and ``timing`` is the determinism
contract: metrics are a pure function of the cell's derived seed and
parameters (identical at any pool size), while timing is whatever the
wall clock said.  Tests and resume equality compare metrics only.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.obs.store import append_jsonl_line, read_jsonl_records

__all__ = ["SweepStore", "cell_record"]

_REQUIRED_FIELDS = ("cell_key", "params_hash", "status", "config", "index")


def cell_record(
    cell,
    status: str,
    metrics: Optional[Dict[str, Any]] = None,
    timing: Optional[Dict[str, Any]] = None,
    error: Optional[str] = None,
    elapsed: float = 0.0,
) -> Dict[str, Any]:
    """Build one store record for a finished attempt at ``cell``."""
    record = {
        "cell_key": cell.key,
        "params_hash": cell.params_hash,
        "status": status,
        "config": cell.config,
        "seed": cell.seed,
        "rep": cell.rep,
        "index": cell.index,
        "metrics": metrics or {},
        "timing": timing or {},
        "elapsed": elapsed,
        "pid": os.getpid(),
    }
    if error is not None:
        record["error"] = error
    return record


class SweepStore:
    """Append-only JSONL store of one sweep's per-cell results."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, record: Dict[str, Any]) -> None:
        """Append one cell record as a single atomic-append write."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_jsonl_line(self.path, record)

    def load(self) -> List[Dict[str, Any]]:
        """All well-formed records, oldest first.

        Tolerates a torn trailing line (the crash-mid-append case that
        resume exists for); raises on interior corruption.  Records
        missing required fields are dropped with a warning rather than
        poisoning the resume.
        """
        if not self.path.exists():
            return []
        records = []
        for record in read_jsonl_records(self.path):
            if any(field not in record for field in _REQUIRED_FIELDS):
                warnings.warn(
                    f"{self.path}: dropping malformed cell record "
                    f"(missing {[f for f in _REQUIRED_FIELDS if f not in record]})",
                    UserWarning,
                    stacklevel=2,
                )
                continue
            records.append(record)
        return records

    def completed(
        self, records: Optional[Iterable[Dict[str, Any]]] = None
    ) -> Set[Tuple[str, str]]:
        """The ``(cell_key, params_hash)`` pairs with a ``done`` record."""
        if records is None:
            records = self.load()
        return {
            (record["cell_key"], record["params_hash"])
            for record in records
            if record["status"] == "done"
        }

    def latest_done(
        self, records: Optional[Iterable[Dict[str, Any]]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Newest ``done`` record per cell key (later appends win)."""
        if records is None:
            records = self.load()
        latest: Dict[str, Dict[str, Any]] = {}
        for record in records:
            if record["status"] == "done":
                latest[record["cell_key"]] = record
        return latest
