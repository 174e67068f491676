"""The append-only perf-history store: JSONL entries + regression gate.

Speed is measured by ``benchmarks/suite`` in absolute units; this store
keeps the *trajectories* that gate a sweep's recorded outputs:

- :func:`record_result` stamps a :class:`repro.obs.perf.RunManifest`
  and **appends** one entry per run to
  ``benchmarks/perf/history/<bench>.jsonl`` (``fleet run --record``,
  ``sched-study --record``) -- an append-only history that can be
  charted and gated;
- :func:`gate` checks the newest entry against the recorded
  *trajectory* (per matching config, against the median of prior
  runs) with a configurable tolerance.

Entries are one JSON object per line::

    {"run_id": "...", "bench": "fleet_smoke",
     "manifest": {git_sha, platform, python_version, numpy_version,
                  seed, config_hash, timestamp, config},
     "results": [{"config": {...}, "throughput": ...,
                  "slots_per_sec": ...}, ...],
     "extras": {...},          # run-specific scalars (spec, kind, cells)
     "phases": {...} | null}   # optional PhaseReport.to_dict() breakdown

The gate keys results on their *config dict* (canonical JSON), so
grids can grow or shrink: only configs present in both the candidate
and the baseline history are checked.  A seed-exact metric such as a
sweep's ``throughput`` gates machine-independently.
"""

from __future__ import annotations

import json
import os
import uuid
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.perf import RunManifest

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "PerfEntry",
    "PerfStore",
    "record_result",
    "GateCheck",
    "GateReport",
    "gate",
    "config_key",
    "append_jsonl_line",
    "drop_torn_tail",
    "read_jsonl_records",
]

#: Where the repo keeps its committed perf history (relative to the
#: repo root, where the CLI runs from).
DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "perf", "history")

#: Default gate slack: the candidate may be up to this fraction below
#: the baseline median before the gate fails.  0.4 tolerates the
#: run-to-run noise of a wall-clock rate on shared boxes while still
#: catching a 2x slowdown outright; a seed-exact metric such as
#: ``throughput`` can be gated at 0.
DEFAULT_TOLERANCE = 0.4


def config_key(config: Dict[str, Any]) -> str:
    """Canonical string key of a result's config dict."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)


def append_jsonl_line(path: Union[str, Path], record: Dict[str, Any]) -> None:
    """Append ``record`` to a JSONL file as ONE ``write()`` call.

    ``json.dump(record, handle)`` issues many small writes, so two
    processes appending to the same history (the fleet worker pool)
    interleave their chunks and corrupt the file.  Serializing first
    and writing ``line + "\\n"`` in a single call keeps each record
    contiguous: for a regular file opened in append mode the kernel
    performs the seek-to-end and write atomically, so concurrent
    appenders can only ever produce whole, ordered lines.
    """
    line = json.dumps(record, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def drop_torn_tail(path: Union[str, Path]) -> None:
    """Cut a torn trailing record off a JSONL file, with a warning.

    Every append writes one whole line, newline last, so whatever
    follows the last newline is a record cut short by a crash.  Left in
    place, the next append would be glued onto it and turn the torn
    tail into a corrupt interior line that fails every later read.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "rb+") as handle:
        data = handle.read()
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1
        handle.truncate(keep)
    lines = data.count(b"\n")
    warnings.warn(
        f"{path}: torn trailing record dropped "
        f"({len(data) - keep} bytes after line {lines})",
        UserWarning,
        stacklevel=2,
    )


def read_jsonl_records(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All records of a JSONL file, tolerating a torn final line.

    A process killed mid-append (a SIGTERMed fleet worker, a power
    cut) leaves a truncated record at the *end* of the file; treating
    that as fatal would make every such file unresumable.  A malformed
    **final** line is therefore dropped with a :class:`UserWarning`
    naming the file and line.  A malformed **interior** line cannot be
    explained by a torn append -- the file is genuinely corrupt -- so
    it raises :class:`ValueError` with its line number.
    """
    path = Path(path)
    records: List[Dict[str, Any]] = []
    pending_error: Optional[str] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if pending_error is not None:
                # The bad line was not the last one after all.
                raise ValueError(pending_error)
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                pending_error = f"{path}:{lineno}: bad history line: {exc}"
                continue
            if not isinstance(record, dict):
                pending_error = (
                    f"{path}:{lineno}: bad history line: expected a JSON "
                    f"object, got {type(record).__name__}"
                )
                continue
            records.append(record)
    if pending_error is not None:
        warnings.warn(
            f"{pending_error} (torn trailing record dropped; likely a "
            f"crash mid-append)",
            UserWarning,
            stacklevel=2,
        )
    return records


@dataclass
class PerfEntry:
    """One recorded bench run: manifest + per-config results."""

    run_id: str
    bench: str
    manifest: Dict[str, Any]
    results: List[Dict[str, Any]]
    extras: Dict[str, Any] = field(default_factory=dict)
    phases: Optional[Dict[str, Any]] = None

    def to_record(self) -> Dict[str, Any]:
        """Flat JSON line form; inverse of :meth:`from_record`."""
        return {
            "run_id": self.run_id,
            "bench": self.bench,
            "manifest": self.manifest,
            "results": self.results,
            "extras": self.extras,
            "phases": self.phases,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "PerfEntry":
        """Rebuild an entry from its JSON line form."""
        return cls(
            run_id=record["run_id"],
            bench=record["bench"],
            manifest=record.get("manifest", {}),
            results=record.get("results", []),
            extras=record.get("extras", {}),
            phases=record.get("phases"),
        )

    def metric_map(self, metric: str) -> Dict[str, float]:
        """``{config_key: value}`` for results that carry ``metric``."""
        out = {}
        for result in self.results:
            if metric in result:
                out[config_key(result.get("config", {}))] = float(result[metric])
        return out


class PerfStore:
    """Append-only JSONL perf history under one directory.

    One file per bench name (``<bench>.jsonl``); entries are appended,
    never rewritten, so the file is a time series by construction.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_HISTORY_DIR):
        self.root = Path(root)

    def path(self, bench: str) -> Path:
        """The history file backing ``bench``."""
        return self.root / f"{bench}.jsonl"

    def append(self, entry: PerfEntry) -> Path:
        """Append one entry to its bench's history file.

        The entry lands as one ``write()`` call (see
        :func:`append_jsonl_line`), so concurrent appenders cannot tear
        each other's lines; a record torn by an earlier crash is cut
        off first (:func:`drop_torn_tail`).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(entry.bench)
        drop_torn_tail(path)
        append_jsonl_line(path, entry.to_record())
        return path

    def load(self, bench: str) -> List[PerfEntry]:
        """All entries of ``bench`` in append (chronological) order.

        Missing history is an empty list.  A malformed *final* line is
        dropped with a warning (a crash mid-append leaves a torn
        trailing record; see :func:`read_jsonl_records`); a malformed
        interior line raises with its line number so a genuinely
        corrupted file stays diagnosable.
        """
        path = self.path(bench)
        if not path.exists():
            return []
        entries = []
        for record in read_jsonl_records(path):
            try:
                entries.append(PerfEntry.from_record(record))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}: bad history entry: {exc}") from exc
        return entries


def record_result(
    bench: str,
    results: Sequence[Dict[str, Any]],
    *,
    config: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
    extras: Optional[Dict[str, Any]] = None,
    phases: Optional[Dict[str, Any]] = None,
    history_dir: Optional[Union[str, Path]] = DEFAULT_HISTORY_DIR,
    manifest: Optional[RunManifest] = None,
) -> PerfEntry:
    """Record one run: stamp a manifest and append it to the history.

    This is the single write path of ``fleet run --record`` and
    ``sched-study --record``.

    Parameters
    ----------
    bench:
        Store key; history lands in ``<history_dir>/<bench>.jsonl``.
    results:
        Per-grid-point dicts, each with a ``config`` dict plus metric
        fields (``throughput``, ``mean_delay``, ``slots_per_sec``, ...).
    config:
        The run's logical configuration, hashed into the manifest.
    seed:
        Root seed recorded in the manifest.
    extras:
        Run-specific scalars kept alongside the results.
    phases:
        Optional :meth:`repro.obs.perf.PhaseReport.to_dict` breakdown
        of a profiled run.
    history_dir:
        History root; ``None`` builds the entry without appending it
        (the candidate of ``fleet gate``).
    manifest:
        Pre-collected manifest (tests); default collects one now.

    Returns the recorded :class:`PerfEntry`.
    """
    if manifest is None:
        manifest = RunManifest.collect(seed=seed, config=config)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    entry = PerfEntry(
        run_id=f"{stamp}-{uuid.uuid4().hex[:8]}",
        bench=bench,
        manifest=manifest.to_dict(),
        results=list(results),
        extras=dict(extras or {}),
        phases=phases,
    )
    if history_dir is not None:
        PerfStore(history_dir).append(entry)
    return entry


@dataclass(frozen=True)
class GateCheck:
    """One per-config verdict of the gate."""

    config: str  # canonical config key (JSON)
    metric: str
    candidate: float
    baseline: float  # median of the baseline trajectory
    threshold: float  # baseline * (1 - tolerance)
    samples: int  # baseline entries that carried this config
    ok: bool


@dataclass
class GateReport:
    """The gate's full verdict over one bench history."""

    bench: str
    metric: str
    tolerance: float
    candidate_run: str
    checks: List[GateCheck]
    skipped: List[str] = field(default_factory=list)  # configs with no baseline
    ok: bool = True

    @property
    def ungated(self) -> bool:
        """Nothing was compared: no baseline run shares a config with the
        candidate (a first recorded run, or an all-new grid).  ``ok``
        stays true -- there is no regression to report -- but the
        verdict is not a pass of anything."""
        return not self.checks

    @property
    def verdict(self) -> str:
        """``UNGATED``, ``PASS`` or ``FAIL``."""
        if self.ungated:
            return "UNGATED"
        return "PASS" if self.ok else "FAIL"

    def describe(self) -> str:
        """One line per check, then the verdict."""
        lines = []
        for check in self.checks:
            status = "ok  " if check.ok else "FAIL"
            lines.append(
                f"  [{status}] {check.metric} {check.candidate:.2f} vs baseline "
                f"median {check.baseline:.2f} (floor {check.threshold:.2f}, "
                f"{check.samples} runs)  {check.config}"
            )
        for config in self.skipped:
            lines.append(f"  [new ] no baseline yet  {config}")
        lines.append(
            f"gate {self.verdict}: bench={self.bench} candidate={self.candidate_run} "
            f"tolerance={self.tolerance:.0%} ({len(self.checks)} checks, "
            f"{len(self.skipped)} new configs)"
        )
        if self.ungated:
            lines.append(
                f"  no recorded baseline for {self.metric} on any of the "
                f"candidate's configs: nothing was checked"
            )
        return "\n".join(lines)


def _median(values: Sequence[float], what: str = "sample list") -> float:
    """Median of a non-empty sample list.

    An empty list used to fall through to a bare ``IndexError`` deep
    inside the caller; it is a usage error and is named as such.
    ``what`` lets gating paths say *which* config produced the empty
    sample (see :func:`repro.fleet.report.aggregate_cells`).
    """
    if not values:
        raise ValueError(f"median of empty {what}")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def gate(
    entries: Sequence[PerfEntry],
    bench: str = "",
    metric: str = "throughput",
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateReport:
    """Check the newest entry against the recorded trajectory.

    The last entry is the candidate; every earlier entry is baseline.
    For each config the candidate shares with the baseline, the
    candidate's ``metric`` must be at least ``median(baseline) *
    (1 - tolerance)``.  Configs the history has never seen are noted
    but do not fail the gate (grids may grow); with no baseline for any
    of them (first recorded run) nothing can fail either, and the report
    says so as its own outcome, ``ungated``, rather than as a pass.
    A candidate that carries ``metric`` in none of its results is a
    :class:`ValueError` naming the fields it does carry: a misspelt or
    unrecorded metric would otherwise read as ungated.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    if not entries:
        raise ValueError("gate needs at least one recorded entry")
    candidate = entries[-1]
    baseline = entries[:-1]
    report = GateReport(
        bench=bench or candidate.bench,
        metric=metric,
        tolerance=tolerance,
        candidate_run=candidate.run_id,
        checks=[],
        ok=True,
    )
    candidate_map = candidate.metric_map(metric)
    if not candidate_map:
        fields = sorted(
            {name for result in candidate.results for name in result} - {"config"}
        )
        raise ValueError(
            f"no result of candidate {candidate.run_id} carries metric "
            f"{metric!r}; its results carry: {', '.join(fields) or 'nothing'}"
        )
    history_maps = [entry.metric_map(metric) for entry in baseline]
    for key, value in candidate_map.items():
        samples = [m[key] for m in history_maps if key in m]
        if not samples:
            report.skipped.append(key)
            continue
        median = _median(samples, what=f"baseline samples for config {key}")
        threshold = median * (1.0 - tolerance)
        ok = value >= threshold
        report.checks.append(
            GateCheck(
                config=key,
                metric=metric,
                candidate=value,
                baseline=median,
                threshold=threshold,
                samples=len(samples),
                ok=ok,
            )
        )
        report.ok = report.ok and ok
    return report
