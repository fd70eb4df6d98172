"""Run ledger: an append-only JSONL history of every experiment run.

A trace and a metrics snapshot describe one run; the ledger makes runs
*longitudinal*.  Every CLI/sweep invocation appends one
:class:`RunRecord` — run id, git sha, config hash, master seed, platform,
duration, headline metrics, artifact paths, alarms — to
``<runs_dir>/ledger.jsonl``.  ``repro obs runs list/show/diff`` queries
it (``runs show`` links a failed run's crash bundle through its alarms,
``runs diff`` shows which headline metric moved between two runs).

The file format is deliberately boring: one self-contained JSON object
per line, append-only, truncation-safe (a half-written trailing line is
skipped on read, mirroring the sweep checkpoint reader).  The default
directory is ``runs/`` under the current working directory, overridable
with the ``REPRO_RUNS_DIR`` environment variable or ``--ledger`` on the
CLI.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.events import jsonable

#: Version stamped into each ledger record; bump on breaking changes.
LEDGER_SCHEMA = 1

#: Environment variable overriding the default ledger directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Ledger file name inside the runs directory.
LEDGER_FILENAME = "ledger.jsonl"


def default_runs_dir() -> Path:
    """The runs directory: ``$REPRO_RUNS_DIR`` or ``./runs``."""
    return Path(os.environ.get(RUNS_DIR_ENV) or "runs")


def new_run_id(now: Optional[float] = None) -> str:
    """A sortable, collision-resistant run id (``r20260806-120301-3f9a``)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(now))
    return f"r{stamp}-{secrets.token_hex(2)}"


@dataclass
class RunRecord:
    """One ledger line: everything needed to reproduce and compare a run.

    Attributes:
        run_id: Unique, time-sortable identifier.
        ts: Unix time the run started.
        command: CLI command (``figure``, ``simulate``, ``ablation``, ...).
        argv: The raw argument vector, for exact replay.
        status: ``"ok"`` or ``"error"`` (non-zero exit / exception).
        duration_s: Wall-clock duration of the run.
        git_sha / git_dirty: Code identity (None outside a checkout).
        config_hash: Short hash of the normalized parameter dict.
        config: The normalized parameter dict itself.
        master_seed: Root RNG seed, when the run has one.
        platform: Machine snapshot (OS, Python, numpy, CPU count).
        metrics: Flat ``{name: float}`` headline metrics of the run.
        artifacts: ``{kind: path}`` of files the run produced
            (trace, metrics snapshot, checkpoint, ...).
        alarms: Domain alarms raised during the run (e.g. a §7.3
            phase-error budget rule that fired, or a crash bundle).
    """

    run_id: str
    ts: float
    command: str
    argv: List[str] = field(default_factory=list)
    status: str = "ok"
    duration_s: float = 0.0
    git_sha: Optional[str] = None
    git_dirty: Optional[bool] = None
    config_hash: Optional[str] = None
    config: Dict = field(default_factory=dict)
    master_seed: Optional[int] = None
    platform: Dict = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    alarms: List[Dict] = field(default_factory=list)
    schema: int = LEDGER_SCHEMA

    def to_dict(self) -> dict:
        return jsonable(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


class Ledger:
    """Append/query interface over one ``ledger.jsonl`` file."""

    def __init__(self, runs_dir: Union[str, Path, None] = None):
        self.runs_dir = Path(runs_dir) if runs_dir is not None else default_runs_dir()
        self.path = self.runs_dir / LEDGER_FILENAME

    # -- writing -------------------------------------------------------------

    def append(self, record: RunRecord) -> Path:
        """Append one record (creates the runs directory on first use)."""
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(record.to_dict(), separators=(",", ":")))
            f.write("\n")
        return self.path

    # -- reading -------------------------------------------------------------

    def records(self, command: Optional[str] = None) -> Iterator[RunRecord]:
        """Yield records oldest-first; skips a truncated trailing line.

        A malformed line *before* the last one raises ``ValueError`` — that
        is corruption worth surfacing, not a torn append.
        """
        if not self.path.exists():
            return
        with open(self.path) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    return  # torn trailing append; everything before is good
                raise ValueError(f"{self.path}: corrupt ledger line {i + 1}")
            record = RunRecord.from_dict(data)
            if command is None or record.command == command:
                yield record

    def last(self, n: int = 10, command: Optional[str] = None) -> List[RunRecord]:
        """The most recent ``n`` records, newest last."""
        return list(self.records(command=command))[-n:]

    def latest(self, command: Optional[str] = None) -> Optional[RunRecord]:
        """The most recent record (optionally of one command), if any."""
        records = self.last(1, command=command)
        return records[0] if records else None

    def get(self, run_id: str) -> Optional[RunRecord]:
        """Look up a record by exact id, or by unambiguous prefix."""
        matches = [r for r in self.records() if r.run_id == run_id]
        if matches:
            return matches[-1]
        prefixed = [r for r in self.records() if r.run_id.startswith(run_id)]
        if len(prefixed) == 1:
            return prefixed[0]
        return None


# ---------------------------------------------------------------------------
# Record comparison (``repro obs runs diff``)
# ---------------------------------------------------------------------------


def diff_metrics(
    old: Dict[str, float], new: Dict[str, float]
) -> List[dict]:
    """Per-metric deltas between two headline-metric dicts.

    Returns one row per metric present in either dict, sorted by name:
    ``{"metric", "old", "new", "delta", "rel"}`` with ``None`` where a
    side is missing and ``rel`` (fractional change) only when computable.
    """
    rows = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        row = {"metric": name, "old": a, "new": b, "delta": None, "rel": None}
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            row["delta"] = b - a
            if a != 0:
                row["rel"] = (b - a) / abs(a)
        rows.append(row)
    return rows


def diff_records(old: RunRecord, new: RunRecord) -> dict:
    """Structured comparison of two runs: identity changes + metric deltas."""
    identity = {}
    for key in ("command", "git_sha", "config_hash", "master_seed"):
        a, b = getattr(old, key), getattr(new, key)
        if a != b:
            identity[key] = {"old": a, "new": b}
    return {
        "old": old.run_id,
        "new": new.run_id,
        "identity": identity,
        "duration": {
            "old": old.duration_s,
            "new": new.duration_s,
            "delta": new.duration_s - old.duration_s,
        },
        "metrics": diff_metrics(old.metrics, new.metrics),
    }


# ---------------------------------------------------------------------------
# Text rendering for the CLI
# ---------------------------------------------------------------------------


def summarize_alarms(alarms: List[Dict], max_width: int = 48) -> str:
    """One-cell alarm summary: count plus the raising rules/kinds.

    A bare count hid *what* went wrong; the end-of-run alert judge
    appends alarms too (:mod:`repro.obs.alerts`), so the list table names them:
    ``2: fastsim.phase_error_p50,fastsim.phase_error_p95``.  Truncated with
    an ellipsis past ``max_width``.
    """
    if not alarms:
        return "-"
    names = [str(a.get("rule") or a.get("kind") or "?") for a in alarms]
    cell = f"{len(alarms)}: " + ",".join(names)
    if len(cell) > max_width:
        cell = cell[: max_width - 1] + "…"
    return cell


def format_list(records: List[RunRecord]) -> str:
    """The ``repro obs runs list`` table."""
    if not records:
        return "ledger is empty"
    lines = [
        f"{'run_id':<22} {'when (UTC)':<16} {'command':<10} {'sha':<8} "
        f"{'seed':>6} {'dur(s)':>8} {'status':<6} alarms"
    ]
    for r in records:
        when = time.strftime("%m-%d %H:%M:%S", time.gmtime(r.ts))
        sha = (r.git_sha or "-")[:7] + ("*" if r.git_dirty else "")
        seed = str(r.master_seed) if r.master_seed is not None else "-"
        lines.append(
            f"{r.run_id:<22} {when:<16} {r.command:<10} {sha:<8} "
            f"{seed:>6} {r.duration_s:>8.2f} {r.status:<6} "
            f"{summarize_alarms(r.alarms)}"
        )
    return "\n".join(lines)


def format_show(record: RunRecord) -> str:
    """The ``repro obs runs show`` rendering (pretty JSON)."""
    return json.dumps(record.to_dict(), indent=2, sort_keys=True)


def format_diff(diff: dict) -> str:
    """The ``repro obs runs diff`` table."""
    lines = [f"diff {diff['old']} -> {diff['new']}"]
    for key, change in sorted(diff["identity"].items()):
        lines.append(f"  {key}: {change['old']!r} -> {change['new']!r}")
    d = diff["duration"]
    lines.append(
        f"  duration_s: {d['old']:.3f} -> {d['new']:.3f} ({d['delta']:+.3f})"
    )
    rows = diff["metrics"]
    if rows:
        lines.append(f"  {'metric':<36} {'old':>12} {'new':>12} {'delta':>12} {'rel':>8}")
        for row in rows:
            old = "-" if row["old"] is None else f"{row['old']:.6g}"
            new = "-" if row["new"] is None else f"{row['new']:.6g}"
            delta = "-" if row["delta"] is None else f"{row['delta']:+.4g}"
            rel = "-" if row["rel"] is None else f"{row['rel']:+.1%}"
            lines.append(f"  {row['metric']:<36} {old:>12} {new:>12} {delta:>12} {rel:>8}")
    else:
        lines.append("  (no headline metrics on either run)")
    return "\n".join(lines)
