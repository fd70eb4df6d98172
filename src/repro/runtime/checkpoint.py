"""Chunk-granular checkpoint files for resumable sweeps.

A checkpoint is a JSONL progress file: one header line identifying the
sweep, then one line per completed (cell, chunk) work item.  The format is
append-only and flushed per record, so a killed run leaves at worst one
truncated trailing line, which resume detects and drops.

Header record::

    {"type": "header", "version": 1, "sweep": "fig9", "master_seed": 4,
     "chunk_size": 4, "cells": [{"key": ["high", 2], "n_trials": 20}, ...]}

Chunk record::

    {"type": "chunk", "cell": 0, "chunk": 1,
     "results": [[4, <result>], [5, <result>], ...]}

``results`` pairs are ``[trial_index, kernel_result]`` with the kernel
result already passed through :func:`repro.obs.events.jsonable`, so a
resumed aggregate is bit-identical to an uninterrupted one (Python's JSON
float round-trip is exact).

Resume refuses a checkpoint whose header disagrees with the requested
sweep (name, master seed, chunk size, or cell layout): silently mixing
results from a different configuration is exactly the failure mode that
would make the golden-result tests meaningless.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import get_logger
from repro.obs.events import jsonable

logger = get_logger(__name__)

#: Bump on breaking changes to the record layout.
CHECKPOINT_VERSION = 1


class CheckpointMismatch(ValueError):
    """The checkpoint on disk belongs to a different sweep configuration."""


def sweep_header(
    sweep: str, master_seed: int, chunk_size: int, cells: Sequence[Any]
) -> Dict[str, Any]:
    """The header record identifying one sweep configuration."""
    return {
        "type": "header",
        "version": CHECKPOINT_VERSION,
        "sweep": sweep,
        "master_seed": int(master_seed),
        "chunk_size": int(chunk_size),
        "cells": [
            {"key": jsonable(cell.key), "n_trials": int(cell.n_trials)}
            for cell in cells
        ],
    }


def header_chunk_size(path: str) -> Optional[int]:
    """The chunk size recorded in ``path``'s header, or None if the file is
    missing or has no complete header line."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        line = f.readline()
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(header, dict) or header.get("type") != "header":
        return None
    return int(header["chunk_size"])


def load_completed(
    path: str, expected_header: Dict[str, Any]
) -> Dict[Tuple[int, int], List[list]]:
    """Read a checkpoint, returning ``{(cell, chunk): [[trial, result], ...]}``.

    Raises :class:`CheckpointMismatch` if the header does not match
    ``expected_header``.  A truncated trailing line (killed run) is dropped
    with a warning; corruption anywhere else raises.
    """
    completed: Dict[Tuple[int, int], List[list]] = {}
    with open(path) as f:
        lines = f.read().split("\n")
    records = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i >= len(lines) - 2:  # interrupted mid-write on the last line
                logger.warning("dropping truncated trailing checkpoint line in %s", path)
                continue
            raise
    if not records:
        return completed
    header, body = records[0], records[1:]
    if header.get("type") != "header":
        raise CheckpointMismatch(f"{path}: first record is not a header")
    comparable = {k: header.get(k) for k in expected_header}
    if comparable != expected_header:
        raise CheckpointMismatch(
            f"{path}: checkpoint belongs to a different sweep "
            f"(found {comparable!r}, expected {expected_header!r})"
        )
    for record in body:
        if record.get("type") != "chunk":
            continue
        completed[(int(record["cell"]), int(record["chunk"]))] = record["results"]
    return completed


class CheckpointWriter:
    """Appends chunk records to a progress file, flushing per record."""

    def __init__(self, path: str, header: Dict[str, Any], fresh: bool):
        self.path = path
        mode = "w" if fresh else "a"
        self._file = open(path, mode)
        if fresh or os.path.getsize(path) == 0:
            self._write(header)

    def _write(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")
        self._file.flush()

    def append_chunk(
        self, cell_index: int, chunk_index: int, results: List[list]
    ) -> None:
        self._write(
            {
                "type": "chunk",
                "cell": int(cell_index),
                "chunk": int(chunk_index),
                "results": results,
            }
        )

    def close(self) -> None:
        self._file.close()


def open_checkpoint(
    path: Optional[str],
    resume: bool,
    header: Dict[str, Any],
) -> Tuple[Dict[Tuple[int, int], List[list]], Optional[CheckpointWriter]]:
    """Set up checkpointing for one sweep run.

    Returns the already-completed chunks (empty unless resuming an existing
    file) and a writer for new ones (``None`` when checkpointing is off).
    """
    if path is None:
        return {}, None
    completed: Dict[Tuple[int, int], List[list]] = {}
    if resume and os.path.exists(path):
        completed = load_completed(path, header)
        logger.info("resuming %s: %d chunks already complete", path, len(completed))
        return completed, CheckpointWriter(path, header, fresh=False)
    return completed, CheckpointWriter(path, header, fresh=True)
