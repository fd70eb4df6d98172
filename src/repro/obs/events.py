"""JSONL trace event schema, writer and reader.

Every trace is a JSON-Lines file: one self-contained JSON object per line,
so traces stream, truncate safely, and grep cleanly.  Three record types
exist (see ``docs/observability.md`` for the full schema):

``meta``
    First line of every trace: ``{"type": "meta", "schema": 1, ...}``.
``span``
    A timed region, emitted when the region *exits*: name, wall/CPU
    duration, nesting depth, ``span_id``/``parent_id`` linkage, optional
    ``attrs`` payload and ``error`` (exception class name) on failure.
``event``
    A point-in-time observation attached to the enclosing span.

Values inside ``attrs`` are passed through :func:`jsonable`, which folds
numpy scalars/arrays into plain Python so every record always serializes.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, List, Union

import numpy as np

#: Version stamped into each trace's meta record; bump on breaking changes.
SCHEMA_VERSION = 1


def jsonable(obj):
    """Best-effort conversion of an attribute payload to JSON-safe types."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return repr(obj)


class JsonlWriter:
    """Appends one JSON object per line to a file or file-like sink."""

    def __init__(self, sink: Union[str, IO[str]]):
        if isinstance(sink, str):
            self._file = open(sink, "w")
            self._owns = True
        else:
            self._file = sink
            self._owns = False

    def write(self, record: dict) -> None:
        # One write() call per record: concurrent writers (the engine and
        # watchdog threads share one sink) must never
        # interleave a record with another record's newline.
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


def iter_events(source: Union[str, Iterable[str]]) -> Iterator[dict]:
    """Yield parsed records from a JSONL trace (path or iterable of lines).

    Blank lines are skipped; malformed lines raise ``json.JSONDecodeError``
    (a trace that doesn't parse is a bug worth surfacing, not skipping).
    """
    if isinstance(source, str):
        with open(source) as f:
            yield from iter_events(f)
        return
    for line in source:
        line = line.strip()
        if line:
            yield json.loads(line)


def read_events(source: Union[str, Iterable[str]]) -> List[dict]:
    """Materialize :func:`iter_events`."""
    return list(iter_events(source))
