"""Span-based tracer with a JSONL backend and a ~zero-cost null path.

Usage::

    from repro.obs import trace

    with trace.span("joint_tx", n_streams=4) as sp:
        ...
        sp.record(decode_ok=3)

    @traced
    def precode(...): ...

The global tracer starts *disabled*: ``trace.span(...)`` then returns one
shared :class:`NullSpan` instance whose ``__enter__``/``__exit__`` do
nothing — the hot-path cost is one attribute test and a dict that is never
built (keyword arguments to ``span`` are only evaluated by the caller, so
avoid expensive expressions in always-on call sites).  ``trace.configure(
path)`` switches on the JSONL backend; spans then record wall-clock
(``perf_counter``) and CPU (``process_time``) durations, nesting depth and
parent linkage, and are exception-safe: a span exited by an exception still
emits its record (with ``error`` set) and never swallows the exception.

Pool workers do not share the parent's sink.  A forked child inherits the
parent's open file, and two processes appending to one stream interleave
mid-line — so workers first call :meth:`Tracer.detach` (drop the inherited
writer *without* flushing or closing it, which would corrupt the parent's
buffer) and then, when the parent is tracing, :meth:`Tracer.capture` into
memory.  Each chunk's records travel home in the chunk's envelope
(:meth:`Tracer.drain`), and the parent writes them into its one trace with
:meth:`Tracer.adopt`: fresh span ids, root spans re-parented under the
parent's current span (``runtime.sweep``), ``worker_pid`` in attrs.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import IO, Dict, List, Optional, Union

from repro.obs.events import SCHEMA_VERSION, JsonlWriter, jsonable


class _RecordBuffer(list):
    """In-memory sink of a capturing pool worker (see :meth:`Tracer.capture`)."""

    write = list.append

    def close(self) -> None:
        pass


class NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def record(self, **attrs) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """One live timed region; emitted as a ``span`` record on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "depth", "_ts", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.depth = 0

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        self._ts = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def record(self, **attrs) -> None:
        """Attach extra attributes to this span's record."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: mis-nested exit
            stack.remove(self)
        record = {
            "type": "span",
            "name": self.name,
            "ts": self._ts,
            "wall_s": wall,
            "cpu_s": cpu,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = jsonable(self.attrs)
        self._tracer._emit(record)
        return False  # never swallow exceptions


class Tracer:
    """Emits span/event records to a JSONL sink when enabled."""

    def __init__(self):
        self.enabled = False
        self._writer: Optional[Union[JsonlWriter, _RecordBuffer]] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- lifecycle -----------------------------------------------------------

    def configure(self, sink: Union[str, IO[str]], **meta) -> None:
        """Start tracing into ``sink`` (a path or text file object)."""
        self.close()
        self._writer = JsonlWriter(sink)
        self._ids = itertools.count(1)
        self._writer.write(
            {"type": "meta", "schema": SCHEMA_VERSION, "ts": time.time(),
             **({"attrs": jsonable(meta)} if meta else {})}
        )
        self.enabled = True

    def close(self) -> None:
        """Stop tracing and flush/close the sink (idempotent)."""
        self.enabled = False
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def detach(self) -> None:
        """Disable tracing and *drop* the sink without flushing or closing it.

        For pool workers: a forked child inherits the parent's open file
        and any bytes buffered at fork time, which ``close()`` would write a
        second time.  The span stack is reset too — spans open in the
        parent at fork time do not belong to the child.
        """
        self.enabled = False
        self._writer = None
        self._local = threading.local()

    # -- cross-process records ---------------------------------------------

    def capture(self) -> None:
        """Trace into memory until :meth:`drain` (pool workers, after :meth:`detach`)."""
        self.detach()
        self._writer = _RecordBuffer()
        self.enabled = True

    def drain(self) -> List[dict]:
        """Hand over and forget the records captured so far ([] when not capturing)."""
        if not isinstance(self._writer, _RecordBuffer):
            return []
        records = list(self._writer)
        self._writer.clear()
        return records

    def adopt(self, records: List[dict], **attrs) -> None:
        """Write another process's drained records into this trace.

        Span ids are redrawn from this tracer's sequence (a parent id is
        met before its span, so it is allocated on first sight); records
        without a parent go under the current span, depths shifted to
        match; ``attrs`` (e.g. ``worker_pid``) are stamped into each.
        """
        if not self.enabled:
            return
        current = self.current_span
        root_parent = None if current is None else current.span_id
        depth_shift = 0 if current is None else current.depth + 1
        ids: Dict[int, int] = {}

        def remap(span_id: Optional[int]) -> Optional[int]:
            if span_id is None:
                return root_parent
            if span_id not in ids:
                ids[span_id] = next(self._ids)
            return ids[span_id]

        for rec in records:
            out = dict(rec)
            out["parent_id"] = remap(rec.get("parent_id"))
            if rec["type"] == "span":
                out["span_id"] = remap(rec["span_id"])
                out["depth"] = int(rec.get("depth", 0)) + depth_shift
            out["attrs"] = {**attrs, **(rec.get("attrs") or {})}
            self._emit(out)

    # -- recording -----------------------------------------------------------

    @property
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack
        return stack[-1] if stack else None

    def span(self, name: str, **attrs) -> Union[Span, NullSpan]:
        """Open a timed region (use as a context manager)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a trace-only observation under the current span.

        For per-packet detail that only a trace reader wants.  Run-level
        events (chunks, progress, alerts, stalls) go through
        :func:`repro.obs.flightrec.emit`, which also writes them here.
        """
        if self.enabled:
            self.write_event(name, attrs)

    def write_event(
        self, name: str, attrs: Optional[dict] = None, ts: Optional[float] = None
    ) -> None:
        """Write one ``event`` record while enabled (``ts`` defaults to now)."""
        if not self.enabled:
            return
        current = self.current_span
        record = {
            "type": "event",
            "name": name,
            "ts": time.time() if ts is None else ts,
            "parent_id": current.span_id if current is not None else None,
        }
        if attrs:
            record["attrs"] = jsonable(attrs)
        self._emit(record)

    def _emit(self, record: dict) -> None:
        if self._writer is not None:
            self._writer.write(record)


#: The process-global tracer all instrumentation reports into.
trace = Tracer()


def traced(fn=None, *, name: Optional[str] = None, tracer: Optional[Tracer] = None):
    """Decorator: run the function inside a span named after it.

    Works bare (``@traced``) or parameterized (``@traced(name="precode")``).
    When the tracer is disabled the wrapper adds one attribute test.
    """

    def decorate(f):
        label = name or f.__qualname__
        t = tracer or trace

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not t.enabled:
                return f(*args, **kwargs)
            with t.span(label):
                return f(*args, **kwargs)

        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
