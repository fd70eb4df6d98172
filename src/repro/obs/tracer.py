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
buffer) and then, when the parent was tracing to a file, reopen their own
*shard*: a per-worker JSONL file under ``<trace>.shards/`` seeded with the
parent's span context (see :meth:`Tracer.worker_context` /
:meth:`Tracer.configure_shard`).  After the pool drains,
:func:`repro.obs.shards.merge_shards` folds every shard back into the live
parent trace with remapped span ids, restoring one coherent tree.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import os
import threading
import time
from typing import IO, Any, Dict, Optional, Union

from repro.obs.events import SCHEMA_VERSION, JsonlWriter, jsonable

#: Directory holding per-worker trace shards, next to the parent trace file:
#: ``/path/run.jsonl`` -> ``/path/run.jsonl.shards/worker-<pid>.jsonl``.
SHARD_DIR_SUFFIX = ".shards"


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
        self._writer: Optional[JsonlWriter] = None
        self._sink_path: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- lifecycle -----------------------------------------------------------

    def configure(self, sink: Union[str, IO[str]], **meta) -> None:
        """Start tracing into ``sink`` (a path or text file object)."""
        self.close()
        self._writer = JsonlWriter(sink)
        self._sink_path = sink if isinstance(sink, str) else None
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
        self._sink_path = None

    def detach(self) -> None:
        """Disable tracing and *drop* the sink without flushing or closing it.

        For child processes: a forked worker inherits the parent's tracer,
        including its open file object and any bytes the parent had buffered
        at fork time.  ``close()`` would flush that inherited buffer into
        the file a second time, so the child must walk away from the handle
        instead of closing it.  The thread-local span stack is reset too —
        spans open in the parent at fork time do not belong to the child.
        """
        self.enabled = False
        self._writer = None
        self._sink_path = None
        self._local = threading.local()

    @property
    def sink_path(self) -> Optional[str]:
        """Path of the current sink, or None (disabled / file-object sink)."""
        return self._sink_path

    # -- cross-process shards ------------------------------------------------

    def worker_context(self, **attrs) -> Optional[Dict[str, Any]]:
        """Picklable shard context to ship to pool workers.

        Returns None unless tracing into a named file (worker shards need a
        directory to live in).  The context carries the shard directory
        (created here, in the parent), the current span's id/depth so shard
        roots can be re-parented under it at merge time, and any extra
        ``attrs`` to stamp into each shard's meta record.
        """
        if not self.enabled or self._sink_path is None:
            return None
        shard_dir = self._sink_path + SHARD_DIR_SUFFIX
        os.makedirs(shard_dir, exist_ok=True)
        current = self.current_span
        return {
            "shard_dir": shard_dir,
            "parent_span_id": None if current is None else current.span_id,
            "parent_depth": 0 if current is None else current.depth + 1,
            "attrs": jsonable(attrs) if attrs else {},
        }

    def configure_shard(self, context: Dict[str, Any]) -> str:
        """Open this process's shard of an inherited trace (pool workers).

        Call after :meth:`detach`, with the parent's
        :meth:`worker_context`.  The shard file is keyed on the worker's
        pid, its meta record carries the inherited parent span linkage, and
        the shard is closed at interpreter exit so a clean worker shutdown
        always leaves complete lines behind.  Returns the shard path.
        """
        pid = os.getpid()
        path = os.path.join(context["shard_dir"], f"worker-{pid}.jsonl")
        self.detach()
        self._writer = JsonlWriter(path)
        self._sink_path = path
        self._ids = itertools.count(1)
        self._writer.write({
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "ts": time.time(),
            "worker": {
                "pid": pid,
                "parent_span_id": context.get("parent_span_id"),
                "parent_depth": int(context.get("parent_depth", 0)),
            },
            **({"attrs": dict(context["attrs"])} if context.get("attrs") else {}),
        })
        self.enabled = True
        atexit.register(self.close)
        return path

    def allocate_span_id(self) -> int:
        """Draw a fresh span id from this tracer's sequence (merger use)."""
        return next(self._ids)

    def emit(self, record: dict) -> None:
        """Write a pre-built record to the sink while enabled (merger use)."""
        if self.enabled:
            self._emit(record)

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

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()


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
