"""Live HTTP telemetry: OpenMetrics scrape, JSON windows, SSE stream, watch.

While a sweep or simulation executes, a stdlib-only (`http.server` +
daemon threads) endpoint exposes the two telemetry stores:

========================  ====================================================
``/metrics``              Current registry state, OpenMetrics text
                          (``application/openmetrics-text``) — scrapeable by
                          prometheus, rendered by :mod:`repro.obs.export`.
``/timeseries``           :meth:`MetricsRegistry.rollups`: per histogram a
                          rollup of its samples in the window, per counter /
                          gauge its value; query params ``since_s`` (window,
                          seconds back) and ``name`` (glob).
``/alerts``               Rule states + currently-firing list from the
                          :class:`~repro.obs.alerts.AlertEngine`.
``/events``               Server-Sent-Events stream of every event the
                          flight recorder takes (``runtime.progress``,
                          ``runtime.chunk``, ``obs.alert``, ...), after a
                          ``hello`` frame, with keep-alive comments.
``/``                     JSON index of the above.
========================  ====================================================

:class:`TelemetryServer` also owns the *evaluator thread*: every
``eval_interval_s`` it runs the alert engine over the registry; the
engine's transitions reach ``/events`` as ``obs.alert`` events.

The ``watch`` client (``repro obs watch URL``) tails any such endpoint —
local or remote — as a refreshing terminal status table, and exits
:data:`EXIT_ALERT` under ``--fail-on-alert`` if any rule fired while
watching, so shell scripts and CI can gate on live health.

Nothing here imports outside the stdlib + the obs stack, and a run
without ``--serve-port`` never imports this module.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, TextIO
from urllib.parse import parse_qs, urlsplit

from repro.obs.alerts import AlertEngine, builtin_rules
from repro.obs.events import format_sse
from repro.obs.export import metrics_to_openmetrics
from repro.obs.flightrec import emit, get_recorder
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

logger = get_logger("obs.serve")

#: Exit code for "an alert rule fired" (``watch --fail-on-alert``,
#: ``--serve-port ... --fail-on-alert`` runs).  Distinct from the regress
#: gate's 1 (breach) / 2 (no baseline).
EXIT_ALERT = 3

#: Content type real OpenMetrics scrapers negotiate.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Seconds between evaluator passes (alert evaluation).
DEFAULT_EVAL_INTERVAL_S = 0.25

#: Seconds an idle SSE connection waits before writing a keep-alive comment.
SSE_KEEPALIVE_S = 0.5


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    block_on_close = False
    telemetry: "TelemetryServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003 - stdlib API
        logger.debug("http %s", fmt % args)

    def _send_body(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, obj: dict, status: int = 200) -> None:
        body = (json.dumps(obj, sort_keys=True) + "\n").encode()
        self._send_body(body, "application/json; charset=utf-8", status=status)

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        tele = self.server.telemetry  # type: ignore[attr-defined]
        split = urlsplit(self.path)
        route = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)
        try:
            if route == "/metrics":
                body = metrics_to_openmetrics(tele.registry).encode()
                self._send_body(body, OPENMETRICS_CONTENT_TYPE)
            elif route == "/timeseries":
                self._send_json(tele.timeseries_view(params))
            elif route == "/alerts":
                self._send_json(tele.alerts_view())
            elif route == "/events":
                self._serve_events(tele)
            elif route == "/":
                self._send_json({
                    "service": "repro live telemetry",
                    "endpoints": ["/metrics", "/timeseries", "/alerts", "/events"],
                    "ts": time.time(),
                })
            else:
                self._send_json({"error": f"no such endpoint: {route}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            # client went away mid-response; nothing to salvage
            pass  # repro: noqa[OBS005]

    def _serve_events(self, tele: "TelemetryServer") -> None:
        recorder = get_recorder()
        q = recorder.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream; charset=utf-8")
            self.send_header("Cache-Control", "no-cache")
            # SSE is an unbounded stream: no Content-Length, close delimits.
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(format_sse("hello", {
                "ts": time.time(),
                "endpoints": ["/metrics", "/timeseries", "/alerts"],
            }).encode())
            self.wfile.flush()
            while not tele.stopping.is_set():
                try:
                    kind, payload = q.get(timeout=SSE_KEEPALIVE_S)
                except queue.Empty:
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                self.wfile.write(format_sse(kind, payload).encode())
                self.wfile.flush()
        finally:
            recorder.unsubscribe(q)


class TelemetryServer:
    """The live telemetry endpoint + evaluator thread for one process.

    Defaults bind the process-global registry and an alert engine over
    :func:`repro.obs.alerts.builtin_rules`.  ``port=0`` binds an
    ephemeral port; read :attr:`port`/:attr:`url` after :meth:`start`.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
        engine: Optional[AlertEngine] = None,
        eval_interval_s: float = DEFAULT_EVAL_INTERVAL_S,
    ):
        self.host = host
        self.port = int(port)
        self.registry = registry if registry is not None else get_registry()
        self.engine = engine if engine is not None else AlertEngine(
            builtin_rules()
        )
        self.eval_interval_s = float(eval_interval_s)
        self.stopping = threading.Event()
        self._httpd: Optional[_Server] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        httpd = _Server((self.host, self.port), _Handler)
        httpd.telemetry = self
        self._httpd = httpd
        self.port = httpd.server_address[1]
        serve_thread = threading.Thread(
            target=httpd.serve_forever, name="repro-telemetry-http", daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        eval_thread = threading.Thread(
            target=self._eval_loop, name="repro-telemetry-eval", daemon=True,
        )
        self._threads = [serve_thread, eval_thread]
        serve_thread.start()
        eval_thread.start()
        logger.info("serving live telemetry on %s", self.url)
        emit("obs.serve", {"url": self.url, "status": "started"})
        return self

    def stop(self) -> None:
        """Final evaluation pass, then shut the endpoint down (idempotent)."""
        if self._httpd is None:
            return
        self.evaluate_once()  # judge end-of-run state before going dark
        emit("obs.serve", {"url": self.url, "status": "stopping"})
        self.stopping.set()
        httpd, self._httpd = self._httpd, None
        httpd.shutdown()
        httpd.server_close()
        for t in self._threads:
            t.join(timeout=2.0)
        self._threads = []
        logger.info("live telemetry on %s stopped", self.url)

    # -- evaluation ------------------------------------------------------------

    def _eval_loop(self) -> None:
        while not self.stopping.wait(self.eval_interval_s):
            self.evaluate_once()

    def evaluate_once(self) -> List[dict]:
        """Run the alert rules once over the registry."""
        try:
            return self.engine.evaluate(self.registry)
        except Exception:
            logger.exception("telemetry evaluation pass failed")
            return []

    # -- endpoint views --------------------------------------------------------

    def timeseries_view(self, params: Dict[str, List[str]]) -> dict:
        since = None
        if "since_s" in params:
            since = time.time() - float(params["since_s"][0])
        return {
            "ts": time.time(),
            "series": self.registry.rollups(since=since, names=params.get("name")),
        }

    def alerts_view(self) -> dict:
        return {
            "ts": time.time(),
            "rules": self.engine.to_dict(),
            "firing": self.engine.firing(),
        }


# ---------------------------------------------------------------------------
# watch: tail an endpoint as a live terminal table
# ---------------------------------------------------------------------------


def fetch_json(url: str, timeout: float = 2.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def _format_value(v: object) -> str:
    if v is None:
        return "--"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def render_status(timeseries: dict, alerts: dict) -> str:
    """One watch frame: series table + alert summary."""
    rows = [("series", "count", "last", "mean", "p95")]
    for name, entry in sorted(timeseries.get("series", {}).items()):
        if not entry.get("count") and entry.get("last") is None:
            continue  # a histogram with no samples in the window
        rows.append((
            name,
            _format_value(entry.get("count")),
            _format_value(entry.get("last")),
            _format_value(entry.get("mean")),
            _format_value(entry.get("p95")),
        ))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, len(row))]
        lines.append("  ".join(cells))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    firing = alerts.get("firing", [])
    states = alerts.get("rules", {})
    lines.append("")
    lines.append(f"alerts: {len(firing)} firing / {len(states)} rules")
    for state in firing:
        lines.append(
            f"  FIRING [{state.get('severity')}] {state.get('rule')}: "
            f"{state.get('series')} {state.get('stat')}="
            f"{_format_value(state.get('value'))} vs "
            f"{_format_value(state.get('threshold'))} ({state.get('op')})"
        )
    return "\n".join(lines)


def watch(
    url: str,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    duration_s: Optional[float] = None,
    fail_on_alert: bool = False,
    name: Optional[str] = None,
    stream: Optional[TextIO] = None,
    timeout: float = 2.0,
) -> int:
    """Tail a telemetry endpoint as a refreshing status table.

    Returns 0 on a healthy watch, 1 when the endpoint was never
    reachable, and :data:`EXIT_ALERT` when ``fail_on_alert`` is set and
    any rule was firing during the watch.
    """
    out = stream if stream is not None else sys.stdout
    base = url.rstrip("/")
    if not base.startswith("http"):
        base = "http://" + base
    ts_url = base + "/timeseries"
    if name:
        ts_url += f"?name={name}"
    deadline = None if duration_s is None else time.monotonic() + duration_s
    saw_firing = False
    reached = False
    n = 0
    while True:
        try:
            timeseries = fetch_json(ts_url, timeout=timeout)
            alerts = fetch_json(base + "/alerts", timeout=timeout)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            out.write(f"watch: {base} unreachable: {exc}\n")
        else:
            reached = True
            saw_firing = saw_firing or bool(alerts.get("firing"))
            out.write(render_status(timeseries, alerts) + "\n\n")
        out.flush()
        n += 1
        if iterations is not None and n >= iterations:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        time.sleep(interval_s)
    if not reached:
        return 1
    if fail_on_alert and saw_firing:
        out.write("watch: alert rules fired during the watch\n")
        return EXIT_ALERT
    return 0


# ---------------------------------------------------------------------------
# events streaming: tail /events with reconnect
# ---------------------------------------------------------------------------

#: Reconnect backoff: first retry delay and the cap it doubles up to.
STREAM_BACKOFF_S = 0.5
STREAM_BACKOFF_CAP_S = 8.0

#: Consecutive failed (re)connect attempts tolerated before giving up.
STREAM_RETRIES = 5


def _iter_sse_frames(resp):
    """Yield ``(event, data_dict)`` frames from an open SSE response.

    Comment lines (keep-alives) yield ``(None, None)`` so callers can
    treat them as liveness.  Returns when the server closes the stream.
    """
    event: Optional[str] = None
    data_lines: List[str] = []
    while True:
        raw = resp.readline()
        if not raw:
            return  # stream closed
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if not line:
            if data_lines:
                try:
                    payload = json.loads("\n".join(data_lines))
                except json.JSONDecodeError:
                    payload = {"raw": "\n".join(data_lines)}
                yield event or "message", payload
            event, data_lines = None, []
            continue
        if line.startswith(":"):
            yield None, None  # keep-alive comment
            continue
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())


def stream_events(
    url: str,
    reconnect: bool = True,
    max_events: Optional[int] = None,
    duration_s: Optional[float] = None,
    stream: Optional[TextIO] = None,
    timeout: float = 5.0,
) -> int:
    """Tail a telemetry endpoint's ``/events`` SSE stream as JSON lines.

    A dropped connection (server restart, network blip, the run between
    two sweeps) is *reconnected* with capped exponential backoff
    (:data:`STREAM_BACKOFF_S` doubling up to
    :data:`STREAM_BACKOFF_CAP_S`); any received frame — keep-alives
    included — resets the retry budget.  Returns 0 when ``max_events``
    or ``duration_s`` bounds the tail, and 1 only once
    :data:`STREAM_RETRIES` consecutive attempts failed (immediately on the first drop under
    ``reconnect=False``).
    """
    out = stream if stream is not None else sys.stdout
    base = url.rstrip("/")
    if not base.startswith("http"):
        base = "http://" + base
    events_url = base + "/events"
    deadline = None if duration_s is None else time.monotonic() + duration_s
    seen = 0
    attempts = 0
    backoff = STREAM_BACKOFF_S
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            return 0
        try:
            resp = urllib.request.urlopen(events_url, timeout=timeout)
        except (urllib.error.URLError, OSError) as exc:
            out.write(f"events: {events_url} unreachable: {exc}\n")
            out.flush()
        else:
            try:
                for kind, payload in _iter_sse_frames(resp):
                    attempts = 0  # live server: reset the retry budget
                    backoff = STREAM_BACKOFF_S
                    if kind is not None:
                        seen += 1
                        out.write(
                            json.dumps({"event": kind, **payload},
                                       sort_keys=True) + "\n"
                        )
                        out.flush()
                    if max_events is not None and seen >= max_events:
                        return 0
                    if deadline is not None and time.monotonic() >= deadline:
                        return 0
            except (urllib.error.URLError, OSError) as exc:
                out.write(f"events: stream dropped: {exc}\n")
                out.flush()
            else:
                out.write("events: stream closed by server\n")
                out.flush()
            finally:
                resp.close()
        if not reconnect:
            return 1
        attempts += 1
        if attempts > STREAM_RETRIES:
            out.write(
                f"events: giving up after {STREAM_RETRIES} failed "
                f"reconnect attempts\n"
            )
            out.flush()
            return 1
        out.write(f"events: reconnecting in {backoff:.1f}s "
                  f"(attempt {attempts}/{STREAM_RETRIES})\n")
        out.flush()
        time.sleep(backoff)
        backoff = min(backoff * 2.0, STREAM_BACKOFF_CAP_S)
