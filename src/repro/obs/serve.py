"""Live HTTP telemetry: OpenMetrics scrape, JSON windows and alert states.

While a run command executes under ``--serve-port``, a stdlib-only
(`http.server` + daemon threads) endpoint exposes the metrics registry:

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
``/``                     JSON index of the above.
========================  ====================================================

:class:`TelemetryServer` also owns the *evaluator thread*: every
``eval_interval_s`` it runs the alert engine over the registry; the
engine's transitions are ``obs.alert`` events (ring and trace), and the
rules that fired become ledger alarms when the run exits — under
``--fail-on-alert`` the run then exits :data:`EXIT_ALERT`.

Nothing here imports outside the stdlib + the obs stack, and a run
without ``--serve-port`` never imports this module.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.alerts import AlertEngine, builtin_rules
from repro.obs.export import metrics_to_openmetrics
from repro.obs.flightrec import emit
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

logger = get_logger("obs.serve")

#: Exit code for "an alert rule fired" (``--serve-port ... --fail-on-alert``
#: runs).  Distinct from ``repro obs regress``'s 1 (a claim check failed).
EXIT_ALERT = 3

#: Content type real OpenMetrics scrapers negotiate.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Seconds between evaluator passes (alert evaluation).
DEFAULT_EVAL_INTERVAL_S = 0.25


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
            elif route == "/":
                self._send_json({
                    "service": "repro live telemetry",
                    "endpoints": ["/metrics", "/timeseries", "/alerts"],
                    "ts": time.time(),
                })
            else:
                self._send_json({"error": f"no such endpoint: {route}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            # client went away mid-response; nothing to salvage
            pass  # repro: noqa[OBS005]


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
