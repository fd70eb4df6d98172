"""repro.obs — zero-dependency observability for the PHY/MAC/sim stack.

Two stores, read by everything else (see ``docs/observability.md``):

* **Metrics registry** (:mod:`repro.obs.metrics`): counters, gauges and
  histograms.  A histogram keeps exact count/sum/min/max plus a
  timestamped ring of its most recent 4,096 samples
  (:class:`repro.obs.timeseries.Series`), so one store answers both the
  exit snapshot (``--metrics``, ``/metrics``) and windowed questions
  (``/timeseries``, the alert rules in :mod:`repro.obs.alerts`).
* **Event ring** (:mod:`repro.obs.flightrec`): every run-level event —
  chunk, progress tick, watchdog stall, alert transition — enters through
  one call, :func:`emit`, which keeps it in the always-on flight
  recorder (dumped into crash bundles, :mod:`repro.obs.blackbox`),
  writes it to the JSONL trace when a sink is open and hands it to the
  ``/events`` SSE subscribers when any exist.

Around them: the span **tracer** (:mod:`repro.obs.tracer`, free until a
sink is configured; per-worker shards merged by :mod:`repro.obs.shards`),
**logging** to stderr (:mod:`repro.obs.logging`), the **run ledger**
(:mod:`repro.obs.ledger` + :mod:`repro.obs.provenance`), sweep
**progress** (:mod:`repro.obs.progress`), **export** to OpenMetrics/CSV
(:mod:`repro.obs.export`), **regression** checks and the §7.3 sync-health
monitor (:mod:`repro.obs.regress`), the attribution **profiler**
(:mod:`repro.obs.profile`) and the live HTTP endpoint
(:mod:`repro.obs.serve`, deliberately not imported here so runs without
a server never load the HTTP layer).

Typical CLI wiring::

    from repro.obs import metrics, trace, setup_logging

    setup_logging(verbosity=1)
    trace.configure("out.jsonl")
    ...  # run experiments
    trace.close()
    metrics.write_json("metrics.json")
"""

from repro.obs import metrics, shards
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.blackbox import (
    list_bundles,
    load_bundle,
    set_run_context,
    signal_guard,
    write_crash_bundle,
)
from repro.obs.events import SCHEMA_VERSION, format_sse, iter_events, read_events
from repro.obs.flightrec import FlightRecorder, emit, get_recorder
from repro.obs.ledger import Ledger, RunRecord, default_runs_dir, new_run_id
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import MetricsRegistry, Timer, get_registry
from repro.obs.progress import SweepProgress
from repro.obs.shards import merge_shards
from repro.obs.summary import TraceSummary, format_table, summarize
from repro.obs.tracer import NULL_SPAN, Span, Tracer, trace, traced

__all__ = [
    "SCHEMA_VERSION",
    "AlertEngine",
    "AlertRule",
    "FlightRecorder",
    "Ledger",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunRecord",
    "Span",
    "SweepProgress",
    "Timer",
    "TraceSummary",
    "Tracer",
    "default_runs_dir",
    "emit",
    "format_sse",
    "format_table",
    "get_logger",
    "get_recorder",
    "get_registry",
    "iter_events",
    "list_bundles",
    "load_bundle",
    "merge_shards",
    "metrics",
    "new_run_id",
    "read_events",
    "set_run_context",
    "setup_logging",
    "shards",
    "signal_guard",
    "summarize",
    "trace",
    "traced",
    "write_crash_bundle",
]
