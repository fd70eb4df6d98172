"""repro.obs — zero-dependency observability for the PHY/MAC/sim stack.

Two stores, read by everything else (see ``docs/observability.md``):

* **Metrics registry** (:mod:`repro.obs.metrics`): counters, gauges and
  histograms.  A histogram keeps exact count/sum/min/max plus a ring of
  its most recent 4,096 samples (:class:`repro.obs.timeseries.Series`),
  so one store answers both the exit snapshot (``--metrics``) and the
  alert rules of :mod:`repro.obs.alerts`, which every run command judges
  once at its end.  Pool workers' samples reach the parent's registry
  through the sweep engine's chunk envelopes.
* **Event ring** (:mod:`repro.obs.flightrec`): every run-level event —
  chunk, progress tick, watchdog stall, fired alert — enters through
  one call, :func:`emit`, which keeps it in the always-on flight
  recorder (dumped into crash bundles, :mod:`repro.obs.blackbox`) and
  writes it to the JSONL trace when a sink is open.

Around them: the span **tracer** (:mod:`repro.obs.tracer`, free until a
sink is configured; pool workers' records travel home in chunk
envelopes), **logging** to stderr (:mod:`repro.obs.logging`), the **run
ledger** (:mod:`repro.obs.ledger` + :mod:`repro.obs.provenance`), sweep
**progress** (:mod:`repro.obs.progress`), the trace **profiler**
(:mod:`repro.obs.profile`: hot spans by self time and per-sweep
attribution) and the end-of-run **alert judge** (:mod:`repro.obs.alerts`).

The CLI's ``repro obs`` has three commands: ``profile`` (where the
time goes), ``runs`` (which headline metric moved between runs; why a
run failed is its crash bundle, linked from ``runs show``) and
``regress``, which runs the paper-claims table (:mod:`repro.sim.claims`)
rather than reading these stores.

Typical CLI wiring::

    from repro.obs import metrics, trace, setup_logging

    setup_logging(verbosity=1)
    trace.configure("out.jsonl")
    ...  # run experiments
    trace.close()
    metrics.write_json("metrics.json")
"""

from repro.obs import metrics
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.blackbox import set_run_context, signal_guard, write_crash_bundle
from repro.obs.events import SCHEMA_VERSION, iter_events, read_events
from repro.obs.flightrec import FlightRecorder, emit, get_recorder
from repro.obs.ledger import Ledger, RunRecord, default_runs_dir, new_run_id
from repro.obs.logging import get_logger, setup_logging
from repro.obs.metrics import MetricsRegistry, Timer, get_registry
from repro.obs.progress import SweepProgress
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
    "Tracer",
    "default_runs_dir",
    "emit",
    "get_logger",
    "get_recorder",
    "get_registry",
    "iter_events",
    "metrics",
    "new_run_id",
    "read_events",
    "set_run_context",
    "setup_logging",
    "signal_guard",
    "trace",
    "traced",
    "write_crash_bundle",
]
