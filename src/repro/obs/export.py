"""Metric export: OpenMetrics text and tidy CSV time series.

Two consumers, two shapes:

* **Scrapers/dashboards** want the *current* state of one run in the
  OpenMetrics text format — :func:`metrics_to_openmetrics` renders a
  metrics-registry snapshot (live registry, ``to_dict()`` output, or a
  ``--metrics`` JSON file) with counters as ``_total``, gauges verbatim
  and histograms as summaries with ``quantile`` labels.
* **Plots/notebooks** want *history* as a tidy (long-form) table —
  :func:`ledger_to_csv` flattens a ledger slice to one
  ``(run, metric, value)`` row per headline metric, and
  :func:`metrics_to_csv` does the same for a single snapshot.

Everything is pure string rendering over plain dicts: no network, no
third-party dependencies, so the exporters work anywhere the ledger does.
"""

from __future__ import annotations

import csv
import io
import re
import time
from typing import Dict, Iterable, Union

from repro.obs.ledger import RunRecord
from repro.obs.metrics import MetricsRegistry

#: Histogram percentiles rendered as OpenMetrics summary quantiles.
_QUANTILES = (("p50", "0.5"), ("p90", "0.9"), ("p95", "0.95"), ("p99", "0.99"))

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def openmetrics_name(name: str) -> str:
    """Fold a dotted metric name into the OpenMetrics charset.

    ``mac.phase_error_rad`` becomes ``mac_phase_error_rad``; a leading
    digit gains an underscore prefix.
    """
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _snapshot(source: Union[MetricsRegistry, Dict[str, dict]]) -> Dict[str, dict]:
    return source.to_dict() if isinstance(source, MetricsRegistry) else source


def metrics_to_openmetrics(source: Union[MetricsRegistry, Dict[str, dict]]) -> str:
    """Render a metrics snapshot as OpenMetrics exposition text.

    Every metric family gets ``# HELP`` and ``# TYPE`` metadata lines —
    real scrapers (prometheus, ``promtool check metrics``) reject
    expositions without them — and the text terminates with ``# EOF``.

    Args:
        source: A live :class:`MetricsRegistry` or its ``to_dict()`` form
            (which is also what ``--metrics out.json`` files contain).

    Returns:
        OpenMetrics text ending with ``# EOF``.
    """
    snapshot = _snapshot(source)
    lines = []
    for name in sorted(snapshot):
        data = snapshot[name]
        om = openmetrics_name(name)
        kind = data.get("type")
        if kind == "counter":
            lines.append(f"# HELP {om} repro counter {name}")
            lines.append(f"# TYPE {om} counter")
            lines.append(f"{om}_total {data['value']:.10g}")
        elif kind == "gauge":
            if data.get("value") is None:
                continue
            lines.append(f"# HELP {om} repro gauge {name}")
            lines.append(f"# TYPE {om} gauge")
            lines.append(f"{om} {data['value']:.10g}")
        elif kind == "histogram":
            lines.append(f"# HELP {om} repro histogram {name} (summary of its sample ring)")
            lines.append(f"# TYPE {om} summary")
            count = data.get("count", 0)
            for key, q in _QUANTILES:
                if key in data:
                    lines.append(f'{om}{{quantile="{q}"}} {data[key]:.10g}')
            lines.append(f"{om}_count {count}")
            if count and "mean" in data:
                lines.append(f"{om}_sum {data['mean'] * count:.10g}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


#: Sample-name suffixes each OpenMetrics type may emit (summary quantile
#: samples use the bare family name with a ``quantile`` label).
_TYPE_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "summary": ("", "_count", "_sum", "_created"),
}

_VALID_FAMILY_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)(?: \S+)?$"
)


def validate_openmetrics(text: str) -> list:
    """``promtool check metrics``-style validation of an exposition.

    Returns a list of problem strings (empty = valid).  Checks the
    structural rules scrapers actually enforce: a single terminating
    ``# EOF``, ``# HELP``/``# TYPE`` metadata preceding each family's
    samples, metadata emitted once per family, sample names matching
    the declared family + type-legal suffix, and parseable float values.
    """
    problems = []
    if not text.endswith("# EOF\n"):
        problems.append("exposition must terminate with a '# EOF' line")
    lines = text.splitlines()
    meta: Dict[str, Dict[str, str]] = {}  # family -> {"help": ..., "type": ...}
    eof_seen = False
    for i, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"line {i}: blank lines are not allowed")
            continue
        if eof_seen:
            problems.append(f"line {i}: content after '# EOF'")
            break
        if line == "# EOF":
            eof_seen = True
            continue
        if line.startswith("# "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE", "UNIT"):
                problems.append(f"line {i}: malformed metadata line: {line!r}")
                continue
            keyword, family = parts[1].lower(), parts[2]
            if not _VALID_FAMILY_RE.match(family):
                problems.append(f"line {i}: invalid family name {family!r}")
                continue
            entry = meta.setdefault(family, {})
            if keyword in entry:
                problems.append(
                    f"line {i}: duplicate '# {keyword.upper()}' for {family}"
                )
            entry[keyword] = parts[3] if len(parts) > 3 else ""
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {i}: unparseable sample line: {line!r}")
            continue
        name, value = m.group("name"), m.group("value")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {i}: non-numeric sample value {value!r}")
        family = None
        for fam, entry in meta.items():
            kind = entry.get("type", "untyped")
            suffixes = _TYPE_SUFFIXES.get(kind, ("",))
            if any(name == fam + s for s in suffixes):
                family = fam
                break
        if family is None:
            problems.append(
                f"line {i}: sample {name!r} has no preceding "
                f"'# TYPE' metadata for its family"
            )
            continue
        entry = meta[family]
        if "type" not in entry:
            problems.append(f"line {i}: family {family!r} missing '# TYPE'")
        if "help" not in entry:
            problems.append(f"line {i}: family {family!r} missing '# HELP'")
    if not eof_seen:
        problems.append("no '# EOF' terminator found")
    return problems


# ---------------------------------------------------------------------------
# Tidy CSV
# ---------------------------------------------------------------------------

#: Column order of the tidy ledger export.
LEDGER_CSV_FIELDS = (
    "run_id", "ts", "iso_time", "command", "git_sha", "config_hash",
    "master_seed", "status", "duration_s", "metric", "value",
)


def ledger_to_csv(records: Iterable[RunRecord]) -> str:
    """Flatten ledger records to a tidy CSV time series.

    One row per ``(run, headline metric)``; runs without headline metrics
    still contribute one row with ``metric=duration_s`` so wall-time
    trends always plot.  Columns: :data:`LEDGER_CSV_FIELDS`.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEDGER_CSV_FIELDS)
    for r in records:
        base = [
            r.run_id,
            f"{r.ts:.3f}",
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(r.ts)),
            r.command,
            r.git_sha or "",
            r.config_hash or "",
            "" if r.master_seed is None else r.master_seed,
            r.status,
            f"{r.duration_s:.4f}",
        ]
        rows = sorted(r.metrics.items()) or [("duration_s", r.duration_s)]
        for metric, value in rows:
            writer.writerow(base + [metric, value])
    return buf.getvalue()


def metrics_to_csv(source: Union[MetricsRegistry, Dict[str, dict]]) -> str:
    """Flatten one metrics snapshot to tidy ``metric,field,value`` rows.

    Histograms contribute one row per statistic (count/mean/min/max/p*);
    counters and gauges one ``value`` row each.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("metric", "type", "field", "value"))
    snapshot = _snapshot(source)
    for name in sorted(snapshot):
        data = dict(snapshot[name])
        kind = data.pop("type", "?")
        for field in sorted(data):
            if data[field] is None:
                continue
            writer.writerow((name, kind, field, data[field]))
    return buf.getvalue()
