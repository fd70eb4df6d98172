"""Observability-hygiene rules: span lifecycles and metric naming.

The tracer's span records are only exception-safe when spans are entered
through ``with`` (``Span.__exit__`` emits the record; a span that is never
exited is silently lost, and one exited manually can mis-nest the stack).
Metric names must follow the registered ``dotted.name`` convention —
``component.metric`` lowercase with underscores — because the profiler's
glob filters, the ``--metrics`` snapshot and the alert rules all key on
that shape (see ``docs/observability.md``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.analysis.registry import Rule, register
from repro.analysis.source import ModuleSource, dotted_name
from repro.analysis.violations import Severity

#: The registered metric-name convention: at least two lowercase dotted
#: segments, e.g. ``mac.arq.retries`` or ``phasesync.cfo_residual_hz``.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Registry accessors whose first argument is a metric name.
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram", "timer"})


def _is_tracer_base(src: ModuleSource, node: ast.AST) -> bool:
    """Heuristic: does this expression look like a tracer handle?

    Matches the module-level ``trace`` singleton (however imported), any
    ``*tracer*``-named local, and attribute chains ending in a tracer.
    """
    path = src.imports.resolve(node) or dotted_name(node) or ""
    leaf = path.rsplit(".", 1)[-1].lower()
    return "trace" in leaf or "tracer" in path.lower()


@register
class SpanOutsideWith(Rule):
    """Tracer spans must be opened via ``with`` so exit always records."""

    id = "OBS001"
    family = "obs"
    severity = Severity.ERROR
    summary = (
        "tracer .span(...) opened outside a `with` block; spans must be "
        "context-managed so their records survive exceptions"
    )

    def check(self, src: ModuleSource) -> Iterator:
        with_contexts: Set[int] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "span"):
                continue
            if not _is_tracer_base(src, func.value):
                continue
            if id(node) in with_contexts:
                continue
            yield self.violation(
                src, node,
                "span opened outside `with`; use `with trace.span(...) as "
                "sp:` so the record is emitted even when the body raises",
            )


@register
class MetricNameConvention(Rule):
    """Literal metric names must follow the ``dotted.name`` convention."""

    id = "OBS002"
    family = "obs"
    severity = Severity.ERROR
    summary = (
        "metric registered with a name outside the dotted.name convention "
        "(lowercase component.metric); breaks glob filters and alert rules"
    )

    def check(self, src: ModuleSource) -> Iterator:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _METRIC_FACTORIES
            ):
                continue
            base = src.imports.resolve(func.value) or dotted_name(func.value) or ""
            leaf = base.rsplit(".", 1)[-1].lower()
            if not ("metrics" in leaf or "registry" in leaf):
                continue
            if not node.args:
                continue
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                continue  # dynamic names are the caller's responsibility
            if METRIC_NAME_RE.match(name_arg.value):
                continue
            yield self.violation(
                src, node,
                f"metric name {name_arg.value!r} does not match the "
                f"dotted.name convention (lowercase `component.metric`); "
                f"see docs/observability.md",
            )


@register
class AdHocPerfCounterTiming(Rule):
    """Timing should flow through obs, not ad-hoc ``perf_counter`` pairs.

    A ``t0 = time.perf_counter()`` / ``elapsed = perf_counter() - t0``
    pair measures a duration and then strands it in a local variable:
    invisible to traces, metrics snapshots, the ledger and the profiler.
    ``trace.span(...)`` or ``metrics.timer(...)`` capture the same number
    *and* land it in telemetry.  Advice-only — :mod:`repro.obs` itself is
    exempt (it is the implementation of those timers), and benchmarks that
    deliberately want a raw stopwatch can suppress per line.
    """

    id = "OBS003"
    family = "obs"
    severity = Severity.ADVICE
    summary = (
        "ad-hoc time.perf_counter() timing outside repro.obs; prefer "
        "trace.span(...) or metrics.timer(...) so the measurement lands "
        "in telemetry"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if src.in_package("repro.obs"):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if src.imports.resolve(node.func) != "time.perf_counter":
                continue
            yield self.violation(
                src, node,
                "ad-hoc perf_counter timing; wrap the region in "
                "`with trace.span(...)` or use `metrics.timer(...)` so the "
                "duration is recorded, not stranded in a local",
            )


@register
class AlertRuleNameConvention(Rule):
    """Alert-rule names should follow the same ``domain.metric`` shape.

    Alert rules (:class:`repro.obs.alerts.AlertRule`) land in ledger
    alarms and ``obs.alert`` trace events next to metric names; a rule
    named ``PhaseBudget!`` breaks the same glob filters and family
    grouping OBS002 protects for metrics.  Rules built with a
    dynamic name get the equivalent check at construction time
    (``AlertRule`` warns); this covers the literal names at python call
    sites.  Advice-only: experimental rule names in notebooks/scripts
    should nag, not gate.
    """

    id = "OBS004"
    family = "obs"
    severity = Severity.ADVICE
    summary = (
        "alert rule named outside the dotted domain.metric convention "
        "(lowercase `domain.metric`, like metric names under OBS002)"
    )

    def check(self, src: ModuleSource) -> Iterator:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            path = src.imports.resolve(func) or dotted_name(func) or ""
            if path.rsplit(".", 1)[-1] != "AlertRule":
                continue
            name_node = None
            for kw in node.keywords:
                if kw.arg == "name":
                    name_node = kw.value
                    break
            if name_node is None and node.args:
                name_node = node.args[0]
            if not (
                isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)
            ):
                continue  # dynamic names are checked at construction time
            if METRIC_NAME_RE.match(name_node.value):
                continue
            yield self.violation(
                src, node,
                f"alert rule name {name_node.value!r} does not match the "
                f"dotted domain.metric convention; ledger alarms group "
                f"by that shape (see docs/static_analysis.md)",
            )


@register
class SwallowedException(Rule):
    """Observability/runtime plumbing must not drop exceptions silently.

    A bare ``except ...: pass`` in the obs stack or the sweep runtime is
    exactly the failure mode the flight recorder and crash bundles exist
    to eliminate: telemetry that dies without a trace.  Handlers there
    must log what they dropped (debug level is fine for best-effort
    paths) or re-raise.  Scoped to :mod:`repro.obs` and
    :mod:`repro.runtime`; advice-only, since a deliberate swallow with a
    justifying comment plus ``# repro: noqa[OBS005]`` is sometimes the
    right call (e.g. a client that vanished mid-response).
    """

    id = "OBS005"
    family = "obs"
    severity = Severity.ADVICE
    summary = (
        "exception handler swallows the error without logging "
        "(`except ...: pass`) inside obs/runtime plumbing"
    )

    def check(self, src: ModuleSource) -> Iterator:
        if not src.in_package("repro.obs", "repro.runtime"):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            body_is_silent = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if not body_is_silent:
                continue
            yield self.violation(
                src, node.body[0],
                "exception caught and silently dropped; log it (debug "
                "level is fine) or re-raise — silent failures in the "
                "telemetry path are invisible exactly when they matter",
            )
