"""Metrics registry: counters, gauges, and histograms.

Hot paths grab a metric handle once (``metrics.counter("mac.arq.retries")``)
and update it with plain attribute arithmetic — no string lookups, locks or
allocation per update.  Histograms keep a preallocated value ring
(:class:`~repro.obs.timeseries.Series`) so ``observe`` is an indexed store;
percentiles are computed lazily when read.

The module keeps one process-global :class:`MetricsRegistry` (the default
target of the module-level helpers) because the simulators and the PHY stack
are built independently but report into one run.  ``reset()`` zeroes every
registered metric *in place*, so handles cached inside long-lived objects
stay valid across runs.

Everything renders to plain dicts (:meth:`MetricsRegistry.to_dict`) and JSON
(:meth:`MetricsRegistry.write_json`); only stdlib + numpy are used.

Pool workers report into their own copy of the registry; the sweep engine
ships each chunk's :meth:`MetricsRegistry.delta` home in its envelope and
the parent folds it in with :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Union

import numpy as np

from repro.obs.timeseries import DEFAULT_CAPACITY, Series


class Counter:
    """A monotonically increasing sum (events, seconds of airtime, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins instantaneous value (queue depth, backlog, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution: exact running stats plus a value ring.

    Count / mean / min / max are exact over every observation.  The values
    themselves go into a :class:`~repro.obs.timeseries.Series` ring of the
    most recent ``capacity`` samples, so percentiles cover the whole run
    until it holds more than ``capacity`` samples and the most recent
    ``capacity`` after that; the alert rules read the same ring.
    """

    __slots__ = ("name", "series", "count", "_sum", "_min", "_max")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        self.name = name
        self.series = Series(name, capacity)
        self.count = 0
        self._sum = 0.0
        self._min = np.inf
        self._max = -np.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self.series.record(value)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    @property
    def min(self) -> float:
        return self._min if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    def percentile(self, q: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Percentile(s) of the retained samples (q in 0..100)."""
        values = self.series.values()
        if values.size == 0:
            return float("nan") if np.isscalar(q) else np.full(np.shape(q), np.nan)
        out = np.percentile(values, q)
        return float(out) if np.isscalar(q) else out

    def reset(self) -> None:
        self.series.reset()
        self.count = 0
        self._sum = 0.0
        self._min = np.inf
        self._max = -np.inf

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"type": "histogram", "count": 0}
        p50, p90, p95, p99 = (float(x) for x in self.percentile([50, 90, 95, 99]))
        return {
            "type": "histogram",
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p90": p90,
            "p95": p95,
            "p99": p99,
        }


class Timer:
    """Wall/CPU stopwatch, optionally feeding a histogram.

    The obs-sanctioned replacement for ad-hoc ``time.perf_counter()``
    bookkeeping (lint rule OBS003): measured durations land in telemetry
    instead of evaporating in a local variable.  Use as a context manager
    or via explicit ``start()``/``stop()``; ``stop`` returns the wall
    duration and records it into the attached histogram (if any), and
    ``wall_s``/``cpu_s`` keep the last measured interval.
    """

    __slots__ = ("histogram", "wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self, histogram: Optional[Histogram] = None):
        self.histogram = histogram
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0: Optional[float] = None
        self._cpu0 = 0.0

    def start(self) -> "Timer":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def stop(self) -> float:
        if self._wall0 is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0
        self._wall0 = None
        if self.histogram is not None:
            self.histogram.observe(self.wall_s)
        return self.wall_s

    __enter__ = start

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> metric store with get-or-create accessors."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, capacity: int = DEFAULT_CAPACITY) -> Histogram:
        return self._get(name, Histogram, capacity)

    def timer(self, name: Optional[str] = None) -> Timer:
        """A fresh :class:`Timer`, observing into ``histogram(name)`` if named."""
        return Timer(self.histogram(name) if name else None)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def reset(self) -> None:
        """Zero every metric in place (cached handles stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def to_dict(self) -> dict:
        return {name: self._metrics[name].to_dict() for name in self.names()}

    def mark(self) -> Dict[str, float]:
        """Where every counter and histogram stands now (for :meth:`delta`)."""
        return {
            name: metric.count if isinstance(metric, Histogram) else metric.value
            for name, metric in self._metrics.items()
            if not isinstance(metric, Gauge)
        }

    def delta(self, mark: Dict[str, float]) -> Dict[str, Union[float, np.ndarray]]:
        """New histogram samples (one float64 array each, at most a ring's
        worth) and counter increments since ``mark``; gauges never travel."""
        out: Dict[str, Union[float, np.ndarray]] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                new = metric.count - mark.get(name, 0)
                if new > 0:
                    out[name] = metric.series.latest(new)
            elif isinstance(metric, Counter):
                increment = metric.value - mark.get(name, 0.0)
                if increment:
                    out[name] = increment
        return out

    def merge(self, delta: Dict[str, Union[float, np.ndarray]]) -> None:
        """Fold a :meth:`delta` taken in another process into this registry."""
        for name, change in delta.items():
            if isinstance(change, np.ndarray):
                histogram = self.histogram(name)
                for value in change.tolist():
                    histogram.observe(value)
            else:
                self.counter(name).inc(change)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str, indent: int = 2) -> None:
        with open(path, "w") as f:
            f.write(self.to_json(indent=indent))
            f.write("\n")


#: The process-global registry every component reports into by default.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, capacity: int = DEFAULT_CAPACITY) -> Histogram:
    return _REGISTRY.histogram(name, capacity)


def timer(name: Optional[str] = None) -> Timer:
    return _REGISTRY.timer(name)


def reset() -> None:
    _REGISTRY.reset()


def to_dict() -> dict:
    return _REGISTRY.to_dict()


def write_json(path: str, indent: int = 2) -> None:
    _REGISTRY.write_json(path, indent=indent)
