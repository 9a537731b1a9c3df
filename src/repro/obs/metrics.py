"""Metrics primitives: counters, gauges and histograms under one registry.

The serving layers (engine, queue, batcher) count what happened —
admissions, sheds, backpressure stalls — and observe latency series;
a :class:`MetricsRegistry` owns them by name so a whole subsystem can be
snapshotted into one plain dict for ``--json`` output or assertions.

All primitives are thread-safe (the engine increments from worker and
dispatcher threads) and cheap: an uncontended lock plus an add.  Memory
is bounded too: a histogram keeps fixed buckets, not its observations,
so a registry costs the same after a day of serving as after a second.
``EngineStats`` is built from the engine's registry, so its latency
summaries are these histogram snapshots.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from collections import deque
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count (events, jobs, sheds)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Gauge:
    """Last-written value (occupancy, inflight batches)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value


class Histogram:
    """Log-bucket histogram with O(buckets) memory.

    A tier that serves for days observes latencies for as long as it
    lives, so no histogram keeps its observations.  Fixed geometric
    bucket boundaries (``growth`` ratio per bucket between ``lo`` and
    ``hi``, plus under/overflow) hold the counts; ``count``/``sum``/
    ``min``/``max`` are exact, and p50/p95/p99 interpolate inside the
    bucket where the cumulative count crosses the rank.  With the
    default quarter-octave growth (≈19%/bucket) a quantile of a dense
    series is within about half a bucket width (≈9%) of the exact
    :func:`repro.obs.percentiles.summarize` value; on a sparse series
    the estimate stays inside the bucket of the sample it estimates.

    ``snapshot()`` returns count/sum/mean/p50/p95/p99/max — the keys of
    :func:`repro.obs.percentiles.summarize`, plus ``sum``.
    """

    def __init__(
        self,
        name: str,
        lo: float = 1e-6,
        hi: float = 1e4,
        growth: float = 2.0 ** 0.25,
        recent_window: int = 512,
    ):
        if not 0 < lo < hi:
            raise ValueError("need 0 < lo < hi")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        n = int(math.ceil(math.log(hi / lo) / math.log(growth)))
        #: upper edges of the finite buckets; index i covers
        #: (bounds[i-1], bounds[i]] with an underflow bucket below lo
        #: and an overflow bucket above the last edge
        self._bounds = [lo * growth**i for i in range(n + 1)]
        self._counts = [0] * (n + 3)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: last-N raw observations, for consumers (the autoscaler's
        #: windowed wait tail) that need exact recent values; bounded,
        #: so the flat-memory contract holds
        self._recent: deque = deque(maxlen=max(1, recent_window))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        idx = bisect.bisect_left(self._bounds, v) + 1 if v > 0 else 0
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v
            self._recent.append(v)

    def recent(self, n: int | None = None) -> list[float]:
        """The last ``n`` (default: all retained) raw observations."""
        if n is not None and n < 0:
            raise ValueError(f"recent() needs n >= 0, got {n}")
        with self._lock:
            values = list(self._recent)
        if n is None:
            return values
        return values[-n:] if n else []  # values[-0:] is every value

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def buckets(self) -> list[tuple[float, int]]:
        """(upper edge, count) pairs for the non-empty buckets."""
        with self._lock:
            counts = list(self._counts)
        edges = [0.0] + self._bounds + [math.inf]
        return [
            (edges[i], c) for i, c in enumerate(counts) if c
        ]

    def _quantile_locked(self, q: float) -> float:
        """Interpolated quantile from the bucket cumulative counts."""
        rank = q * (self._count - 1)
        lo_edge = 0.0
        cum = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            hi_edge = (
                self._bounds[i - 1] if 0 < i <= len(self._bounds) else (
                    self._max if i > len(self._bounds) else 0.0
                )
            )
            if cum + c > rank:
                # interpolate inside this bucket, clamped to observed range
                frac = (rank - cum + 1.0) / c
                est = lo_edge + (hi_edge - lo_edge) * min(1.0, frac)
                return min(max(est, self._min), self._max)
            cum += c
            lo_edge = hi_edge
        return self._max

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {
                    "count": 0.0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
                }
            out = {
                "count": float(self._count),
                "sum": self._sum,
                "mean": self._sum / self._count,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "max": self._max,
            }
        return out


class MetricsRegistry:
    """Named metrics of one subsystem, snapshottable as a plain dict.

    ``counter``/``gauge``/``histogram`` get-or-create by name, so
    instrumentation sites never coordinate: the first caller creates
    the metric, later callers share it.  Asking for an existing name
    with a different type raises.
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._get(Histogram, name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: value-or-summary}`` over every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            (f"{self.prefix}{name}" if self.prefix else name): m.snapshot()
            for name, m in sorted(metrics.items())
        }

    def expose_text(self) -> str:
        """OpenMetrics-style text exposition of every metric.

        Counters and gauges become single samples; histograms become
        summary-style ``_count``/``_sum`` samples plus ``quantile``
        labels — the format a scrape endpoint or a log line both
        accept.  Names are sanitized to ``[a-zA-Z0-9_:]`` (dots become
        underscores), matching the exposition grammar.
        """
        with self._lock:
            metrics = dict(self._metrics)
        lines: list[str] = []
        for name, metric in sorted(metrics.items()):
            full = _sanitize(f"{self.prefix}{name}")
            if isinstance(metric, Counter):
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full}_total {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {_fmt(metric.value)}")
            else:
                snap = metric.snapshot()
                lines.append(f"# TYPE {full} summary")
                lines.append(f"{full}_count {int(snap['count'])}")
                lines.append(f"{full}_sum {_fmt(snap['sum'])}")
                for q in ("p50", "p95", "p99"):
                    lines.append(
                        f'{full}{{quantile="0.{q[1:]}"}} '
                        f"{_fmt(snap.get(q, 0.0))}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    out = _SANITIZE_RE.sub("_", name)
    return out.rstrip("_")


def _fmt(value: float) -> str:
    return repr(float(value))
