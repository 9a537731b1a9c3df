"""Observability layer: metrics, tracing and stall attribution.

Three pieces, shared by the dataflow simulator and the execution
engine:

* :mod:`repro.obs.metrics` — counters / gauges / bounded-memory
  bucketed histograms under a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracer` — span/event tracing with Chrome
  ``trace_event`` JSON export (:class:`ChromeTracer`), no-op by default
  (:class:`NullTracer`);
* :mod:`repro.obs.stall` — per-cycle stall attribution for
  ``DataflowRegion`` runs and the compute/transfer-overlap report that
  reproduces Fig 3's claim as data.

The *global tracer* is the injection point the CLI uses: ``--trace``
installs a :class:`ChromeTracer` via :func:`set_tracer`, and every
instrumented layer that was not handed an explicit tracer resolves
:func:`get_tracer` (default :class:`NullTracer`, so untraced runs stay
on the fast path).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.percentiles import percentile, summarize
from repro.obs.rtrace import (
    RequestTraceLog,
    SpanEvent,
    TraceContext,
    critical_path,
    critical_path_report,
    derive_trace_id,
    request_trace_from_json,
)
from repro.obs.stall import (
    StallAttribution,
    StallReport,
    report_from_trace,
    reports_from_trace,
)
from repro.obs.tracer import ChromeTracer, NullTracer, Tracer, Track

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "summarize",
    "StallAttribution",
    "StallReport",
    "report_from_trace",
    "reports_from_trace",
    "ChromeTracer",
    "NullTracer",
    "Tracer",
    "Track",
    "RequestTraceLog",
    "SpanEvent",
    "TraceContext",
    "critical_path",
    "critical_path_report",
    "derive_trace_id",
    "request_trace_from_json",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "get_request_log",
    "set_request_log",
    "use_request_log",
]

_NULL = NullTracer()
_global_tracer: Tracer = _NULL


def get_tracer() -> Tracer:
    """The process-wide tracer (a shared ``NullTracer`` unless set)."""
    return _global_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` globally (``None`` restores the no-op default).

    Returns the previously installed tracer so callers can restore it.
    """
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else _NULL
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


_global_request_log: RequestTraceLog | None = None


def get_request_log() -> RequestTraceLog | None:
    """The process-wide request-trace log (``None`` = tracing off).

    The serve layers resolve this when not handed an explicit log:
    with ``None`` (the default) no :class:`TraceContext` is ever
    minted and every instrumentation point is a single attribute
    check — untraced tiers stay on the fast path.
    """
    return _global_request_log


def set_request_log(
    log: RequestTraceLog | None,
) -> RequestTraceLog | None:
    """Install ``log`` globally (``None`` disables request tracing).

    Returns the previously installed log so callers can restore it.
    The CLI's ``--trace-requests`` flag is the canonical caller.
    """
    global _global_request_log
    previous = _global_request_log
    _global_request_log = log
    return previous


@contextmanager
def use_request_log(log: RequestTraceLog):
    """Scoped :func:`set_request_log`; restores the previous log."""
    previous = set_request_log(log)
    try:
        yield log
    finally:
        set_request_log(previous)
