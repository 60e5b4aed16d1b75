"""Unified observability: metrics registry + span tracer + exporters.

The paper's headline number is a *time-accounting* claim — 29.5 Tflops
sustained because pipeline, host and communication time were measured
per layer and added up (Section 5).  This package gives every layer of
the reproduction one instrumented clock to report into:

* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and histograms (catalogue in :mod:`repro.obs.catalogue`);
* :class:`~repro.obs.trace.Tracer` — hierarchical spans on a wall-clock
  track and a modelled-hardware track;
* exporters (:mod:`repro.obs.export`) — Chrome-trace/Perfetto JSON
  and Prometheus text exposition;
* :func:`~repro.obs.report.render_time_breakdown` — the paper-style
  t_pipe / t_host / t_comm table from collected metrics.

Instrumented components accept ``obs=None`` and fall back to
:data:`NULL_OBS`, whose registry and tracer are null objects: disabled
instrumentation costs one attribute lookup per call site.  Enable by
passing a real :class:`Observability`::

    from repro.obs import Observability
    obs = Observability()
    result = run_scaled_disk(backend, n=512, obs=obs)
    obs.export_chrome_trace("trace.json")
    obs.export_prometheus("metrics.prom")
"""

from __future__ import annotations

from .catalogue import DYNAMIC_PREFIXES, METRIC_CATALOGUE, is_declared
from .export import (
    load_spans,
    parse_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from .health import (
    HealthEvent,
    HealthMonitor,
    HealthSample,
    default_detectors,
    render_health_events,
)
from .history import (
    SCHEMA_VERSION,
    BenchHistory,
    compare_documents,
    host_fingerprint,
    render_comparison,
    render_trend,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    escape_help,
    escape_label_value,
)
from .prof import PhaseProfile, profile_spans, profile_trace_file
from .report import TimeBreakdown, render_time_breakdown, time_breakdown
from .trace import NULL_TRACER, NullTracer, Span, SpanLog, Tracer

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "escape_help",
    "escape_label_value",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanLog",
    "METRIC_CATALOGUE",
    "DYNAMIC_PREFIXES",
    "is_declared",
    "write_chrome_trace",
    "load_spans",
    "write_prometheus",
    "parse_prometheus",
    "TimeBreakdown",
    "time_breakdown",
    "render_time_breakdown",
    "PhaseProfile",
    "profile_spans",
    "profile_trace_file",
    "HealthMonitor",
    "HealthSample",
    "HealthEvent",
    "default_detectors",
    "render_health_events",
    "BenchHistory",
    "SCHEMA_VERSION",
    "host_fingerprint",
    "compare_documents",
    "render_comparison",
    "render_trend",
]


class Observability:
    """Bundle of one metrics registry and one tracer, shared by a run."""

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None, tracer: Tracer | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    # -- convenience exports ----------------------------------------------

    def export_chrome_trace(self, path):
        return write_chrome_trace(self.tracer, path)

    def export_prometheus(self, path):
        return write_prometheus(self.metrics, path)

    def render_time_breakdown(self) -> str:
        return render_time_breakdown(self.metrics.snapshot())


class NullObservability:
    """Disabled bundle: the default for every instrumented component."""

    enabled = False
    metrics = NULL_REGISTRY
    tracer = NULL_TRACER

    def export_chrome_trace(self, path):
        return write_chrome_trace(self.tracer, path)

    def export_prometheus(self, path):
        return write_prometheus(self.metrics, path)

    def render_time_breakdown(self) -> str:
        return ""


NULL_OBS = NullObservability()
