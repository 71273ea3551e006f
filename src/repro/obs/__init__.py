"""repro.obs — unified observability for the simulation core.

One :class:`Observability` context owns a typed metric registry
(counters / gauges / histograms with labels and virtual-time series),
a hierarchical span log tracing query lifecycles, and multi-node packet
taps.  Install it with :func:`installed` and write artefacts with
``Observability.write``.

The whole package is observe-only — it never schedules events or draws
simulator randomness (analysis rule W002 enforces this), so enabling it
leaves ``--sanitize`` event-trace hashes bit-identical.
"""

from .exporters import (
    load_metrics,
    load_series_csv,
    load_spans,
    metrics_to_json,
    render_report,
    series_to_csv,
    spans_to_json,
    trace_to_text,
)
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    DEFAULT_SERIES_INTERVAL,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    format_labels,
)
from .runtime import Observability, current, installed
from .spans import DEFAULT_MAX_SPANS, NULL_SPAN, Span, SpanLog

__layer__ = "platform"

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_SERIES_INTERVAL",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "NULL_SPAN",
    "Observability",
    "Span",
    "SpanLog",
    "current",
    "format_labels",
    "installed",
    "load_metrics",
    "load_series_csv",
    "load_spans",
    "metrics_to_json",
    "render_report",
    "series_to_csv",
    "spans_to_json",
    "trace_to_text",
]
