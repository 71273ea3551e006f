"""Exporters: turn an observability context into files a human can read.

Four artefacts, all deterministic for a given run:

* ``metrics.json`` — every metric's snapshot (round-trippable via
  :func:`load_metrics`);
* ``series.csv`` — all time series (counter buckets, gauge histories)
  as flat ``metric,labels,time,value`` rows;
* ``spans.json`` — the span log (round-trippable via :func:`load_spans`);
* ``report.txt`` / ``trace.txt`` — human-readable run report and the
  pcap-style packet trace from any attached taps.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING

from .registry import MetricRegistry, format_labels
from .spans import SpanLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.trace import PacketTracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metrics_to_json(registry: MetricRegistry) -> str:
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"


def load_metrics(text: str) -> list[dict]:
    """Parse a ``metrics.json`` document back into snapshot dicts.

    JSON turns series tuples into lists; normalise them back to tuples so
    a loaded snapshot compares equal to a fresh one.
    """
    data = json.loads(text)
    for entry in data:
        if "series" in entry:
            entry["series"] = [tuple(point) for point in entry["series"]]
    return data


def series_to_csv(registry: MetricRegistry) -> str:
    """All time series in the registry as ``metric,labels,time,value`` rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "labels", "time", "value"])
    for metric in registry:
        series_fn = getattr(metric, "series", None)
        if series_fn is None:
            continue
        labels = format_labels(metric.labels)
        for t, v in series_fn():
            writer.writerow([metric.name, labels, repr(t), repr(v)])
    return buf.getvalue()


def load_series_csv(text: str) -> list[tuple[str, str, float, float]]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)[1:]  # drop header
    return [(name, labels, float(t), float(v)) for name, labels, t, v in rows]


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def spans_to_json(log: SpanLog) -> str:
    doc = {"dropped": log.dropped, "spans": log.snapshot()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_spans(text: str) -> SpanLog:
    """Rebuild a queryable :class:`SpanLog` from a ``spans.json`` document."""
    doc = json.loads(text)
    log = SpanLog()
    log.dropped = doc["dropped"]
    for entry in doc["spans"]:
        span = log.start(
            entry["name"], at=entry["start"], **entry["attrs"]
        )
        span.span_id = entry["span_id"]
        span.parent_id = entry["parent_id"]
        if entry["end"] is not None:
            span.finish(at=entry["end"])
    log._next_id = max((s.span_id for s in log.spans), default=0) + 1
    return log


# ---------------------------------------------------------------------------
# packet trace
# ---------------------------------------------------------------------------


def trace_to_text(tracers: "list[PacketTracer]") -> str:
    """Merge taps into one pcap-style text trace, ordered by capture time."""
    records = []
    for tracer in tracers:
        records.extend(tracer.records)
    records.sort(key=lambda r: r.time)
    lines = [str(r) for r in records]
    truncated = sum(getattr(t, "truncated", 0) for t in tracers)
    if truncated:
        lines.append(f"... {truncated} packets not captured (max_records cap)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


def _format_metric_line(snap: dict) -> list[str]:
    name = snap["name"] + format_labels(tuple(sorted(snap["labels"].items())))
    if snap["kind"] == "counter":
        return [f"  {name:<58} {snap['value']:>12g}"]
    if snap["kind"] == "gauge":
        return [f"  {name:<58} {snap['value']:>12g}"]
    # histogram
    lines = [
        f"  {name:<58} count={snap['count']} mean="
        + (
            f"{snap['sum'] / snap['count']:.6g}"
            if snap["count"]
            else "n/a"
        )
    ]
    return lines


def render_report(
    registry: MetricRegistry,
    spans: SpanLog,
    *,
    span_limit: int = 120,
    title: str = "run report",
) -> str:
    """The human-readable ``report.txt``: metrics and span tree."""
    sections = [f"== {title} ==", ""]

    by_kind: dict[str, list[dict]] = {"counter": [], "gauge": [], "histogram": []}
    for snap in registry.snapshot():
        by_kind[snap["kind"]].append(snap)
    for kind in ("counter", "gauge", "histogram"):
        entries = by_kind[kind]
        if not entries:
            continue
        sections.append(f"-- {kind}s ({len(entries)}) --")
        for snap in entries:
            sections.extend(_format_metric_line(snap))
        sections.append("")

    if len(spans):
        sections.append(f"-- spans ({len(spans)}) --")
        sections.append(spans.render(limit=span_limit))
        sections.append("")

    return "\n".join(sections)
