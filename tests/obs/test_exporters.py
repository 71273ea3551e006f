"""Exporter round-trips and run-report rendering."""

import json

from repro.obs import (
    MetricRegistry,
    SpanLog,
    load_metrics,
    load_series_csv,
    load_spans,
    metrics_to_json,
    render_report,
    series_to_csv,
    spans_to_json,
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _populated_registry() -> MetricRegistry:
    clock = _Clock()
    registry = MetricRegistry(clock)
    c = registry.counter("reqs", interval=0.1, scheme="modified")
    c.inc(2)
    clock.now = 0.15
    c.inc()
    g = registry.gauge("util", track_history=True, node="ans")
    g.set(0.25)
    clock.now = 0.3
    g.set(0.5)
    h = registry.histogram("latency", buckets=(0.01, 0.1, 1.0))
    h.observe(0.02)
    h.observe(0.5)
    return registry


class TestMetricsRoundTrip:
    def test_json_round_trip_preserves_snapshots(self):
        registry = _populated_registry()
        loaded = load_metrics(metrics_to_json(registry))
        assert loaded == registry.snapshot()

    def test_series_csv_round_trip(self):
        registry = _populated_registry()
        rows = load_series_csv(series_to_csv(registry))
        assert ("reqs", "{scheme=modified}", 0.0, 2.0) in rows
        assert ("reqs", "{scheme=modified}", 0.1, 1.0) in rows
        assert ("util", "{node=ans}", 0.3, 0.5) in rows
        # histograms have no time series; only counter+gauge rows appear
        assert all(name in ("reqs", "util") for name, *_ in rows)

    def test_float_precision_survives_csv(self):
        clock = _Clock()
        registry = MetricRegistry(clock)
        g = registry.gauge("g", track_history=True)
        clock.now = 0.30000000000000004  # classic float artefact
        g.set(1.0 / 3.0)
        (row,) = load_series_csv(series_to_csv(registry))
        assert row[2] == 0.30000000000000004
        assert row[3] == 1.0 / 3.0


class TestSpansRoundTrip:
    def test_round_trip_preserves_tree(self):
        clock = _Clock()
        log = SpanLog(clock)
        root = log.start("query", qname="www.foo.com.")
        clock.now = 0.5
        child = root.child("attempt", n=0)
        clock.now = 1.0
        child.finish(outcome="ok")
        root.finish()
        log.start("unfinished")

        loaded = load_spans(spans_to_json(log))
        assert loaded.snapshot() == log.snapshot()
        new_root = loaded.named("query")[0]
        assert [s.name for s in loaded.children_of(new_root)] == ["attempt"]
        assert loaded.named("unfinished")[0].end is None

    def test_loaded_log_can_keep_growing(self):
        log = SpanLog(_Clock())
        log.start("a").finish()
        loaded = load_spans(spans_to_json(log))
        extra = loaded.start("b")
        assert extra.span_id not in {s.span_id for s in log.spans}

    def test_dropped_count_preserved(self):
        log = SpanLog(_Clock(), max_spans=1)
        log.start("a")
        log.start("b")
        assert load_spans(spans_to_json(log)).dropped == 1


class TestRunReport:
    def test_report_sections(self):
        registry = _populated_registry()
        log = SpanLog(_Clock())
        log.start("lrs.interaction").finish()
        report = render_report(registry, log)
        assert "== run report ==" in report
        assert "-- counters (1) --" in report
        assert "-- gauges (1) --" in report
        assert "-- histograms (1) --" in report
        assert "reqs{scheme=modified}" in report
        assert "lrs.interaction" in report

    def test_empty_report_has_no_sections(self):
        report = render_report(MetricRegistry(), SpanLog(_Clock()))
        assert "counters" not in report
        assert "spans" not in report

    def test_metrics_json_is_valid_json(self):
        json.loads(metrics_to_json(_populated_registry()))
