"""The observability context: one object owning registry, spans and taps.

Install with :func:`installed` (or :func:`repro.netsim.set_observability`
directly) and every :class:`~repro.netsim.Simulator` constructed while it
is active attaches itself: the registry and span log follow that
simulator's virtual clock, and nodes and links self-register for
end-of-run snapshots.

The contract, machine-checked by analysis rule W002 for this whole
package: observation never *participates*.  Nothing here schedules an
event, draws from ``Simulator.rng``, or alters a packet the simulation
can see — so ``--sanitize`` trace hashes are bit-identical with
observability on or off.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Callable, Iterator

from . import exporters
from .registry import Counter, Gauge, Histogram, MetricRegistry
from .spans import DEFAULT_MAX_SPANS, Span, SpanLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim.link import Link
    from ..netsim.node import Node
    from ..netsim.simulator import Simulator
    from ..netsim.trace import PacketTracer


class Observability:
    """Everything one run records: metrics, spans, packet taps."""

    def __init__(self, *, max_spans: int = DEFAULT_MAX_SPANS):
        self._sim: "Simulator | None" = None
        self.registry = MetricRegistry(self._now)
        self.spans = SpanLog(self._now, max_spans=max_spans)
        #: Hot-path alias: ``obs.span(...)`` is ``obs.spans.start(...)``
        #: without an extra frame.
        self.span = self.spans.start
        self.tracers: list["PacketTracer"] = []
        self._nodes: list["Node"] = []
        self._links: list["Link"] = []
        self._snapshots: list[tuple[str, Callable[[], dict]]] = []
        #: Span carried by the packet currently being delivered, if any.
        #: Set/reset by ``UdpStack.demux`` around the socket handler so
        #: receive-side instrumentation can parent onto the sender's span
        #: without changing any handler signature.
        self._inbound_span: Span | None = None

    # -- clock ---------------------------------------------------------------

    def _now(self) -> float:
        sim = self._sim
        return sim.now if sim is not None else 0.0

    @property
    def now(self) -> float:
        return self._now()

    # -- registration (called from netsim constructors) ----------------------

    def register(self, sim: "Simulator") -> None:
        """Attach to a newly built simulator; the latest one owns the clock."""
        self._sim = sim
        sim.obs = self

    def register_node(self, node: "Node") -> None:
        self._nodes.append(node)

    def register_link(self, link: "Link") -> None:
        self._links.append(link)

    def add_snapshot(self, name: str, fn: Callable[[], dict]) -> None:
        """Register a stats provider pulled once at collect/report time."""
        self._snapshots.append((name, fn))

    # -- recording shorthands ------------------------------------------------

    def counter(self, name: str, **kwargs) -> Counter:
        return self.registry.counter(name, **kwargs)

    def gauge(self, name: str, **kwargs) -> Gauge:
        return self.registry.gauge(name, **kwargs)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self.registry.histogram(name, **kwargs)

    def inbound_span(self) -> Span | None:
        """The span attached to the packet currently being delivered."""
        return self._inbound_span

    # -- packet taps ---------------------------------------------------------

    def tap(self, nodes, **kwargs) -> "PacketTracer":
        """Attach a (multi-node, filterable, bounded) packet tracer."""
        from ..netsim.trace import PacketTracer

        tracer = PacketTracer(nodes, **kwargs)
        self.tracers.append(tracer)
        return tracer

    # -- collection ----------------------------------------------------------

    def collect(self) -> None:
        """Pull registered component state into gauges (idempotent)."""
        for node in self._nodes:
            g = self.registry.gauge
            g("node.packets_delivered", node=node.name).set(node.packets_delivered)
            g("node.packets_forwarded", node=node.name).set(node.packets_forwarded)
            g("node.packets_dropped", node=node.name).set(node.packets_dropped)
            cpu = node.cpu
            g("node.cpu_busy_seconds", node=node.name).set(
                cpu.completed_busy_seconds()
            )
            g("node.cpu_jobs_accepted", node=node.name).set(cpu.jobs_accepted)
            g("node.cpu_jobs_dropped", node=node.name).set(cpu.jobs_dropped)
            g("node.cpu_work_dropped_seconds", node=node.name).set(
                cpu.work_dropped_seconds
            )
        for link in self._links:
            for sender in (link.a, link.b):
                sent, dropped, bytes_sent = link.stats(sender)
                label = f"{sender.name}->{link.other(sender).name}"
                g = self.registry.gauge
                g("link.packets_sent", direction=label).set(sent)
                g("link.packets_dropped", direction=label).set(dropped)
                g("link.bytes_sent", direction=label).set(bytes_sent)
        for name, fn in self._snapshots:
            stats = fn()
            for key in sorted(stats):
                value = stats[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                self.registry.gauge(f"{name}.{key}").set(value)

    # -- output --------------------------------------------------------------

    def report(self, *, title: str = "run report", span_limit: int = 120) -> str:
        self.collect()
        return exporters.render_report(
            self.registry, self.spans, span_limit=span_limit, title=title
        )

    def write(self, directory: str, *, title: str = "run report") -> list[str]:
        """Write all artefacts into ``directory``; returns the paths written."""
        os.makedirs(directory, exist_ok=True)
        self.collect()
        written: list[str] = []

        def emit(filename: str, text: str) -> None:
            path = os.path.join(directory, filename)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
            written.append(path)

        emit("metrics.json", exporters.metrics_to_json(self.registry))
        emit("series.csv", exporters.series_to_csv(self.registry))
        emit("spans.json", exporters.spans_to_json(self.spans))
        emit("report.txt", self.report(title=title))
        if self.tracers:
            emit("trace.txt", exporters.trace_to_text(self.tracers))
        return written


def current() -> Observability | None:
    """The process-wide observability context, if one is installed."""
    from ..netsim import simulator

    return simulator._active_obs


@contextlib.contextmanager
def installed(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` process-wide for the duration of the block.

    Simulators constructed inside the block attach to ``obs``; the
    previous context (usually None) is restored on exit.
    """
    from ..netsim.simulator import set_observability

    previous = set_observability(obs)
    try:
        yield obs
    finally:
        set_observability(previous)
