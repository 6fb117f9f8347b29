"""Cross-layer observability for the DSCL stack.

Two zero-dependency primitives and a bundle that carries them through the
stack:

* :class:`~repro.obs.metrics.MetricsRegistry` -- thread-safe counters,
  gauges, and fixed-bucket latency histograms with text/JSON export;
* :class:`~repro.obs.tracing.Tracer` / :class:`~repro.obs.tracing.Span` --
  nested per-request spans collected into an in-memory
  :class:`~repro.obs.tracing.TraceCollector`;
* :class:`Observability` -- one object holding a registry and a tracer,
  accepted by every instrumented constructor (DSCL, enhanced client,
  caches, retrying stores, the network client, the UDSM).

Instrumentation is **opt-in per object**: constructors take
``obs: Observability | None = None``, and ``None`` resolves to the shared
:data:`NULL_OBS` singleton whose every operation is a no-op -- no spans, no
metrics, near-zero overhead.  The instrumentation contract (metric and span
naming, how to instrument new components) is ``docs/observability.md``.

Quick use::

    from repro import InMemoryStore, EnhancedDataStoreClient
    from repro.obs import Observability

    obs = Observability()
    client = EnhancedDataStoreClient(InMemoryStore(), obs=obs)
    client.put("k", "v")
    client.get("k")
    print(obs.registry.render_text())     # counters + latency histograms
    print(obs.collector.last().render())  # the get's span tree
"""

from __future__ import annotations

import time
from typing import Any

from .events import DEFAULT_MAX_BYTES, DEFAULT_MAX_EVENTS, EventLog
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import DEFAULT_MAX_TRACES, Span, SpanEvent, TraceCollector, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_MAX_BYTES",
    "EventLog",
    "Span",
    "SpanEvent",
    "Tracer",
    "TraceCollector",
    "Observability",
    "NULL_OBS",
    "resolve_obs",
]


class _NullContext:
    """Reusable no-op context manager (the disabled-mode span/stage)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Observability:
    """A metrics registry plus a tracer, handed through constructors.

    One ``Observability`` is meant to serve a whole client stack (or a
    whole process): pass the same instance to the enhanced client, its
    cache, the network client, and the UDSM, and they all report into one
    registry and one trace collector.
    """

    #: False only on the :data:`NULL_OBS` singleton; instrumented hot paths
    #: may branch on it to skip attribute construction entirely.
    enabled: bool = True

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        collector: TraceCollector | None = None,
        max_traces: int = DEFAULT_MAX_TRACES,
        events: EventLog | None = None,
        slow_op_threshold: float | None = None,
    ) -> None:
        """Create an enabled observability bundle.

        :param registry: share an existing registry (default: a fresh one).
        :param collector: share an existing trace collector (default: a
            fresh one retaining the newest *max_traces* traces).
        :param events: a structured :class:`~repro.obs.events.EventLog` for
            notable happenings (reconnects, retry exhaustion, slow
            operations).  ``None`` disables event recording unless
            *slow_op_threshold* is set, in which case a default in-memory
            log is created.
        :param slow_op_threshold: when set (seconds), any root span whose
            duration reaches the threshold is journalled to the event log
            as a ``slow_op`` record carrying the full span tree as its
            exemplar, and counted in ``obs.slow_ops``.
        """
        self.registry = registry if registry is not None else MetricsRegistry()
        self.collector = collector if collector is not None else TraceCollector(max_traces)
        registry_ref = self.registry
        self.collector.bind_dropped_counter(
            lambda: registry_ref.counter("obs.traces.dropped")
        )
        self.tracer = Tracer(self.collector)
        # Name -> handle, resolved through the registry (the only
        # get-or-create) on first use; reset() keeps metric objects live.
        self._stage_histograms: dict[str, Histogram] = {}
        self._counters: dict[str, Counter] = {}
        if events is None and slow_op_threshold is not None:
            events = EventLog()
        self.events = events
        self.slow_op_threshold = slow_op_threshold
        if slow_op_threshold is not None:
            self._slow_counter = self.registry.counter("obs.slow_ops")
            self.collector.add_listener(self._on_root_span)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Any:
        """Open a span (context manager); nests under the current span."""
        return self.tracer.span(name, **attributes)

    def stage(self, name: str, *, metric: str | None = None, **attributes: Any) -> Any:
        """A span that also records its duration into the histogram
        ``<metric or name>.seconds`` -- the standard way to instrument one
        pipeline stage so traces and metrics always agree."""
        key = metric if metric is not None else name
        try:
            histogram = self._stage_histograms[key]
        except KeyError:
            histogram = self._stage_histograms[key] = self.registry.histogram(key + ".seconds")
        span = Span(name, self.tracer, attributes)
        span._histogram = histogram
        return span

    def event(self, name: str, **attributes: Any) -> None:
        """Annotate the current span (no-op when no span is open)."""
        span = self.tracer.current()
        if span is not None:
            span.add_event(name, **attributes)

    # ------------------------------------------------------------------
    # Structured events / slow-operation log
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Journal a structured event (no-op when no event log is set)."""
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _on_root_span(self, span: Span) -> None:
        """Collector listener: journal root spans over the slow threshold."""
        threshold = self.slow_op_threshold
        if threshold is None or span.duration < threshold:
            return
        self._slow_counter.inc()
        if self.events is not None:
            self.events.emit(
                "slow_op",
                op=span.name,
                seconds=round(span.duration, 6),
                threshold=threshold,
                trace=span.to_dict(),
            )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def inc(self, name: str, amount: int = 1) -> None:
        try:
            counter = self._counters[name]
        except KeyError:
            counter = self._counters[name] = self.registry.counter(name)
        counter.inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.registry.histogram(name).observe(value)

    def time(self, name: str) -> Any:
        """Bare histogram timer (no span): ``with obs.time("x"):`` records
        the block's duration into ``x.seconds``."""
        return _Timer(self.registry.histogram(name + ".seconds"))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<Observability registry={self.registry!r} collector={self.collector!r}>"


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc_info: object) -> bool:
        self._histogram.observe(time.perf_counter() - self._start)
        return False


class _NullObservability(Observability):
    """Disabled mode: every operation is a no-op.

    ``span``/``stage``/``time`` return one shared reusable context manager,
    so an instrumented call path costs a method call and a ``with`` block
    and nothing else -- no span objects, no metric lookups, no recording.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately no super().__init__()
        self.registry = None  # type: ignore[assignment]
        self.collector = None  # type: ignore[assignment]
        self.tracer = None  # type: ignore[assignment]
        self.events = None
        self.slow_op_threshold = None

    def span(self, name: str, **attributes: Any) -> Any:
        return _NULL_CONTEXT

    def stage(self, name: str, *, metric: str | None = None, **attributes: Any) -> Any:
        return _NULL_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def emit(self, kind: str, **fields: Any) -> None:
        return None

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def time(self, name: str) -> Any:
        return _NULL_CONTEXT

    def counter(self, name: str) -> Counter:
        raise TypeError("observability is disabled; no registry to create metrics in")

    def gauge(self, name: str) -> Gauge:
        raise TypeError("observability is disabled; no registry to create metrics in")

    def histogram(self, name: str) -> Histogram:
        raise TypeError("observability is disabled; no registry to create metrics in")

    def __repr__(self) -> str:
        return "<Observability disabled>"


#: Shared disabled singleton; what ``obs=None`` resolves to everywhere.
NULL_OBS = _NullObservability()


def resolve_obs(obs: "Observability | None") -> Observability:
    """``None`` -> :data:`NULL_OBS`; anything else passes through."""
    return obs if obs is not None else NULL_OBS
