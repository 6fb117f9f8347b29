"""Lightweight tracing: nested spans over one request.

Where metrics aggregate (how slow are gets *on average*), spans attribute
(where did *this* get spend its time).  A DSCL read through a cache,
compression, and encryption produces a tree like::

    dscl.get  1.900 ms  [key='user:42']
      cache.lookup  0.011 ms
      store.get  1.780 ms
        pipeline.decrypt  0.190 ms
        pipeline.decompress  0.240 ms
        pipeline.deserialize  0.031 ms

which is exactly the per-stage breakdown the paper's Figures 11-21 reason
about, produced per request instead of per benchmark run.

Propagation uses a :mod:`contextvars` context variable: a span opened while
another span of the *same tracer* is active becomes its child, with no
explicit parent passing through the call stack.  This follows async tasks
but (like most tracers) does **not** cross thread-pool boundaries -- a span
opened inside a :class:`~repro.udsm.pool.ThreadPool` job starts a new trace.

Finished *root* spans land in a bounded :class:`TraceCollector`; nothing is
kept per-span beyond what the application opened, so tracing is safe to
leave on in long-lived processes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from .metrics import Counter

__all__ = ["Span", "SpanEvent", "Tracer", "TraceCollector"]

#: The active span of the *current* logical context (shared by all tracers;
#: each tracer only adopts parents it created itself).
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_current_span", default=None)

DEFAULT_MAX_TRACES = 64


class SpanEvent:
    """A point-in-time annotation on a span (a retry, an eviction...)."""

    __slots__ = ("name", "at", "attributes")

    def __init__(self, name: str, at: float, attributes: dict[str, Any]) -> None:
        self.name = name
        self.at = at  # perf_counter timestamp, comparable to span start/end
        self.attributes = attributes

    def __repr__(self) -> str:
        return f"SpanEvent({self.name!r}, {self.attributes!r})"


class Span:
    """One timed stage of a request; also its own context manager.

    Entering the span makes it the current span (child spans nest under
    it); exiting records the end time, captures any exception as an
    ``exception`` event, and -- for root spans -- hands the finished tree to
    the tracer's collector.  A stage span (one made by
    :meth:`repro.obs.Observability.stage`) then observes its duration into
    the stage's latency histogram.
    """

    __slots__ = (
        "name",
        "attributes",
        "_events",
        "_children",
        "parent",
        "start_time",
        "end_time",
        "error",
        "_tracer",
        "_token",
        "_histogram",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer | None" = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.attributes = attributes if attributes is not None else {}
        # Most spans never get a child or an event: each list is allocated
        # by its first append or its first reader, not per span.
        self._events: list[SpanEvent] | None = None
        self._children: list[Span] | None = None
        self.parent: Span | None = None
        self.start_time = 0.0
        self.end_time = 0.0
        self.error: str | None = None
        self._tracer = tracer
        self._token = None
        self._histogram = None  # set by Observability.stage

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[SpanEvent]:
        if self._events is None:
            self._events = []
        return self._events

    @property
    def children(self) -> "list[Span]":
        if self._children is None:
            self._children = []
        return self._children

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (0.0 while still open)."""
        return self.end_time - self.start_time if self.end_time else 0.0

    @property
    def finished(self) -> bool:
        return self.end_time != 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> SpanEvent:
        event = SpanEvent(name, time.perf_counter(), attributes)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        current = _CURRENT.get()
        tracer = self._tracer
        if current is not None and tracer is not None and current._tracer is tracer:
            self.parent = current
            if current._children is None:
                current._children = [self]
            else:
                current._children.append(self)
        self._token = _CURRENT.set(self)
        self.start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self.end_time = time.perf_counter()
        if exc_type is not None:
            self.error = exc_type.__name__
            self.add_event("exception", type=exc_type.__name__, message=str(exc))
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if self.parent is None and self._tracer is not None:
            self._tracer.collector.add(self)
        if self._histogram is not None:
            self._histogram.observe(end - self.start_time)
        return False  # never swallow exceptions

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named *name* in this subtree, or ``None``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def render(self) -> str:
        """Indented one-line-per-span tree with per-stage latency."""
        lines: list[str] = []
        self._render_into(lines, 0)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """The whole subtree as JSON-friendly plain data.

        Used by the ``/traces`` HTTP endpoint and as the ``trace`` exemplar
        attached to slow-operation events; attribute values that are not
        JSON types are ``repr()``-ed rather than dropped.
        """
        def scrub(value: Any) -> Any:
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return repr(value)

        data: dict[str, Any] = {
            "name": self.name,
            "duration_ms": round(self.duration * 1e3, 3),
        }
        if self.attributes:
            data["attributes"] = {k: scrub(v) for k, v in self.attributes.items()}
        if self.error is not None:
            data["error"] = self.error
        if self.events:
            data["events"] = [
                {
                    "name": event.name,
                    "offset_ms": round((event.at - self.start_time) * 1e3, 3),
                    **{k: scrub(v) for k, v in event.attributes.items()},
                }
                for event in self.events
            ]
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def _render_into(self, lines: list[str], depth: int) -> None:
        pad = "  " * depth
        line = f"{pad}{self.name}  {self.duration * 1e3:.3f} ms"
        if self.attributes:
            attrs = " ".join(f"{k}={v!r}" for k, v in self.attributes.items())
            line += f"  [{attrs}]"
        if self.error is not None:
            line += f"  !{self.error}"
        lines.append(line)
        for event in self.events:
            offset = (event.at - self.start_time) * 1e3
            attrs = " ".join(f"{k}={v!r}" for k, v in event.attributes.items())
            lines.append(f"{pad}  @ {event.name} +{offset:.3f} ms" + (f"  [{attrs}]" if attrs else ""))
        for child in self.children:
            child._render_into(lines, depth + 1)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration={self.duration * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class TraceCollector:
    """Bounded in-memory sink for finished root spans (newest kept).

    The bound means old traces are *dropped*, which used to be silent; the
    collector counts every drop (:attr:`dropped`), can keep that count in a
    registry counter (``obs.traces.dropped``, see
    :meth:`bind_dropped_counter`), and can notify listeners of every
    finished root span -- the hook the slow-operation log hangs off.

    :meth:`add` takes no lock: it appends, then trims the oldest traces
    back to the bound one ``popleft`` at a time, counting each one it
    removes.  Every removal is counted exactly once by the thread that made
    it, so ``dropped + len(collector)`` equals the number of traces added
    (before any :meth:`clear`) even with concurrent writers; while adds
    race, the ring may briefly hold one extra trace per writer, or end a
    little under the bound.
    """

    def __init__(self, max_traces: int = DEFAULT_MAX_TRACES) -> None:
        self._lock = threading.Lock()
        self._max_traces = max_traces
        self._roots: deque[Span] = deque()
        # The drop count lives in a Counter: private until a registry
        # counter is bound, then that counter (see bind_dropped_counter).
        self._drops = Counter("obs.traces.dropped")
        self._count_drop: Callable[[], None] = self._drops.inc
        self._drops_factory: Callable[[], Counter] | None = None
        # A tuple, replaced (never mutated) by add_listener, so add() can
        # iterate it without a per-span copy.
        self._listeners: tuple[Callable[[Span], None], ...] = ()

    def add(self, span: Span) -> None:
        roots = self._roots
        roots.append(span)
        while len(roots) > self._max_traces:
            try:
                roots.popleft()
            except IndexError:  # a concurrent clear() emptied the ring
                break
            self._count_drop()
        for listener in self._listeners:
            listener(span)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Finished traces discarded because the bound was hit."""
        return self._drops.value

    def _first_bound_drop(self) -> None:
        """``_count_drop`` between a bind and the drop that resolves it."""
        with self._lock:
            self._resolve_locked()
        self._drops.inc()

    def _resolve_locked(self) -> None:
        """Move the drop count into the bound counter (caller holds lock)."""
        factory, self._drops_factory = self._drops_factory, None
        if factory is not None:
            shared = factory()
            if shared is not self._drops:
                shared.inc(self._drops.value)
                self._drops = shared
        self._count_drop = self._drops.inc

    def bind_dropped_counter(self, factory: "Callable[[], Counter]") -> None:
        """Keep the drop count in a registry
        :class:`~repro.obs.metrics.Counter` such as ``obs.traces.dropped``;
        :attr:`dropped` then reads that counter.

        *factory* is a zero-argument callable returning the counter; it is
        invoked lazily, on the first actual drop, so binding never touches
        the registry for collectors that stay within their bound.  Drops
        counted so far carry over.  Bind before traffic starts: a drop
        racing the first bound drop may land in the retired counter.
        """
        with self._lock:
            self._drops_factory = factory
            self._count_drop = self._first_bound_drop
            if self._drops.value:
                self._resolve_locked()

    def add_listener(self, listener: Callable[[Span], None]) -> None:
        """Call *listener(span)* for every finished root span added.

        Listeners run on the thread that finished the span; keep them fast
        and never let them raise.
        """
        with self._lock:
            self._listeners = (*self._listeners, listener)

    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        """Finished root spans, oldest first."""
        # copy() is one call on the deque, so a concurrent add() cannot
        # mutate it mid-iteration the way list(self._roots) could.
        return list(self._roots.copy())

    def last(self) -> Span | None:
        """The most recently finished trace, or ``None``."""
        try:
            return self._roots[-1]
        except IndexError:
            return None

    def clear(self) -> None:
        """Drop retained traces (the ``dropped`` count is preserved: it
        describes lifetime loss, not current occupancy)."""
        self._roots.clear()

    def render(self) -> str:
        """Every retained trace, rendered as indented trees."""
        roots = self.roots()
        if not roots:
            text = "(no traces recorded)"
        else:
            text = "\n\n".join(root.render() for root in roots)
        dropped = self.dropped
        if dropped:
            text += f"\n\n({dropped} older trace{'s' if dropped != 1 else ''} dropped at the {self._max_traces}-trace bound)"
        return text

    def __len__(self) -> int:
        return len(self._roots)

    def __repr__(self) -> str:
        return f"<TraceCollector traces={len(self)}>"


class Tracer:
    """Span factory bound to one collector.

    ``tracer.span("store.get", key=key)`` returns a context manager; spans
    opened while another of this tracer's spans is active nest under it.
    Two tracers coexisting in one process never adopt each other's spans.
    """

    def __init__(self, collector: TraceCollector | None = None) -> None:
        self.collector = collector if collector is not None else TraceCollector()

    def span(self, name: str, **attributes: Any) -> Span:
        return Span(name, self, attributes)

    def current(self) -> Span | None:
        """This tracer's active span in the current context, if any."""
        span = _CURRENT.get()
        if span is not None and span._tracer is self:
            return span
        return None

    def __repr__(self) -> str:
        return f"<Tracer collector={self.collector!r}>"
