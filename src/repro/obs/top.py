"""``repro top`` -- a live, curses-free terminal dashboard.

The operator-facing end of the telemetry plane: poll a metrics source
(either the HTTP exporter's ``/metrics.json`` endpoint or an in-process
:class:`~repro.obs.metrics.MetricsRegistry`), diff consecutive snapshots
to get per-operation *rates*, estimate tail latencies from the histogram
buckets, and redraw one plain-text screen per refresh.  No curses, no
third-party TUI -- every frame is a string, which makes the dashboard
trivially testable and usable over the dumbest of terminals
(``watch``-style redraw via ANSI clear).

What a frame shows:

* **operations** -- every ``*.seconds`` histogram as a row: cumulative
  count, ops/s since the previous frame, mean / p50 / p99 / max latency;
* **hit ratios** -- every ``<prefix>.hits`` / ``<prefix>.misses`` counter
  pair as a ratio (caches, and the enhanced client's ``client.cache_*``);
* **gauges** -- current levels (live connections, pool occupancy...);
* **anomalies** -- the anomaly engine's active detections (rule, series,
  value vs threshold, engaged actions), when the exporter serves
  ``/anomalies.json``; older exporters without the endpoint simply have
  no panel;
* **slow operations** -- the tail of the event log's ``slow_op`` records,
  newest last, with the root span name and duration.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterable

from ..errors import StoreConnectionError
from .metrics import MetricsRegistry, _bound_key, bucket_percentile, snapshot_delta

__all__ = [
    "normalize_buckets",
    "percentile_from_buckets",
    "scrape_metrics_json",
    "scrape_events_json",
    "scrape_anomalies_json",
    "Dashboard",
    "CLEAR_SCREEN",
]

#: ANSI "clear screen, cursor home" -- the whole redraw machinery.
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def normalize_buckets(buckets: Iterable[Iterable[Any]]) -> list[tuple[float, int]]:
    """Bucket pairs from either a live snapshot (``math.inf`` bound) or the
    JSON export (``"+inf"`` label) as uniform ``(float, int)`` tuples."""
    return [(_bound_key(bound), int(cumulative)) for bound, cumulative in buckets]


#: The bucket-resolution estimate :meth:`~repro.obs.metrics.Histogram.percentile`
#: computes, from exported plain data.
percentile_from_buckets = bucket_percentile


# ----------------------------------------------------------------------
# Scraping
# ----------------------------------------------------------------------
_NO_FALLBACK = object()


def _get_json(url: str, path: str, timeout: float, if_absent: Any = _NO_FALLBACK) -> Any:
    """GET ``<url><path>`` and decode it.  A 404 yields *if_absent* when
    one is given; any other failure to fetch raises
    :class:`~repro.errors.StoreConnectionError` naming the URL."""
    try:
        with urllib.request.urlopen(url.rstrip("/") + path, timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        if exc.code == 404 and if_absent is not _NO_FALLBACK:
            return if_absent
        raise StoreConnectionError(f"exporter {url} answered {path} with {exc}") from exc
    except OSError as exc:  # URLError: refused, unresolvable, timed out
        raise StoreConnectionError(f"cannot reach exporter {url}: {exc}") from exc


def scrape_metrics_json(url: str, *, timeout: float = 5.0) -> dict[str, Any]:
    """GET ``<url>/metrics.json`` and return the decoded snapshot."""
    return _get_json(url, "/metrics.json", timeout)


def scrape_events_json(
    url: str, *, kind: str | None = "slow_op", count: int = 8, timeout: float = 5.0
) -> list[dict[str, Any]]:
    """GET ``<url>/events.json``; an exporter without an event log (404)
    simply yields no events rather than an error."""
    query = f"?count={count}" + (f"&kind={kind}" if kind else "")
    return _get_json(url, "/events.json" + query, timeout, if_absent=[])


def scrape_anomalies_json(
    url: str, *, timeout: float = 5.0
) -> dict[str, Any] | None:
    """GET ``<url>/anomalies.json``; ``None`` when the exporter has no
    anomaly engine attached (404) or predates the endpoint entirely --
    the dashboard simply omits the panel instead of erroring."""
    return _get_json(url, "/anomalies.json", timeout, if_absent=None)


def snapshot_registry(registry: MetricsRegistry) -> dict[str, Any]:
    """An in-process registry in the same shape ``/metrics.json`` serves."""
    return registry.snapshot()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _table(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return [
        "  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


class Dashboard:
    """Stateful frame renderer: diffs consecutive snapshots for rates."""

    def __init__(self, *, clock=time.monotonic) -> None:
        self._clock = clock
        self._previous_snapshot: dict[str, Any] | None = None
        self._previous_at: float | None = None

    # ------------------------------------------------------------------
    def render(
        self,
        snapshot: dict[str, Any],
        slow_ops: list[dict[str, Any]] | None = None,
        *,
        title: str = "repro top",
        anomalies: dict[str, Any] | None = None,
    ) -> str:
        """One frame of the dashboard for *snapshot* (a registry snapshot,
        live or scraped); rates are computed against the previous call.
        *anomalies* is an engine status dict (``/anomalies.json``); ``None``
        -- an exporter without the endpoint -- omits the panel."""
        now = self._clock()
        interval = None if self._previous_at is None else max(1e-9, now - self._previous_at)
        delta = snapshot_delta(self._previous_snapshot, snapshot)
        lines: list[str] = [title]
        lines.extend(self._render_operations(snapshot, delta, interval))
        lines.extend(self._render_hit_ratios(snapshot))
        lines.extend(self._render_gauges(snapshot))
        lines.extend(self._render_anomalies(anomalies))
        lines.extend(self._render_slow_ops(slow_ops or []))
        self._previous_at = now
        self._previous_snapshot = snapshot
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _render_operations(
        self,
        snapshot: dict[str, Any],
        delta: dict[str, Any],
        interval: float | None,
    ) -> list[str]:
        histograms = {
            name: data
            for name, data in snapshot.get("histograms", {}).items()
            if name.endswith(".seconds")
        }
        if not histograms:
            return ["", "operations: (none recorded)"]
        first_frame = self._previous_snapshot is None
        delta_histograms = delta.get("histograms", {})
        rows = [("operation", "count", "ops/s", "mean ms", "p50 ms", "p99 ms", "max ms")]
        for name in sorted(histograms):
            data = histograms[name]
            count = int(data["count"])
            if interval is None or first_frame:
                rate = "-"
            else:
                increment = delta_histograms.get(name, {}).get("count", 0)
                rate = f"{max(0, increment) / interval:.1f}"
            buckets = data.get("buckets", [])  # bucket_percentile takes either bound form
            maximum = float(data.get("max", 0.0))
            rows.append(
                (
                    name[: -len(".seconds")],
                    str(count),
                    rate,
                    f"{float(data['mean']) * 1e3:.3f}",
                    f"{bucket_percentile(buckets, 0.50, maximum=maximum) * 1e3:.3f}",
                    f"{bucket_percentile(buckets, 0.99, maximum=maximum) * 1e3:.3f}",
                    f"{maximum * 1e3:.3f}",
                )
            )
        return ["", "operations:"] + _table(rows)

    def _render_hit_ratios(self, snapshot: dict[str, Any]) -> list[str]:
        counters = snapshot.get("counters", {})
        pairs: list[tuple[str, int, int]] = []
        for name, hits in counters.items():
            if name.endswith(".hits"):
                misses = counters.get(name[: -len(".hits")] + ".misses")
                if misses is not None:
                    pairs.append((name[: -len(".hits")], int(hits), int(misses)))
        if "client.cache_hits" in counters and "client.cache_misses" in counters:
            pairs.append(
                ("client.cache", int(counters["client.cache_hits"]),
                 int(counters["client.cache_misses"]))
            )
        if not pairs:
            return []
        rows = [("cache", "hits", "misses", "hit ratio")]
        for name, hits, misses in sorted(pairs):
            total = hits + misses
            ratio = f"{hits / total:.1%}" if total else "-"
            rows.append((name, str(hits), str(misses), ratio))
        return ["", "hit ratios:"] + _table(rows)

    def _render_gauges(self, snapshot: dict[str, Any]) -> list[str]:
        gauges = snapshot.get("gauges", {})
        if not gauges:
            return []
        rows = [("gauge", "value")]
        for name in sorted(gauges):
            rows.append((name, f"{float(gauges[name]):g}"))
        return ["", "gauges:"] + _table(rows)

    def _render_anomalies(self, anomalies: dict[str, Any] | None) -> list[str]:
        if anomalies is None:
            return []
        detected = int(anomalies.get("detected", 0))
        cleared = int(anomalies.get("cleared", 0))
        active = anomalies.get("active", [])
        header = f"anomalies (detected {detected}, cleared {cleared}):"
        if not active:
            return ["", header + " none active"]
        rows = [("rule", "series", "value", "threshold", "actions")]
        for record in active:
            actions = ",".join(record.get("actions", [])) or "-"
            rows.append(
                (
                    str(record.get("rule", "?")),
                    str(record.get("series", "?")),
                    f"{float(record.get('value', 0.0)):.6g}",
                    f"{float(record.get('threshold', 0.0)):.6g}",
                    actions,
                )
            )
        return ["", header] + _table(rows)

    def _render_slow_ops(self, slow_ops: list[dict[str, Any]]) -> list[str]:
        if not slow_ops:
            return []
        rows = [("slow op", "ms", "threshold ms", "stages")]
        for record in slow_ops:
            trace = record.get("trace") or {}
            children = trace.get("children", []) if isinstance(trace, dict) else []
            stages = ">".join(child.get("name", "?") for child in children[:4]) or "-"
            rows.append(
                (
                    str(record.get("op", "?")),
                    f"{float(record.get('seconds', 0.0)) * 1e3:.2f}",
                    f"{float(record.get('threshold', 0.0)) * 1e3:.2f}",
                    stages,
                )
            )
        return ["", "slow operations (newest last):"] + _table(rows)
