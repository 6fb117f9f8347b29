"""The :class:`AnomalyEngine`: poll, derive, detect, act.

Each poll the engine:

1. snapshots the :class:`~repro.obs.metrics.MetricsRegistry` and computes
   the interval delta (:func:`~repro.obs.metrics.snapshot_delta`);
2. **derives a flat series vocabulary** from it -- the rules' input:

   ========================  =============================================
   source metric             derived series
   ========================  =============================================
   counter ``c``             ``c.delta`` (interval increment),
                             ``c.rate`` (increments / second)
   gauge ``g``               ``g`` (current level)
   histogram ``h``           ``h.rate`` (observations / second) always;
                             ``h.p50`` / ``h.p99`` / ``h.mean`` from the
                             *interval's* bucket deltas, only when the
                             interval saw observations (a quiet interval
                             emits no latency -- rules never score stale
                             values)
   ========================  =============================================

3. appends each watched series to its exemplar window: the last
   :data:`EXEMPLAR_WINDOW` values, newest last;
4. runs every rule; ``DETECTED`` transitions engage any bound actions and
   journal an ``anomaly_detected`` event (with the series' exemplar
   window attached); ``CLEARED`` reverts them and journals
   ``anomaly_cleared``.  Each engage/revert is journalled as an
   ``anomaly_action`` record; one that raises is journalled with
   ``error=`` and the cycle goes on.

Time is injectable (``clock=``) and :meth:`AnomalyEngine.poll` can be
driven manually, so every behaviour above is testable with zero real
sleeps; :meth:`AnomalyEngine.start` adds a daemon thread for production
use.  The engine reports on itself through the same registry it watches:
``obs.anomaly.polls`` / ``.detected`` / ``.cleared`` / ``.actions``
counters and the ``obs.anomaly.active`` gauge.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from typing import Any, Iterable, Mapping

from ...errors import ConfigurationError
from .. import Observability
from ..events import EventLog
from ..metrics import MetricsRegistry, bucket_percentile, snapshot_delta
from .actions import AnomalyAction
from .detectors import (
    DetectorRule,
    ErrorRatioRule,
    RateOfChangeRule,
    RuleEvent,
    RuleEventKind,
    ZScoreRule,
)

__all__ = ["AnomalyEngine", "default_rules", "DEFAULT_POLL_INTERVAL"]

DEFAULT_POLL_INTERVAL = 1.0

#: How many recent values of each watched series are kept as the exemplar
#: attached to ``anomaly_detected`` records.
EXEMPLAR_WINDOW = 32


class AnomalyEngine:
    """Polls registry deltas, evaluates rules, journals and acts.

    Construct with an :class:`~repro.obs.Observability` bundle (registry
    and event log are taken from it) or a bare
    :class:`~repro.obs.metrics.MetricsRegistry` plus an explicit
    ``events=``.  Rules are added at construction or via :meth:`add_rule`;
    actions bind to rules by name (:meth:`bind_action`).

    Not re-entrant: :meth:`poll` holds an internal lock, so manual polls
    and the background thread never interleave.
    """

    def __init__(
        self,
        obs: Observability | MetricsRegistry,
        *,
        events: EventLog | None = None,
        rules: Iterable[DetectorRule] = (),
        clock=time.monotonic,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        """Wire the engine to a metrics plane.

        :param obs: the observability bundle to watch (its registry) and
            journal into (its event log), or a bare registry.
        :param events: event log override; required when *obs* is a bare
            registry without one (detection without a journal is allowed
            but pointless -- ``None`` means transitions only update state).
        :param rules: initial detector rules.
        :param clock: monotonic-seconds source; injectable for tests.
        :param poll_interval: background-thread cadence (seconds); manual
            :meth:`poll` ignores it.
        """
        if isinstance(obs, Observability):
            if not obs.enabled:
                raise ConfigurationError(
                    "AnomalyEngine needs an enabled Observability (NULL_OBS has no registry)"
                )
            registry = obs.registry
            if events is None:
                events = obs.events
        elif isinstance(obs, MetricsRegistry):
            registry = obs
        else:
            raise ConfigurationError(
                "obs must be an Observability bundle or a MetricsRegistry"
            )
        if poll_interval <= 0:
            raise ConfigurationError("poll_interval must be positive")
        self.registry = registry
        self.events = events
        self.clock = clock
        self.poll_interval = poll_interval
        self._rules: list[DetectorRule] = []
        self._actions: dict[str, list[AnomalyAction]] = {}
        self._lock = threading.Lock()
        self._previous_snapshot: dict[str, Any] | None = None
        self._previous_time: float | None = None
        self._series: dict[str, float] = {}
        self._exemplars: defaultdict[str, deque[float]] = defaultdict(
            lambda: deque(maxlen=EXEMPLAR_WINDOW)
        )
        self._active: dict[str, dict[str, Any]] = {}
        self._polls = registry.counter("obs.anomaly.polls")
        self._detected = registry.counter("obs.anomaly.detected")
        self._cleared = registry.counter("obs.anomaly.cleared")
        self._action_count = registry.counter("obs.anomaly.actions")
        self._active_gauge = registry.gauge("obs.anomaly.active")
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_rule(self, rule: DetectorRule, *, actions: Iterable[AnomalyAction] = ()) -> DetectorRule:
        """Register a rule (optionally with actions bound in one call)."""
        with self._lock:
            if any(existing.name == rule.name for existing in self._rules):
                raise ConfigurationError(f"duplicate rule name {rule.name!r}")
            self._rules.append(rule)
        for action in actions:
            self.bind_action(rule.name, action)
        return rule

    def bind_action(self, rule_name: str, action: AnomalyAction) -> None:
        """Engage *action* when *rule_name* detects; revert when it clears."""
        with self._lock:
            if not any(rule.name == rule_name for rule in self._rules):
                raise ConfigurationError(f"unknown rule {rule_name!r}")
            self._actions.setdefault(rule_name, []).append(action)

    @property
    def rules(self) -> list[DetectorRule]:
        with self._lock:
            return list(self._rules)

    # ------------------------------------------------------------------
    # Series derivation
    # ------------------------------------------------------------------
    @staticmethod
    def derive_series(
        delta: Mapping[str, Any],
        current: Mapping[str, Any],
        interval: float | None,
    ) -> dict[str, float]:
        """Flatten a snapshot delta into the rules' series vocabulary
        (see the module docstring for the naming table)."""
        series: dict[str, float] = {}
        rate_ok = interval is not None and interval > 0
        for name, increment in delta.get("counters", {}).items():
            series[name + ".delta"] = float(increment)
            if rate_ok:
                series[name + ".rate"] = increment / interval
        for name, level in current.get("gauges", {}).items():
            series[name] = float(level)
        for name, hist in delta.get("histograms", {}).items():
            count = hist.get("count", 0)
            if rate_ok:
                series[name + ".rate"] = count / interval
            if count > 0:
                series[name + ".p50"] = bucket_percentile(hist["buckets"], 0.50)
                series[name + ".p99"] = bucket_percentile(hist["buckets"], 0.99)
                series[name + ".mean"] = hist.get("mean", 0.0)
        return series

    def _watched_series(self) -> set[str]:
        watched: set[str] = set()
        for rule in self._rules:
            watched.add(rule.series)
            total = getattr(rule, "total_series", None)
            if total:
                watched.add(total)
        return watched

    # ------------------------------------------------------------------
    # The poll
    # ------------------------------------------------------------------
    def poll(self, now: float | None = None) -> list[RuleEvent]:
        """Run one detection cycle; returns the rule transitions it saw."""
        with self._lock:
            return self._poll_locked(self.clock() if now is None else now)

    def _poll_locked(self, now: float) -> list[RuleEvent]:
        current = self.registry.snapshot()
        interval = None
        if self._previous_time is not None:
            interval = now - self._previous_time
            if interval <= 0:
                interval = None
        delta = snapshot_delta(self._previous_snapshot, current)
        first_poll = self._previous_snapshot is None
        self._previous_snapshot = current
        self._previous_time = now
        self._polls.inc()
        if first_poll:
            # No interval yet: deltas are cumulative-since-forever, which
            # would look like a giant burst. Prime state, detect nothing.
            return []
        series = self.derive_series(delta, current, interval)
        self._series = series
        self._feed_exemplars(series)
        transitions: list[RuleEvent] = []
        for rule in self._rules:
            event = rule.update(series, interval=interval)
            if event is None:
                continue
            transitions.append(event)
            if event.kind is RuleEventKind.DETECTED:
                self._on_detected(rule, event, now)
            else:
                self._on_cleared(rule, event, now)
        self._active_gauge.set(float(len(self._active)))
        return transitions

    def _feed_exemplars(self, series: Mapping[str, float]) -> None:
        for name in self._watched_series():
            value = series.get(name)
            if value is not None:
                self._exemplars[name].append(float(value))

    def _exemplar(self, name: str) -> list[float]:
        return [round(v, 9) for v in self._exemplars.get(name, ())]

    def _emit(self, kind: str, detail: Mapping[str, Any], **fields: Any) -> None:
        """Journal one record: the engine's *fields*, then the keys of an
        action's or a rule's *detail* that do not collide with them (or
        with the record's ``kind``) -- the engine's own fields win."""
        if self.events is not None:
            for key, value in detail.items():
                if key != "kind":
                    fields.setdefault(key, value)
            self.events.emit(kind, **fields)

    def _run_action(self, action: AnomalyAction, rule: str, direction: str) -> bool:
        """Engage or revert *action* and journal it as ``anomaly_action``.

        An action that raises (a pager that is down) is journalled with
        ``error=`` and reported as failed instead of propagating: the
        rule's other actions still run, its ``anomaly_*`` record is still
        journalled, and the polling thread survives.
        """
        try:
            detail = action.engage() if direction == "engage" else action.revert()
        except Exception as exc:
            detail, ok = {"error": f"{type(exc).__name__}: {exc}"}, False
        else:
            ok = True
        self._emit(
            "anomaly_action", detail, action=action.name, rule=rule, direction=direction
        )
        return ok

    def _on_detected(self, rule: DetectorRule, event: RuleEvent, now: float) -> None:
        self._detected.inc()
        engaged: list[str] = []
        self._active[rule.name] = {
            "rule": rule.name,
            "series": event.series,
            "value": round(event.value, 9),
            "threshold": event.threshold,
            "since": now,
            "detail": dict(event.detail),
            "actions": engaged,
        }
        for action in self._actions.get(rule.name, ()):
            if self._run_action(action, rule.name, "engage"):
                self._action_count.inc()
                engaged.append(action.name)
        self._emit(
            "anomaly_detected",
            event.detail,
            rule=rule.name,
            series=event.series,
            value=round(event.value, 9),
            threshold=event.threshold,
            exemplar=self._exemplar(event.series),
            actions=engaged,
        )

    def _on_cleared(self, rule: DetectorRule, event: RuleEvent, now: float) -> None:
        self._cleared.inc()
        record = self._active.pop(rule.name, None)
        duration = round(now - record["since"], 9) if record else None
        for action in self._actions.get(rule.name, ()):
            self._run_action(action, rule.name, "revert")
        self._emit(
            "anomaly_cleared",
            event.detail,
            rule=rule.name,
            series=event.series,
            value=round(event.value, 9),
            threshold=event.threshold,
            duration=duration,
        )

    # ------------------------------------------------------------------
    # Introspection (powers /anomalies.json, top, and the CLI)
    # ------------------------------------------------------------------
    def active(self) -> list[dict[str, Any]]:
        """Currently-active anomalies, oldest first."""
        with self._lock:
            return sorted(
                (dict(record) for record in self._active.values()),
                key=lambda record: record["since"],
            )

    def status(self) -> dict[str, Any]:
        """Plain-data engine report (JSON-safe)."""
        with self._lock:
            return {
                "polls": self._polls.value,
                "detected": self._detected.value,
                "cleared": self._cleared.value,
                "active": sorted(
                    (dict(record) for record in self._active.values()),
                    key=lambda record: record["since"],
                ),
                "rules": [rule.describe() for rule in self._rules],
                "actions": [
                    {**action.describe(), "rule": rule_name}
                    for rule_name, actions in sorted(self._actions.items())
                    for action in actions
                ],
                "series": {
                    name: round(value, 9) for name, value in sorted(self._series.items())
                },
            }

    # ------------------------------------------------------------------
    # Background polling (production mode; tests drive poll() directly)
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background poll thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()

        def run() -> None:
            while not self._stop.wait(self.poll_interval):
                self.poll()

        self._thread = threading.Thread(
            target=run, name="anomaly-engine", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (idempotent; joins briefly)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "AnomalyEngine":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return (
            f"<AnomalyEngine rules={len(self._rules)} "
            f"active={len(self._active)} {state}>"
        )


def default_rules(
    *,
    latency_series: str = "client.get.seconds.p99",
    latency_zmax: float = 4.0,
    error_series: str = "kv.retry.exhausted.delta",
    total_series: str = "client.store_reads.delta",
    error_ratio: float = 0.5,
    leak_series: str = "demo.leak.bytes",
    leak_per_second: float = 1.0,
) -> list[DetectorRule]:
    """A starter rule set for the demo stack (``repro serve-metrics`` and
    ``repro top --demo``; ``repro anomaly rules`` without ``--url`` prints
    it): p99 latency deviation over the enhanced client's read path,
    retry-exhaustion ratio against store reads, and a gauge-leak drift
    rule.  Rules whose series never appear simply stay
    quiet.  Production deployments should name their own series; this is
    a template, not a default policy."""
    return [
        ZScoreRule(
            "latency_p99",
            latency_series,
            zmax=latency_zmax,
            trigger_after=2,
            clear_after=3,
        ),
        ErrorRatioRule(
            "error_burst",
            error_series,
            total_series,
            ratio=error_ratio,
            trigger_after=1,
            clear_after=2,
        ),
        RateOfChangeRule(
            "slow_leak",
            leak_series,
            per_second=leak_per_second,
            trigger_after=3,
            clear_after=3,
        ),
    ]
