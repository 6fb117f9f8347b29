"""Streaming anomaly detection over the metrics plane.

PRs 1-2 made the stack *observable* (metrics, traces, events, exporter,
``repro top``); this package makes it *self-observing*: a constant-memory
streaming layer that watches the :class:`~repro.obs.metrics.MetricsRegistry`
online, decides when a series has left its normal regime, and closes the
loop by journaling structured events and -- optionally -- engaging the
fault-tolerance plane before callers feel the failure.

Three pieces, smallest first:

* :mod:`~repro.obs.anomaly.detectors` -- composable detector rules (static
  threshold, robust z-score over an exponentially-decayed Welford baseline,
  rate-of-change, error-ratio) wrapped in one shared hysteresis + debounce
  state machine so flapping series do not spam events;
* :mod:`~repro.obs.anomaly.engine` -- the :class:`AnomalyEngine`: polls
  registry deltas on an injectable clock, derives per-interval series
  (counter rates, gauge levels, histogram interval percentiles), evaluates
  the rules, and emits ``anomaly_detected`` / ``anomaly_cleared`` records
  into the event log with the offending series' last 32 values attached
  as an exemplar;
* :mod:`~repro.obs.anomaly.actions` -- reversible resilience actions an
  anomaly can engage (trip a circuit breaker preemptively, enable hedged
  reads, switch a client into serve-stale mode), each journaled on engage
  and reverted on clear.

The whole loop runs with zero real sleeps under test: the engine's clock is
injectable and :meth:`AnomalyEngine.poll` can be driven manually, which is
how ``scripts/check_anomaly.py`` validates detection coverage against the
chaos plane (inject a latency step, an error burst, a slow leak -- assert
all detected and a clean baseline stays quiet).  Contract and tuning guide:
``docs/anomaly.md``.
"""

from __future__ import annotations

from .actions import (
    AnomalyAction,
    CallbackAction,
    EnableHedgingAction,
    ServeStaleAction,
    TripCircuitAction,
)
from .detectors import (
    DecayedMeanVar,
    DetectorRule,
    ErrorRatioRule,
    RateOfChangeRule,
    RuleEvent,
    ThresholdRule,
    ZScoreRule,
)
from .engine import AnomalyEngine, default_rules

__all__ = [
    "DecayedMeanVar",
    "DetectorRule",
    "RuleEvent",
    "ThresholdRule",
    "ZScoreRule",
    "RateOfChangeRule",
    "ErrorRatioRule",
    "AnomalyEngine",
    "default_rules",
    "AnomalyAction",
    "CallbackAction",
    "TripCircuitAction",
    "EnableHedgingAction",
    "ServeStaleAction",
]
