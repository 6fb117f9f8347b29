"""Composable detector rules with hysteresis and debounce.

A rule watches one (or two) derived series from the engine's per-poll view
and decides *breach or not*; the base class turns that raw boolean into
calm, operator-grade transitions:

* **debounce** -- a rule must breach ``trigger_after`` consecutive polls
  before it fires (one garbage-collection pause is not an incident);
* **hysteresis** -- a fired rule must stay *below its clear threshold* for
  ``clear_after`` consecutive polls before it clears, and the clear
  threshold sits below the trigger threshold (``clear_ratio``), so a series
  oscillating around the trigger level produces one anomaly, not fifty.

The contract with the engine: :meth:`DetectorRule.update` is called once
per poll with the full series mapping and returns zero or one
:class:`RuleEvent` (``DETECTED`` or ``CLEARED``).  Rules are deliberately
clock-free -- the engine owns time -- and sleep-free, so the whole detection
plane is testable by calling ``update`` in a loop.

Concrete rules:

* :class:`ThresholdRule` -- static bound on a series (above or below);
* :class:`ZScoreRule` -- robust deviation from a :class:`DecayedMeanVar`
  baseline (O(1) state, defined here) that is *frozen while the anomaly
  is active*, so a latency step cannot absorb itself into "normal" and
  silently clear;
* :class:`RateOfChangeRule` -- per-second drift bound (the slow-leak
  detector);
* :class:`ErrorRatioRule` -- errors / total over the poll interval with a
  minimum-volume guard so one failing request out of one does not page.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from ...errors import ConfigurationError

__all__ = [
    "DecayedMeanVar",
    "RuleEventKind",
    "RuleEvent",
    "DetectorRule",
    "ThresholdRule",
    "ZScoreRule",
    "RateOfChangeRule",
    "ErrorRatioRule",
]


class RuleEventKind(enum.Enum):
    DETECTED = "detected"
    CLEARED = "cleared"


@dataclass
class RuleEvent:
    """One state transition produced by a rule during a poll."""

    kind: RuleEventKind
    rule: str
    series: str
    value: float
    threshold: float
    detail: dict[str, Any] = field(default_factory=dict)


class DetectorRule:
    """Base class: breach logic is the subclass's, calm-down logic is here.

    State machine (per rule -- a rule binds one logical condition):

    ``quiet`` --[breach x trigger_after]--> ``active`` --[calm x
    clear_after]--> ``quiet``.  "Calm" means *below the clear threshold*,
    which subclasses place below the trigger threshold; in between, the
    counters simply hold (no event either way -- that is the hysteresis
    band).
    """

    def __init__(
        self,
        name: str,
        series: str,
        *,
        trigger_after: int = 1,
        clear_after: int = 2,
    ) -> None:
        """Configure the transition discipline.

        :param name: rule identifier (journaled with every event).
        :param series: the engine-derived series this rule watches (purely
            informational for two-series rules, which override
            :meth:`_breach` and read what they need).
        :param trigger_after: consecutive breaching polls before DETECTED.
        :param clear_after: consecutive calm polls before CLEARED.
        """
        if not name:
            raise ConfigurationError("rule name must be non-empty")
        if trigger_after < 1 or clear_after < 1:
            raise ConfigurationError("trigger_after and clear_after must be >= 1")
        self.name = name
        self.series = series
        self.trigger_after = trigger_after
        self.clear_after = clear_after
        self._breaching_polls = 0
        self._calm_polls = 0
        self._active = False
        #: lifetime transition counts (for reports and assertions)
        self.detections = 0
        self.clearances = 0

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def describe(self) -> dict[str, Any]:
        """Static description for ``repro anomaly rules`` and the export."""
        return {
            "rule": self.name,
            "kind": type(self).__name__,
            "series": self.series,
            "trigger_after": self.trigger_after,
            "clear_after": self.clear_after,
            "active": self._active,
            **self._describe_thresholds(),
        }

    def _describe_thresholds(self) -> dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _breach(
        self, series: Mapping[str, float], interval: float | None
    ) -> tuple[bool | None, bool, float, float, dict[str, Any]]:
        """Evaluate one poll.

        Returns ``(breached, calm, value, threshold, detail)``:

        * ``breached`` -- the trigger condition holds (``None`` = the rule
          cannot evaluate this poll, e.g. its series is absent or a
          baseline is still warming up; counters hold, nothing happens);
        * ``calm`` -- the value is below the *clear* threshold (the
          hysteresis band is ``not breached and not calm``);
        * ``value`` / ``threshold`` -- what to journal;
        * ``detail`` -- extra journal fields (z-score, ratio, ...).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def update(
        self, series: Mapping[str, float], *, interval: float | None = None
    ) -> RuleEvent | None:
        """Feed one poll; returns a transition event or ``None``."""
        breached, calm, value, threshold, detail = self._breach(series, interval)
        if breached is None:
            return None
        if not self._active:
            if breached:
                self._breaching_polls += 1
                if self._breaching_polls >= self.trigger_after:
                    self._active = True
                    self._breaching_polls = 0
                    self._calm_polls = 0
                    self.detections += 1
                    return RuleEvent(
                        RuleEventKind.DETECTED, self.name, self.series,
                        value, threshold, detail,
                    )
            else:
                self._breaching_polls = 0
            return None
        # Active: wait for sustained calm below the clear threshold.
        if calm:
            self._calm_polls += 1
            if self._calm_polls >= self.clear_after:
                self._active = False
                self._calm_polls = 0
                self._breaching_polls = 0
                self.clearances += 1
                return RuleEvent(
                    RuleEventKind.CLEARED, self.name, self.series,
                    value, threshold, detail,
                )
        else:
            self._calm_polls = 0
        return None

    def __repr__(self) -> str:
        state = "active" if self._active else "quiet"
        return f"<{type(self).__name__} {self.name!r} on {self.series!r} {state}>"


class ThresholdRule(DetectorRule):
    """Static bound: breach when the series is at or beyond ``limit``.

    ``direction="above"`` (the default) triggers at ``value >= limit`` and
    clears below ``limit * clear_ratio``; ``direction="below"`` mirrors
    (trigger at ``value <= limit``, clear above ``limit / clear_ratio``).
    """

    def __init__(
        self,
        name: str,
        series: str,
        *,
        limit: float,
        direction: str = "above",
        clear_ratio: float = 0.8,
        **discipline: Any,
    ) -> None:
        super().__init__(name, series, **discipline)
        if direction not in ("above", "below"):
            raise ConfigurationError("direction must be 'above' or 'below'")
        if not 0.0 < clear_ratio <= 1.0:
            raise ConfigurationError("clear_ratio must be within (0, 1]")
        self.limit = limit
        self.direction = direction
        self._clear_ratio = clear_ratio

    def _describe_thresholds(self) -> dict[str, Any]:
        return {"limit": self.limit, "direction": self.direction,
                "clear_at": self.clear_threshold}

    @property
    def clear_threshold(self) -> float:
        if self.direction == "above":
            return self.limit * self._clear_ratio
        return self.limit / self._clear_ratio if self._clear_ratio else self.limit

    def _breach(self, series, interval):
        value = series.get(self.series)
        if value is None:
            return None, False, 0.0, self.limit, {}
        if self.direction == "above":
            breached = value >= self.limit
            calm = value < self.clear_threshold
        else:
            breached = value <= self.limit
            calm = value > self.clear_threshold
        return breached, calm, value, self.limit, {"direction": self.direction}


class DecayedMeanVar:
    """Exponentially-decayed Welford mean/variance.

    ``alpha`` is the weight of each new observation: the effective memory is
    roughly the last ``1/alpha`` observations (``alpha=0.05`` ~ the last 20
    polls).  ``update`` keeps the classic numerically-stable recurrence::

        diff      = x - mean
        mean     += alpha * diff
        variance  = (1 - alpha) * (variance + alpha * diff^2)

    which for a stationary stream converges to the stream's variance, and
    for a shifting stream forgets the old regime at rate ``1 - alpha``.
    ``zscore`` guards against a degenerate (constant) baseline with a
    minimum standard deviation floor.
    """

    __slots__ = ("_alpha", "_mean", "_var", "_count", "_min_std")

    def __init__(self, *, alpha: float = 0.05, min_std: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be within (0, 1]")
        if min_std < 0:
            raise ConfigurationError("min_std must be non-negative")
        self._alpha = alpha
        self._mean = 0.0
        self._var = 0.0
        self._count = 0
        self._min_std = min_std

    def update(self, value: float) -> None:
        """Fold one observation into the decayed baseline."""
        if self._count == 0:
            self._mean = float(value)
            self._var = 0.0
        else:
            diff = float(value) - self._mean
            increment = self._alpha * diff
            self._mean += increment
            self._var = (1.0 - self._alpha) * (self._var + diff * increment)
        self._count += 1

    @property
    def count(self) -> int:
        """Observations folded in so far (undecayed tally)."""
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._var

    @property
    def std(self) -> float:
        return math.sqrt(self._var)

    def zscore(self, value: float) -> float:
        """Robust deviation of *value* from the decayed baseline.

        Returns 0.0 until at least one observation exists; the divisor is
        floored at ``min_std`` so a perfectly flat baseline (variance 0)
        yields a large-but-finite score instead of a division error.
        """
        if self._count == 0:
            return 0.0
        return (float(value) - self._mean) / max(self.std, self._min_std)

    def __repr__(self) -> str:
        return (
            f"DecayedMeanVar(mean={self._mean:.6g}, std={self.std:.6g}, "
            f"count={self._count})"
        )


class ZScoreRule(DetectorRule):
    """Robust deviation from an exponentially-decayed baseline.

    Breaches when ``|z| >= zmax`` (or only positive deviations with
    ``two_sided=False``); clears when ``|z| < zmax * clear_ratio``.  The
    baseline needs ``min_observations`` polls before the rule evaluates at
    all (an empty baseline flags everything), and **freezes while the rule
    is active**: a level shift keeps scoring against the *pre-anomaly*
    normal until it clears, so a persistent regression stays visible
    instead of becoming the new baseline.  Pass ``freeze_while_active=False``
    for streams where adaptation is wanted (e.g. diurnal load).
    """

    def __init__(
        self,
        name: str,
        series: str,
        *,
        zmax: float = 4.0,
        alpha: float = 0.05,
        min_observations: int = 8,
        two_sided: bool = False,
        clear_ratio: float = 0.5,
        min_std: float = 1e-9,
        freeze_while_active: bool = True,
        **discipline: Any,
    ) -> None:
        super().__init__(name, series, **discipline)
        if zmax <= 0:
            raise ConfigurationError("zmax must be positive")
        if min_observations < 1:
            raise ConfigurationError("min_observations must be at least 1")
        if not 0.0 < clear_ratio <= 1.0:
            raise ConfigurationError("clear_ratio must be within (0, 1]")
        self.zmax = zmax
        self.min_observations = min_observations
        self.two_sided = two_sided
        self._clear_ratio = clear_ratio
        self._freeze = freeze_while_active
        self.baseline = DecayedMeanVar(alpha=alpha, min_std=min_std)

    def _describe_thresholds(self) -> dict[str, Any]:
        return {
            "zmax": self.zmax,
            "baseline_mean": round(self.baseline.mean, 9),
            "baseline_std": round(self.baseline.std, 9),
            "two_sided": self.two_sided,
        }

    def _breach(self, series, interval):
        value = series.get(self.series)
        if value is None:
            return None, False, 0.0, self.zmax, {}
        if self.baseline.count < self.min_observations:
            self.baseline.update(value)
            return None, False, value, self.zmax, {}
        z = self.baseline.zscore(value)
        score = abs(z) if self.two_sided else z
        breached = score >= self.zmax
        calm = score < self.zmax * self._clear_ratio
        if not (self._freeze and (self._active or breached)):
            self.baseline.update(value)
        return breached, calm, value, self.zmax, {
            "zscore": round(z, 3),
            "baseline_mean": round(self.baseline.mean, 9),
            "baseline_std": round(self.baseline.std, 9),
        }


class RateOfChangeRule(DetectorRule):
    """Per-second drift bound -- the slow-leak detector.

    Computes ``(value - previous) / interval`` each poll and breaches when
    the drift is at or beyond ``per_second`` for ``trigger_after``
    consecutive polls (debounce is what separates a leak from a blip --
    default 3).  ``direction="above"`` catches growth (queue depth, open
    fds, bytes held); ``"below"`` catches collapse (hit ratio draining).
    """

    def __init__(
        self,
        name: str,
        series: str,
        *,
        per_second: float,
        direction: str = "above",
        clear_ratio: float = 0.5,
        trigger_after: int = 3,
        **discipline: Any,
    ) -> None:
        super().__init__(name, series, trigger_after=trigger_after, **discipline)
        if per_second <= 0:
            raise ConfigurationError("per_second must be positive")
        if direction not in ("above", "below"):
            raise ConfigurationError("direction must be 'above' or 'below'")
        if not 0.0 < clear_ratio <= 1.0:
            raise ConfigurationError("clear_ratio must be within (0, 1]")
        self.per_second = per_second
        self.direction = direction
        self._clear_ratio = clear_ratio
        self._previous: float | None = None

    def _describe_thresholds(self) -> dict[str, Any]:
        return {"per_second": self.per_second, "direction": self.direction}

    def _breach(self, series, interval):
        value = series.get(self.series)
        if value is None:
            return None, False, 0.0, self.per_second, {}
        previous, self._previous = self._previous, value
        if previous is None or not interval or interval <= 0:
            return None, False, value, self.per_second, {}
        rate = (value - previous) / interval
        signed = rate if self.direction == "above" else -rate
        breached = signed >= self.per_second
        calm = signed < self.per_second * self._clear_ratio
        return breached, calm, value, self.per_second, {
            "rate_per_second": round(rate, 6)
        }


class ErrorRatioRule(DetectorRule):
    """Errors over total for the poll interval, with a volume guard.

    Watches two delta series (per-interval increments, which the engine
    derives for every counter as ``<name>.delta``): breach when
    ``errors / total >= ratio`` and ``total >= min_total``.  Quiet
    intervals (under ``min_total`` events) hold state -- silence is not
    health, but it is not an error burst either.
    """

    def __init__(
        self,
        name: str,
        errors_series: str,
        total_series: str,
        *,
        ratio: float = 0.5,
        min_total: float = 5.0,
        clear_ratio: float = 0.5,
        **discipline: Any,
    ) -> None:
        super().__init__(name, errors_series, **discipline)
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError("ratio must be within (0, 1]")
        if min_total <= 0:
            raise ConfigurationError("min_total must be positive")
        if not 0.0 < clear_ratio <= 1.0:
            raise ConfigurationError("clear_ratio must be within (0, 1]")
        self.errors_series = errors_series
        self.total_series = total_series
        self.ratio = ratio
        self.min_total = min_total
        self._clear_ratio = clear_ratio

    def _describe_thresholds(self) -> dict[str, Any]:
        return {
            "ratio": self.ratio,
            "total_series": self.total_series,
            "min_total": self.min_total,
        }

    def _breach(self, series, interval):
        errors = series.get(self.errors_series)
        total = series.get(self.total_series)
        if errors is None or total is None:
            return None, False, 0.0, self.ratio, {}
        if total < self.min_total:
            return None, False, 0.0, self.ratio, {}
        observed = errors / total
        breached = observed >= self.ratio
        calm = observed < self.ratio * self._clear_ratio
        return breached, calm, observed, self.ratio, {
            "errors": errors,
            "total": total,
        }
