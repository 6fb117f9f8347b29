"""The anomaly-detection plane: baseline, rules, actions, and the engine.

Everything here runs on injected virtual clocks and manual ``poll()``
calls -- zero real sleeps -- which is itself part of the contract: the
detection plane must be drivable deterministically.
"""

from __future__ import annotations

import importlib
import math
import random
import threading

import pytest

from repro.errors import ConfigurationError
from repro.kv import InMemoryStore, ReplicatedStore
from repro.kv.circuit import CircuitBreaker, CircuitState
from repro.core import EnhancedDataStoreClient
from repro.obs import EventLog, NULL_OBS, Observability
from repro.obs.anomaly import (
    AnomalyAction,
    AnomalyEngine,
    CallbackAction,
    DecayedMeanVar,
    EnableHedgingAction,
    ErrorRatioRule,
    RateOfChangeRule,
    ServeStaleAction,
    ThresholdRule,
    TripCircuitAction,
    ZScoreRule,
    default_rules,
)
from repro.obs import anomaly
from repro.obs.anomaly import detectors
from repro.obs.anomaly.detectors import RuleEventKind
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestDecayedMeanVar:
    def test_constant_stream_converges_exactly(self):
        baseline = DecayedMeanVar(alpha=0.1)
        for _ in range(100):
            baseline.update(42.0)
        assert baseline.mean == pytest.approx(42.0)
        assert baseline.variance == pytest.approx(0.0, abs=1e-12)
        assert baseline.count == 100

    def test_zscore_is_zero_before_any_observation(self):
        assert DecayedMeanVar().zscore(1e9) == 0.0

    def test_zscore_floors_std_on_flat_baseline(self):
        baseline = DecayedMeanVar(alpha=0.1, min_std=1.0)
        for _ in range(10):
            baseline.update(10.0)
        # variance is 0; the floor keeps the score finite and linear
        assert baseline.zscore(13.0) == pytest.approx(3.0)

    def test_regime_shift_is_forgotten(self):
        baseline = DecayedMeanVar(alpha=0.2)
        for _ in range(50):
            baseline.update(10.0)
        for _ in range(50):
            baseline.update(100.0)
        assert baseline.mean == pytest.approx(100.0, rel=1e-3)

    def test_tracks_noisy_variance(self):
        baseline = DecayedMeanVar(alpha=0.05)
        rng = random.Random(7)
        for _ in range(2000):
            baseline.update(rng.gauss(50.0, 5.0))
        assert baseline.mean == pytest.approx(50.0, abs=2.0)
        assert baseline.std == pytest.approx(5.0, rel=0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DecayedMeanVar(alpha=0.0)
        with pytest.raises(ConfigurationError):
            DecayedMeanVar(alpha=1.5)
        with pytest.raises(ConfigurationError):
            DecayedMeanVar(min_std=-1.0)


class TestRemovedSketches:
    """The correlation and quantile sketches are gone; the decayed baseline
    lives beside the rule that reads it. Removed names are spelled in parts
    so that the live tree names them nowhere but here."""

    def test_decayed_baseline_lives_beside_its_rule(self):
        assert detectors.DecayedMeanVar is DecayedMeanVar

    def test_sketch_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.anomaly." + "sketch")

    @pytest.mark.parametrize(
        "name",
        ["Frequent" + "Directions", "Windowed" + "QuantileSketch"],
    )
    def test_removed_class_leaves_the_package(self, name):
        assert name not in anomaly.__all__
        assert not hasattr(anomaly, name)


# ----------------------------------------------------------------------
# Detector rules
# ----------------------------------------------------------------------
def feed(rule, values, **kwargs):
    """Feed a sequence of single-series polls; return the transitions."""
    events = []
    for value in values:
        event = rule.update({rule.series: value}, interval=kwargs.get("interval", 1.0))
        if event is not None:
            events.append(event)
    return events


class TestThresholdRule:
    def test_debounce_requires_consecutive_breaches(self):
        rule = ThresholdRule("r", "s", limit=100.0, trigger_after=2)
        # breach, dip, breach: the dip resets the debounce counter
        assert feed(rule, [150.0, 10.0, 150.0]) == []
        [event] = feed(rule, [150.0])
        assert event.kind is RuleEventKind.DETECTED
        assert event.value == 150.0 and event.threshold == 100.0

    def test_hysteresis_band_holds_state(self):
        rule = ThresholdRule(
            "r", "s", limit=100.0, clear_ratio=0.8, trigger_after=1, clear_after=2
        )
        feed(rule, [150.0])
        assert rule.active
        # 90 is below the limit but above the clear threshold (80): no clear
        assert feed(rule, [90.0, 90.0, 90.0, 90.0]) == []
        assert rule.active
        [event] = feed(rule, [50.0, 50.0])
        assert event.kind is RuleEventKind.CLEARED
        assert not rule.active
        assert rule.detections == 1 and rule.clearances == 1

    def test_oscillation_around_limit_fires_once(self):
        rule = ThresholdRule(
            "r", "s", limit=100.0, clear_ratio=0.8, trigger_after=1, clear_after=3
        )
        events = feed(rule, [150.0, 90.0, 150.0, 90.0, 150.0, 90.0])
        assert [e.kind for e in events] == [RuleEventKind.DETECTED]

    def test_direction_below(self):
        rule = ThresholdRule(
            "r", "s", limit=0.5, direction="below", clear_ratio=0.5, trigger_after=1
        )
        [event] = feed(rule, [0.4])
        assert event.kind is RuleEventKind.DETECTED
        # clear threshold is limit / clear_ratio = 1.0: must rise above it
        assert feed(rule, [0.8, 0.8]) == []
        [cleared] = feed(rule, [1.5, 1.5])
        assert cleared.kind is RuleEventKind.CLEARED

    def test_missing_series_holds_everything(self):
        rule = ThresholdRule("r", "s", limit=10.0, trigger_after=2)
        rule.update({"s": 50.0}, interval=1.0)
        assert rule.update({"other": 50.0}, interval=1.0) is None
        [event] = feed(rule, [50.0])  # counter held at 1, this is poll 2
        assert event.kind is RuleEventKind.DETECTED

    def test_describe(self):
        rule = ThresholdRule("r", "s", limit=10.0)
        described = rule.describe()
        assert described["rule"] == "r" and described["limit"] == 10.0
        assert described["clear_at"] == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdRule("", "s", limit=1.0)
        with pytest.raises(ConfigurationError):
            ThresholdRule("r", "s", limit=1.0, direction="sideways")
        with pytest.raises(ConfigurationError):
            ThresholdRule("r", "s", limit=1.0, clear_ratio=0.0)
        with pytest.raises(ConfigurationError):
            ThresholdRule("r", "s", limit=1.0, trigger_after=0)


class TestZScoreRule:
    def make(self, **kwargs):
        kwargs.setdefault("min_observations", 3)
        kwargs.setdefault("zmax", 4.0)
        kwargs.setdefault("min_std", 1.0)
        kwargs.setdefault("trigger_after", 1)
        kwargs.setdefault("clear_after", 2)
        return ZScoreRule("z", "s", **kwargs)

    def test_warmup_never_fires(self):
        rule = self.make(min_observations=5)
        assert feed(rule, [1e9] * 5) == []  # all warmup, however wild
        assert rule.baseline.count == 5

    def test_detects_step_and_clears_on_recovery(self):
        rule = self.make()
        assert feed(rule, [10.0, 10.0, 10.0, 10.0]) == []  # warm + calm
        [event] = feed(rule, [100.0])
        assert event.kind is RuleEventKind.DETECTED
        assert event.detail["zscore"] == pytest.approx(90.0)
        [cleared] = feed(rule, [10.0, 10.0])
        assert cleared.kind is RuleEventKind.CLEARED

    def test_frozen_baseline_keeps_step_visible(self):
        rule = self.make()
        feed(rule, [10.0, 10.0, 10.0, 100.0])
        assert rule.active
        # A sustained step must NOT absorb into the baseline and self-clear.
        assert feed(rule, [100.0] * 50) == []
        assert rule.active
        assert rule.baseline.mean == pytest.approx(10.0)

    def test_unfrozen_baseline_adapts_and_clears(self):
        rule = self.make(freeze_while_active=False, alpha=0.5)
        feed(rule, [10.0, 10.0, 10.0, 100.0])
        assert rule.active
        events = feed(rule, [100.0] * 40)
        assert [e.kind for e in events] == [RuleEventKind.CLEARED]
        assert rule.baseline.mean == pytest.approx(100.0, rel=1e-3)

    def test_two_sided_catches_collapse(self):
        rule = self.make(two_sided=True)
        feed(rule, [100.0, 100.0, 100.0, 100.0])
        [event] = feed(rule, [0.0])
        assert event.kind is RuleEventKind.DETECTED
        assert event.detail["zscore"] < 0

    def test_one_sided_ignores_improvement(self):
        rule = self.make(two_sided=False)
        assert feed(rule, [100.0, 100.0, 100.0, 0.0, 0.0]) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZScoreRule("z", "s", zmax=0.0)
        with pytest.raises(ConfigurationError):
            ZScoreRule("z", "s", min_observations=0)
        with pytest.raises(ConfigurationError):
            ZScoreRule("z", "s", clear_ratio=2.0)


class TestRateOfChangeRule:
    def make(self, **kwargs):
        kwargs.setdefault("per_second", 50.0)
        kwargs.setdefault("trigger_after", 2)
        kwargs.setdefault("clear_after", 2)
        return RateOfChangeRule("leak", "bytes", **kwargs)

    def test_sustained_drift_detects_after_debounce(self):
        rule = self.make()
        values = [0.0, 100.0, 200.0, 300.0]  # +100/s from poll 2 on
        events = feed(rule, values)
        assert [e.kind for e in events] == [RuleEventKind.DETECTED]
        assert events[0].detail["rate_per_second"] == pytest.approx(100.0)

    def test_single_blip_is_not_a_leak(self):
        rule = self.make()
        assert feed(rule, [0.0, 500.0, 500.0, 500.0, 500.0]) == []

    def test_plateau_clears(self):
        rule = self.make()
        feed(rule, [0.0, 100.0, 200.0])
        assert rule.active
        [event] = feed(rule, [200.0, 200.0])
        assert event.kind is RuleEventKind.CLEARED

    def test_needs_previous_and_interval(self):
        rule = self.make()
        assert rule.update({"bytes": 100.0}, interval=None) is None
        assert rule.update({"bytes": 500.0}, interval=None) is None  # no rate
        assert not rule.active

    def test_direction_below_catches_collapse(self):
        rule = RateOfChangeRule(
            "drain", "ratio", per_second=0.1, direction="below", trigger_after=1
        )
        feed(rule, [1.0])  # prime previous
        [event] = feed(rule, [0.5])
        assert event.kind is RuleEventKind.DETECTED

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RateOfChangeRule("r", "s", per_second=0.0)
        with pytest.raises(ConfigurationError):
            RateOfChangeRule("r", "s", per_second=1.0, direction="diagonal")


class TestErrorRatioRule:
    def make(self, **kwargs):
        kwargs.setdefault("ratio", 0.5)
        kwargs.setdefault("min_total", 10.0)
        kwargs.setdefault("trigger_after", 1)
        kwargs.setdefault("clear_after", 1)
        return ErrorRatioRule("burst", "errors.delta", "requests.delta", **kwargs)

    def poll(self, rule, errors, total):
        return rule.update(
            {"errors.delta": errors, "requests.delta": total}, interval=1.0
        )

    def test_detects_burst_and_clears(self):
        rule = self.make()
        assert self.poll(rule, 1.0, 100.0) is None
        event = self.poll(rule, 60.0, 100.0)
        assert event.kind is RuleEventKind.DETECTED
        assert event.value == pytest.approx(0.6)
        assert event.detail == {"errors": 60.0, "total": 100.0}
        cleared = self.poll(rule, 1.0, 100.0)
        assert cleared.kind is RuleEventKind.CLEARED

    def test_volume_guard_holds_quiet_intervals(self):
        rule = self.make()
        # 3 of 4 failed, but 4 < min_total: neither breach nor calm
        assert self.poll(rule, 3.0, 4.0) is None
        assert not rule.active

    def test_missing_series_holds(self):
        rule = self.make()
        assert rule.update({"errors.delta": 5.0}, interval=1.0) is None

    def test_describe_names_both_series(self):
        described = self.make().describe()
        assert described["series"] == "errors.delta"
        assert described["total_series"] == "requests.delta"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ErrorRatioRule("r", "e", "t", ratio=0.0)
        with pytest.raises(ConfigurationError):
            ErrorRatioRule("r", "e", "t", min_total=0.0)


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------
class RecordingAction(AnomalyAction):
    def __init__(self, name="recording"):
        super().__init__(name)
        self.log = []

    def _apply(self):
        self.log.append("apply")
        return {"x": 1}

    def _restore(self):
        self.log.append("restore")


class TestActionRefcounting:
    def test_applies_once_restores_on_last_revert(self):
        action = RecordingAction()
        assert action.engage() == {"applied": True, "x": 1}
        assert action.engage() == {"applied": False, "holders": 2}
        assert action.holders == 2 and action.engaged
        assert action.revert() == {"restored": False, "holders": 1}
        assert action.log == ["apply"]
        assert action.revert()["restored"] is True
        assert action.log == ["apply", "restore"]
        assert not action.engaged
        assert action.applications == 1

    def test_revert_when_idle_is_a_noop(self):
        action = RecordingAction()
        assert action.revert() == {"restored": False, "reason": "not engaged"}
        assert action.log == []

    def test_name_required(self):
        with pytest.raises(ConfigurationError):
            RecordingAction(name="")


class TestCallbackAction:
    def test_dict_results_become_detail(self):
        calls = []
        action = CallbackAction(
            "cb",
            on_engage=lambda: calls.append("up") or {"mode": "on"},
            on_revert=lambda: calls.append("down"),
        )
        assert action.engage() == {"applied": True, "mode": "on"}
        assert action.revert() == {"restored": True}
        assert calls == ["up", "down"]

    def test_failed_apply_rolls_back_the_hold(self):
        restored = []

        def page():
            raise ConnectionError("pager down")

        action = CallbackAction(
            "page", on_engage=page, on_revert=lambda: restored.append(1)
        )
        with pytest.raises(ConnectionError):
            action.engage()
        assert not action.engaged and action.applications == 0
        assert action.revert() == {"restored": False, "reason": "not engaged"}
        assert restored == []

    def test_missing_revert_callback(self):
        action = CallbackAction("page", on_engage=lambda: None)
        action.engage()
        assert action.revert() == {"restored": True, "note": "no revert callback"}


class TestTripCircuitAction:
    def test_round_trips_a_real_breaker(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(name="b", clock=clock)
        action = TripCircuitAction(breaker)
        detail = action.engage()
        assert breaker.state is CircuitState.OPEN
        assert detail["breaker"] == "b"
        action.revert()
        assert breaker.state is CircuitState.CLOSED


class TestEnableHedgingAction:
    def test_restores_previous_delay_including_none(self):
        store = ReplicatedStore(InMemoryStore(), [InMemoryStore()])
        assert store.hedge_delay is None
        action = EnableHedgingAction(store, hedge_delay=0.05)
        action.engage()
        assert store.hedge_delay == 0.05
        action.revert()
        assert store.hedge_delay is None

    def test_hedge_delay_setter_validates(self):
        store = ReplicatedStore(InMemoryStore(), [InMemoryStore()])
        with pytest.raises(ConfigurationError):
            store.hedge_delay = -1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            EnableHedgingAction(object(), hedge_delay=-0.1)


class TestServeStaleAction:
    def test_flips_policy_and_restores(self):
        client = EnhancedDataStoreClient(InMemoryStore())
        assert client.serve_stale is False
        action = ServeStaleAction(client, max_stale=60.0)
        original_max = client.max_stale
        action.engage()
        assert client.serve_stale is True and client.max_stale == 60.0
        action.revert()
        assert client.serve_stale is False and client.max_stale == original_max

    def test_client_setters_validate(self):
        client = EnhancedDataStoreClient(InMemoryStore())
        with pytest.raises(ConfigurationError):
            client.max_stale = -5.0

    def test_negative_max_stale_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeStaleAction(object(), max_stale=-1.0)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def stack():
    clock = VirtualClock()
    obs = Observability(events=EventLog(clock=clock))
    engine = AnomalyEngine(obs, clock=clock)
    return clock, obs, engine


def tick(clock, engine, seconds=1.0):
    clock.advance(seconds)
    return engine.poll(clock.now)


class TestEngineConstruction:
    def test_rejects_null_obs(self):
        with pytest.raises(ConfigurationError):
            AnomalyEngine(NULL_OBS)

    def test_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            AnomalyEngine("not a registry")

    def test_bare_registry_works_without_journal(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        engine = AnomalyEngine(
            registry, rules=[ThresholdRule("r", "g", limit=5.0, trigger_after=1)]
        )
        engine.poll(1.0)
        gauge.set(10.0)
        [event] = engine.poll(2.0)  # no event log: transition only
        assert event.kind is RuleEventKind.DETECTED

    def test_duplicate_rule_name_rejected(self, stack):
        _clock, _obs, engine = stack
        engine.add_rule(ThresholdRule("r", "s", limit=1.0))
        with pytest.raises(ConfigurationError):
            engine.add_rule(ZScoreRule("r", "other"))

    def test_bind_action_requires_known_rule(self, stack):
        _clock, _obs, engine = stack
        with pytest.raises(ConfigurationError):
            engine.bind_action("ghost", RecordingAction())

    def test_validation(self):
        obs = Observability()
        with pytest.raises(ConfigurationError):
            AnomalyEngine(obs, poll_interval=0.0)

    # The removed correlation-sketch and exemplar-size options, spelled in
    # parts so that the live tree names them nowhere but here.
    @pytest.mark.parametrize(
        "option, value",
        [
            ("correl" + "ate", ("a", "b")),
            ("_".join(("correl" + "ate", "sketch", "size")), 8),
            ("_".join(("exemplar", "window")), 32),
        ],
    )
    def test_removed_options_raise(self, option, value):
        with pytest.raises(TypeError):
            AnomalyEngine(Observability(), **{option: value})


class TestDeriveSeries:
    def test_vocabulary(self):
        delta = {
            "counters": {"hits": 10},
            "histograms": {
                "op.seconds": {
                    "count": 4,
                    "sum": 0.008,
                    "mean": 0.002,
                    "buckets": [(0.001, 0), (0.005, 4), (math.inf, 4)],
                }
            },
        }
        current = {"gauges": {"pool.active": 3.0}}
        series = AnomalyEngine.derive_series(delta, current, 2.0)
        assert series["hits.delta"] == 10.0
        assert series["hits.rate"] == 5.0
        assert series["pool.active"] == 3.0
        assert series["op.seconds.rate"] == 2.0
        assert series["op.seconds.p50"] == 0.005
        assert series["op.seconds.p99"] == 0.005
        assert series["op.seconds.mean"] == 0.002

    def test_quiet_histogram_emits_no_stale_latency(self):
        delta = {
            "histograms": {"op.seconds": {"count": 0, "sum": 0.0, "buckets": []}}
        }
        series = AnomalyEngine.derive_series(delta, {}, 1.0)
        assert series["op.seconds.rate"] == 0.0
        assert "op.seconds.p99" not in series

    def test_no_interval_means_no_rates(self):
        delta = {"counters": {"hits": 10}}
        series = AnomalyEngine.derive_series(delta, {}, None)
        assert series == {"hits.delta": 10.0}


class TestEnginePolling:
    def test_first_poll_primes_only(self, stack):
        clock, obs, engine = stack
        engine.add_rule(ThresholdRule("r", "c.delta", limit=1.0, trigger_after=1))
        obs.registry.counter("c").inc(1000)  # cumulative burst before poll 1
        assert tick(clock, engine) == []
        assert obs.registry.counter("obs.anomaly.polls").value == 1

    def test_detection_journals_and_counts(self, stack):
        clock, obs, engine = stack
        engine.add_rule(
            ThresholdRule(
                "deep", "queue.depth", limit=100.0, trigger_after=1, clear_after=1
            )
        )
        depth = obs.registry.gauge("queue.depth")
        depth.set(10.0)
        tick(clock, engine)
        tick(clock, engine)
        depth.set(500.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.DETECTED
        [record] = obs.events.tail(kind="anomaly_detected")
        assert record["rule"] == "deep" and record["value"] == 500.0
        assert record["exemplar"][-1] == 500.0  # recent series values attached
        assert obs.registry.counter("obs.anomaly.detected").value == 1
        assert obs.registry.gauge("obs.anomaly.active").value == 1.0
        assert [a["rule"] for a in engine.active()] == ["deep"]

        depth.set(10.0)
        [cleared] = tick(clock, engine, seconds=3.0)
        assert cleared.kind is RuleEventKind.CLEARED
        [record] = obs.events.tail(kind="anomaly_cleared")
        assert record["duration"] == pytest.approx(3.0)
        assert obs.registry.gauge("obs.anomaly.active").value == 0.0
        assert engine.active() == []

    def test_actions_engage_and_revert_with_journal(self, stack):
        clock, obs, engine = stack
        action = RecordingAction()
        engine.add_rule(
            ThresholdRule("r", "g", limit=5.0, trigger_after=1, clear_after=1),
            actions=[action],
        )
        gauge = obs.registry.gauge("g")
        tick(clock, engine)
        gauge.set(10.0)
        tick(clock, engine)
        assert action.engaged
        [detected] = obs.events.tail(kind="anomaly_detected")
        assert detected["actions"] == ["recording"]
        gauge.set(0.0)
        tick(clock, engine)
        assert not action.engaged
        directions = [
            r["direction"] for r in obs.events.tail(kind="anomaly_action")
        ]
        assert directions == ["engage", "revert"]
        assert obs.registry.counter("obs.anomaly.actions").value == 1

    def test_shared_action_reverts_with_last_holder(self, stack):
        clock, obs, engine = stack
        action = RecordingAction()
        engine.add_rule(
            ThresholdRule("a", "ga", limit=5.0, trigger_after=1, clear_after=1),
            actions=[action],
        )
        engine.add_rule(
            ThresholdRule("b", "gb", limit=5.0, trigger_after=1, clear_after=1),
            actions=[action],
        )
        ga, gb = obs.registry.gauge("ga"), obs.registry.gauge("gb")
        tick(clock, engine)
        ga.set(10.0)
        gb.set(10.0)
        assert len(tick(clock, engine)) == 2
        assert action.holders == 2 and action.log == ["apply"]
        ga.set(0.0)
        tick(clock, engine)  # rule a clears; b still holds
        assert action.engaged and action.log == ["apply"]
        gb.set(0.0)
        tick(clock, engine)
        assert not action.engaged and action.log == ["apply", "restore"]

    def test_status_reports_everything(self, stack):
        clock, obs, engine = stack
        engine.add_rule(
            ThresholdRule("deep", "g", limit=5.0, trigger_after=1),
            actions=[RecordingAction()],
        )
        gauge = obs.registry.gauge("g")
        tick(clock, engine)
        gauge.set(10.0)
        tick(clock, engine)
        status = engine.status()
        assert status["polls"] == 2 and status["detected"] == 1
        assert status["rules"][0]["rule"] == "deep"
        assert status["actions"][0]["action"] == "recording"
        assert status["actions"][0]["rule"] == "deep"
        assert status["series"]["g"] == 10.0
        assert status["active"][0]["rule"] == "deep"

    def test_exemplar_is_the_last_32_values_newest_last(self, stack):
        clock, obs, engine = stack
        engine.add_rule(ThresholdRule("r", "g", limit=1000.0, trigger_after=1))
        gauge = obs.registry.gauge("g")
        for step in range(39):
            gauge.set(step + 0.1234567891)
            tick(clock, engine)
        gauge.set(5000.0)
        [event] = tick(clock, engine)  # the 40th poll breaches
        assert event.kind is RuleEventKind.DETECTED
        [detected] = obs.events.tail(kind="anomaly_detected")
        # The first poll only primes: 39 values were fed, the window keeps 32.
        want = [round(step + 0.1234567891, 9) for step in range(8, 39)] + [5000.0]
        assert detected["exemplar"] == want
        assert len(detected["exemplar"]) == 32
        assert "_".join(("co", "moving")) not in detected  # the removed hint
        assert "correlation" not in engine.active()[0]
        assert "correlation" not in engine.status()

    def test_exemplar_holds_every_value_before_the_window_fills(self, stack):
        clock, obs, engine = stack
        engine.add_rule(ThresholdRule("r", "g", limit=100.0, trigger_after=1))
        gauge = obs.registry.gauge("g")
        for value in (1.0, 2.0, 3.0, 4.0):
            gauge.set(value)
            tick(clock, engine)
        gauge.set(500.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.DETECTED
        [detected] = obs.events.tail(kind="anomaly_detected")
        assert detected["exemplar"] == [2.0, 3.0, 4.0, 500.0]  # poll 1 primes

    def test_each_watched_series_keeps_its_own_exemplar(self, stack):
        clock, obs, engine = stack
        engine.add_rule(ThresholdRule("a", "ga", limit=100.0, trigger_after=1))
        engine.add_rule(ThresholdRule("b", "gb", limit=100.0, trigger_after=1))
        ga, gb = obs.registry.gauge("ga"), obs.registry.gauge("gb")
        tick(clock, engine)
        for value in (1.0, 2.0):
            ga.set(value)
            gb.set(-value)
            tick(clock, engine)
        ga.set(200.0)
        gb.set(300.0)
        assert len(tick(clock, engine)) == 2
        exemplars = {
            r["rule"]: r["exemplar"] for r in obs.events.tail(kind="anomaly_detected")
        }
        assert exemplars == {
            "a": [1.0, 2.0, 200.0],
            "b": [-1.0, -2.0, 300.0],
        }

    def test_exemplar_skips_polls_where_the_series_is_absent(self, stack):
        clock, obs, engine = stack
        engine.add_rule(
            ThresholdRule("slow", "op.seconds.p99", limit=1.0, trigger_after=1)
        )
        latency = obs.registry.histogram("op.seconds")
        tick(clock, engine)
        latency.observe(0.003)
        tick(clock, engine)
        tick(clock, engine)  # quiet interval: no p99, nothing appended
        latency.observe(5.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.DETECTED
        [detected] = obs.events.tail(kind="anomaly_detected")
        assert len(detected["exemplar"]) == 2
        assert detected["exemplar"][0] < 1.0 < detected["exemplar"][1]

    def test_raising_action_is_journalled_and_the_cycle_goes_on(self, stack):
        clock, obs, engine = stack

        def page():
            raise ConnectionError("pager down")

        def unpage():
            raise ConnectionError("still down")

        pager = CallbackAction("pager", on_engage=page)
        recording = RecordingAction()
        flaky = CallbackAction("flaky", on_engage=lambda: None, on_revert=unpage)
        engine.add_rule(
            ThresholdRule("r", "g", limit=5.0, trigger_after=1, clear_after=1),
            actions=[pager, recording, flaky],
        )
        gauge = obs.registry.gauge("g")
        tick(clock, engine)
        gauge.set(10.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.DETECTED
        engages = obs.events.tail(kind="anomaly_action")
        assert [(r["action"], r.get("error")) for r in engages] == [
            ("pager", "ConnectionError: pager down"),
            ("recording", None),
            ("flaky", None),
        ]
        assert not pager.engaged and pager.applications == 0
        assert recording.engaged and flaky.engaged
        [detected] = obs.events.tail(kind="anomaly_detected")
        assert detected["actions"] == ["recording", "flaky"]
        assert engine.active()[0]["actions"] == ["recording", "flaky"]
        assert obs.registry.counter("obs.anomaly.actions").value == 2

        gauge.set(0.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.CLEARED
        reverts = obs.events.tail(kind="anomaly_action")[3:]
        assert [r["direction"] for r in reverts] == ["revert"] * 3
        # The pager's engage never applied, so its revert restores nothing.
        assert reverts[0]["restored"] is False
        assert reverts[0]["reason"] == "not engaged"
        assert reverts[1]["restored"] is True and recording.log == ["apply", "restore"]
        assert reverts[2]["error"] == "ConnectionError: still down"
        assert len(obs.events.tail(kind="anomaly_cleared")) == 1
        assert engine.active() == []

    def test_action_detail_cannot_override_engine_fields(self, stack):
        clock, obs, engine = stack
        spoof = {
            "rule": "spoofed",
            "action": "spoofed",
            "direction": "sideways",
            "kind": "spoofed",
            "mode": "on",
        }
        action = CallbackAction("cb", on_engage=lambda: dict(spoof))
        engine.add_rule(
            ThresholdRule("r", "g", limit=5.0, trigger_after=1), actions=[action]
        )
        gauge = obs.registry.gauge("g")
        tick(clock, engine)
        gauge.set(10.0)
        [event] = tick(clock, engine)
        assert event.kind is RuleEventKind.DETECTED
        [record] = obs.events.tail(kind="anomaly_action")
        assert record["kind"] == "anomaly_action"
        assert (record["rule"], record["action"], record["direction"]) == (
            "r",
            "cb",
            "engage",
        )
        assert record["mode"] == "on" and record["applied"] is True
        [detected] = obs.events.tail(kind="anomaly_detected")
        assert detected["actions"] == ["cb"]

    def test_raising_action_leaves_the_polling_thread_running(self, stack):
        _clock, obs, engine = stack
        engine.poll_interval = 0.001
        later = threading.Event()

        def page():
            raise ConnectionError("pager down")

        engine.add_rule(
            ThresholdRule("now", "g", limit=5.0, trigger_after=1),
            actions=[CallbackAction("pager", on_engage=page)],
        )
        engine.add_rule(
            ThresholdRule("later", "g", limit=5.0, trigger_after=3),
            actions=[CallbackAction("mark", on_engage=later.set)],
        )
        obs.registry.gauge("g").set(10.0)
        with engine:
            # "later" fires two polls after the pager raised.
            assert later.wait(10.0)
            assert engine.running
        assert [r["rule"] for r in obs.events.tail(kind="anomaly_detected")] == [
            "now",
            "later",
        ]

    def test_three_anomaly_classes_detect_and_clear_on_one_engine(self, stack):
        """Latency step (tripping a circuit), error burst and slow leak each
        detect and clear in turn, on the virtual clock."""
        clock, obs, engine = stack
        latency = obs.registry.histogram("store.get.seconds")
        requests = obs.registry.counter("requests")
        errors = obs.registry.counter("errors")
        leak = obs.registry.gauge("leak.bytes")
        breaker = CircuitBreaker(name="guard", obs=obs, clock=clock)
        engine.add_rule(
            ZScoreRule("latency_p99", "store.get.seconds.p99", zmax=4.0,
                       min_observations=5, trigger_after=2, clear_after=2),
            actions=[TripCircuitAction(breaker)],
        )
        engine.add_rule(
            ErrorRatioRule("error_burst", "errors.delta", "requests.delta",
                           ratio=0.5, trigger_after=1, clear_after=2)
        )
        engine.add_rule(
            RateOfChangeRule("slow_leak", "leak.bytes", per_second=100.0,
                             trigger_after=3, clear_after=3)
        )
        transitions = []

        def run(seconds, *, latency_s=0.001, error_ops=0, leak_step=0.0):
            for _ in range(seconds):
                requests.inc(50)
                errors.inc(error_ops)
                leak.inc(leak_step)
                for _ in range(50):
                    latency.observe(latency_s)
                for event in tick(clock, engine):
                    transitions.append((event.kind.value, event.rule))
                    if event.rule == "latency_p99":
                        transitions.append(("circuit", breaker.state.value))

        run(12)
        assert transitions == []
        run(4, latency_s=0.05)
        run(6)
        run(2, error_ops=30)
        run(4)
        run(5, leak_step=500.0)
        run(5)
        assert transitions == [
            ("detected", "latency_p99"), ("circuit", "open"),
            ("cleared", "latency_p99"), ("circuit", "closed"),
            ("detected", "error_burst"), ("cleared", "error_burst"),
            ("detected", "slow_leak"), ("cleared", "slow_leak"),
        ]
        assert obs.registry.counter("obs.anomaly.detected").value == 3
        assert obs.registry.counter("obs.anomaly.cleared").value == 3
        assert engine.active() == []

    def test_background_thread_lifecycle(self, stack):
        _clock, _obs, engine = stack
        engine.poll_interval = 60.0  # never actually fires during the test
        assert not engine.running
        with engine:
            assert engine.running
            engine.start()  # idempotent
        assert not engine.running
        engine.stop()  # idempotent


class TestDefaultRules:
    def test_template_shape(self):
        rules = default_rules()
        assert [rule.name for rule in rules] == [
            "latency_p99", "error_burst", "slow_leak",
        ]
        assert rules[0].series == "client.get.seconds.p99"
        assert rules[1].total_series == "client.store_reads.delta"

    def test_overrides(self):
        rules = default_rules(latency_series="x.p50", leak_per_second=9.0)
        assert rules[0].series == "x.p50"
        assert rules[2].per_second == 9.0
