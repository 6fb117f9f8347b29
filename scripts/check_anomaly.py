#!/usr/bin/env python
"""Anomaly-detection contract check (``make check-anomaly``).

Guards the contract of ``docs/anomaly.md`` with the uview-style validation
pattern: inject *known* anomalies through the chaos plane
(:mod:`repro.kv.chaos`) and assert the detection plane catches exactly
them --

* a clean baseline run stays quiet (**zero false positives**);
* a latency step, an error burst, and a slow leak are **all detected**
  and **all cleared** once the fault is lifted;
* a preemptive circuit-trip action **round-trips**: the breaker opens the
  moment the latency anomaly is detected and closes again when it clears.

Everything runs on an injected virtual clock (the chaos stores' ``sleep``
is the clock's ``advance``), so the whole gate completes with zero real
sleeps.  Exit status 0 when every scenario holds; 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import StoreConnectionError  # noqa: E402
from repro.kv import FlakyStore, InMemoryStore  # noqa: E402
from repro.kv.circuit import CircuitBreaker, CircuitState  # noqa: E402
from repro.net.latency import VirtualClock  # noqa: E402
from repro.obs import EventLog, Observability  # noqa: E402
from repro.obs.anomaly import (  # noqa: E402
    AnomalyEngine,
    ErrorRatioRule,
    RateOfChangeRule,
    TripCircuitAction,
    ZScoreRule,
)


class _Stack:
    """A chaos-wrapped store workload feeding a fresh anomaly engine.

    One poll = one virtual second of workload: *ops* reads through the
    :class:`FlakyStore` (injected latency runs on the virtual clock, so
    per-op latency lands in the ``store.get.seconds`` histogram exactly as
    injected), then one engine poll.
    """

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.obs = Observability(events=EventLog(clock=self.clock.time))
        self.backend = InMemoryStore()
        self.backend.put("k", "v")
        self.flaky = FlakyStore(
            self.backend, failure_rate=0.0, latency=0.001, sleep=self.clock.advance
        )
        self.latency = self.obs.registry.histogram("store.get.seconds")
        self.requests = self.obs.registry.counter("requests")
        self.errors = self.obs.registry.counter("errors")
        self.leak = self.obs.registry.gauge("leak.bytes")
        self.engine = AnomalyEngine(self.obs, clock=self.clock.time)

    def step(self, *, ops: int = 25, leak_step: float = 0.0) -> list:
        start = self.clock.time()
        for _ in range(ops):
            begin = self.clock.time()
            try:
                self.flaky.get("k")
            except StoreConnectionError:
                self.errors.inc()
            self.requests.inc()
            self.latency.observe(self.clock.time() - begin)
        if leak_step:
            self.leak.inc(leak_step)
        # Pad the poll interval to one full virtual second.
        if self.clock.time() - start < 1.0:
            self.clock.advance(1.0 - (self.clock.time() - start))
        return self.engine.poll(self.clock.time())

    def run(self, polls: int, **step_options) -> list:
        transitions = []
        for _ in range(polls):
            transitions.extend(self.step(**step_options))
        return transitions

    def anomaly_events(self, kind: str = "anomaly_detected") -> list[dict]:
        return self.obs.events.tail(kind=kind)


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _latency_rule() -> ZScoreRule:
    return ZScoreRule(
        "latency_step",
        "store.get.seconds.p99",
        zmax=4.0,
        min_observations=5,
        trigger_after=2,
        clear_after=3,
        # p99 is bucket-quantized; floor the std at one bucket width so a
        # one-bucket wobble never reads as an anomaly (or blocks a clear).
        min_std=2e-3,
    )


def check_clean_baseline() -> list[str]:
    """A steady workload with every rule armed must raise nothing."""
    errors: list[str] = []
    stack = _Stack()
    stack.engine.add_rule(_latency_rule())
    stack.engine.add_rule(
        ErrorRatioRule("error_burst", "errors.delta", "requests.delta", ratio=0.3)
    )
    stack.engine.add_rule(
        RateOfChangeRule("slow_leak", "leak.bytes", per_second=100.0)
    )
    transitions = stack.run(40)
    _expect(errors, transitions == [], f"clean run produced transitions: {transitions}")
    detected = stack.anomaly_events()
    _expect(errors, detected == [], f"clean run journalled {len(detected)} false positives")
    polls = stack.obs.registry.counter("obs.anomaly.polls").value
    _expect(errors, polls == 40, f"obs.anomaly.polls == {polls}, want 40")
    return errors


def check_latency_step_and_circuit() -> list[str]:
    """A chaos latency step must be detected, preemptively trip the
    breaker, and the whole loop must revert once latency recovers."""
    errors: list[str] = []
    stack = _Stack()
    breaker = CircuitBreaker(name="guard", clock=stack.clock.time, obs=stack.obs)
    stack.engine.add_rule(_latency_rule(), actions=[TripCircuitAction(breaker)])

    stack.run(12)  # baseline at 1 ms
    _expect(errors, breaker.state is CircuitState.CLOSED, "breaker open before any fault")

    stack.flaky.set_latency(0.05)  # the injected step: 1 ms -> 50 ms
    detections = [t for t in stack.run(6) if t.kind.value == "detected"]
    _expect(errors, len(detections) == 1, f"latency step detections == {len(detections)}, want 1")
    _expect(
        errors,
        breaker.state is CircuitState.OPEN,
        "detection did not preemptively trip the breaker",
    )
    records = stack.anomaly_events()
    _expect(errors, len(records) == 1, "anomaly_detected not journalled exactly once")
    if records:
        _expect(
            errors,
            records[0].get("exemplar"),
            "anomaly_detected record carries no series exemplar",
        )
        _expect(
            errors,
            "trip_circuit" in records[0].get("actions", []),
            "anomaly_detected record does not name the engaged action",
        )

    stack.flaky.set_latency(0.001)  # recovery
    clearances = [t for t in stack.run(10) if t.kind.value == "cleared"]
    _expect(errors, len(clearances) == 1, f"clearances == {len(clearances)}, want 1")
    _expect(
        errors,
        breaker.state is CircuitState.CLOSED,
        "anomaly_cleared did not revert the circuit trip",
    )
    cleared = stack.anomaly_events("anomaly_cleared")
    _expect(errors, len(cleared) == 1, "anomaly_cleared not journalled exactly once")
    action_events = stack.anomaly_events("anomaly_action")
    directions = [record.get("direction") for record in action_events]
    _expect(
        errors,
        directions == ["engage", "revert"],
        f"action journal directions == {directions}, want ['engage', 'revert']",
    )
    return errors


def check_error_burst() -> list[str]:
    """A chaos error burst must be caught by the error-ratio rule and
    clear once the burst is over."""
    errors: list[str] = []
    stack = _Stack()
    stack.engine.add_rule(
        ErrorRatioRule(
            "error_burst",
            "errors.delta",
            "requests.delta",
            ratio=0.3,
            min_total=10.0,
            trigger_after=1,
            clear_after=2,
        )
    )
    stack.run(8)  # clean baseline
    stack.flaky.fail_next(40)  # burst: the next 40 ops all fail
    detections = [t for t in stack.run(3) if t.kind.value == "detected"]
    _expect(errors, len(detections) == 1, f"error burst detections == {len(detections)}, want 1")
    clearances = [t for t in stack.run(6) if t.kind.value == "cleared"]
    _expect(errors, len(clearances) == 1, f"error burst clearances == {len(clearances)}, want 1")
    injected = stack.flaky.injected_failures
    _expect(errors, injected == 40, f"chaos injected {injected} failures, want 40")
    return errors


def check_slow_leak() -> list[str]:
    """A steadily-rising gauge must be caught by the rate-of-change rule
    after its debounce, and a bounded gauge must not."""
    errors: list[str] = []
    stack = _Stack()
    stack.engine.add_rule(
        RateOfChangeRule(
            "slow_leak", "leak.bytes", per_second=100.0, trigger_after=3, clear_after=3
        )
    )
    stack.run(6)
    # One-poll blip under the debounce: must NOT detect.
    stack.step(leak_step=500.0)
    blip = stack.run(4)
    _expect(errors, blip == [], f"single-poll blip raised: {blip}")
    # Sustained leak: +500 bytes per virtual second for 6 polls.
    detections = [t for t in stack.run(6, leak_step=500.0) if t.kind.value == "detected"]
    _expect(errors, len(detections) == 1, f"slow leak detections == {len(detections)}, want 1")
    clearances = [t for t in stack.run(6) if t.kind.value == "cleared"]
    _expect(errors, len(clearances) == 1, f"slow leak clearances == {len(clearances)}, want 1")
    return errors


CHECKS = [
    ("clean baseline (no false positives)", check_clean_baseline),
    ("latency step + preemptive circuit trip", check_latency_step_and_circuit),
    ("error burst", check_error_burst),
    ("slow leak", check_slow_leak),
]


def main() -> int:
    failed = False
    for label, check in CHECKS:
        problems = check()
        if problems:
            failed = True
            print(f"FAIL  {label}")
            for problem in problems:
                print(f"      - {problem}")
        else:
            print(f"ok    {label}")
    if failed:
        print("\nanomaly-detection contract violated -- see docs/anomaly.md")
        return 1
    print("\nanomaly-detection contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
