#!/usr/bin/env python
"""Quorum-replication contract check (``make check-quorum``).

Guards the quorum contract of ``docs/resilience.md``: an R+W>N
:class:`repro.kv.quorum.QuorumReplicatedStore` must

* converge all members after a chaos-injected partition heals via Merkle
  anti-entropy **without a full-keyspace scan** -- verified by the scan
  accounting (``keys_scanned`` bounded well below the keyspace,
  ``full_scans == 0``);
* keep serving reads at R=2/N=3 with one member down;
* fail writes **fast** with a typed :class:`repro.errors.QuorumWriteError`
  when fewer than W members are reachable (and reads with
  :class:`repro.errors.QuorumReadError` below R);
* respect ambient deadline budgets and feed the anomaly engine
  (``kv.quorum.degraded`` can preemptively enable hedging).

Every scenario drives the real store through
:class:`repro.kv.chaos.PartitionedStore` on virtual clocks -- zero real
sleeps.  Exit status 0 when every scenario holds; 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import (  # noqa: E402
    DeadlineExceededError,
    KeyNotFoundError,
    QuorumReadError,
    QuorumWriteError,
)
from repro.kv import (  # noqa: E402
    InMemoryStore,
    PartitionedStore,
    QuorumReplicatedStore,
    ReplicatedStore,
    deadline_scope,
)
from repro.net.latency import VirtualClock  # noqa: E402
from repro.obs import EventLog, Observability  # noqa: E402
from repro.obs.anomaly import (  # noqa: E402
    AnomalyEngine,
    EnableHedgingAction,
    ThresholdRule,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _group(
    n: int = 3,
    *,
    r: int = 2,
    w: int = 2,
    obs: Observability | None = None,
    clock=None,
) -> tuple[QuorumReplicatedStore, list[PartitionedStore]]:
    members = [
        PartitionedStore(
            InMemoryStore(),
            name=f"member-{index}",
            **({"clock": clock} if clock is not None else {}),
        )
        for index in range(n)
    ]
    group = QuorumReplicatedStore(
        members, read_quorum=r, write_quorum=w, name="check", obs=obs
    )
    return group, members


def check_partition_heal_convergence() -> list[str]:
    """Partition -> divergent writes and deletes -> heal -> one Merkle
    round converges every member, scanning only the divergent keys."""
    errors: list[str] = []
    group, members = _group()
    keyspace = 60
    for index in range(keyspace):
        group.put(f"user-{index:02d}", {"revision": 0})
    group.drain()
    _expect(errors, group.status()["in_sync"], "members diverged with no faults")

    members[2].partition()
    updated = [f"user-{index:02d}" for index in range(6)]
    deleted = [f"user-{index:02d}" for index in (10, 11)]
    for key in updated:
        group.put(key, {"revision": 1})
    for key in deleted:
        group.delete(key)
    group.drain()
    _expect(errors, not group.status()["in_sync"], "partitioned member not divergent")
    _expect(
        errors,
        group.write_partial_failures >= len(updated) + len(deleted),
        "sloppy write failures not counted during the partition",
    )
    _expect(
        errors,
        group.degraded_ops >= len(updated) + len(deleted),
        f"degraded_ops = {group.degraded_ops}: writes with one member down "
        f"were not acknowledged degraded",
    )

    members[2].heal()
    report = group.anti_entropy_round()
    _expect(errors, report.converged, f"round did not converge: {report}")
    _expect(errors, group.status()["in_sync"], "tree roots still diverge after round")
    divergent = len(updated) + len(deleted)
    _expect(
        errors,
        divergent <= report.keys_scanned < keyspace,
        f"scan accounting off: {report.keys_scanned} keys scanned for "
        f"{divergent} divergent keys over a {keyspace}-key keyspace",
    )
    _expect(
        errors,
        group.full_scans == 0,
        f"anti-entropy fell back to {group.full_scans} full member scans",
    )
    _expect(
        errors,
        report.keys_repaired >= divergent,
        f"only {report.keys_repaired} repairs for {divergent} divergent keys",
    )

    # The healed member holds byte-identical envelopes (values and
    # tombstones both propagated).
    for key in updated + deleted:
        _expect(
            errors,
            members[2].get(key) == members[0].get(key),
            f"member-2 copy of {key!r} still differs after convergence",
        )
    for key in deleted:
        try:
            group.get(key)
            errors.append(f"deleted key {key!r} still readable after convergence")
        except KeyNotFoundError:
            pass

    # Idempotence: a second round finds nothing to do (and proves the
    # trees, not a scan, are doing the work: one root comparison per pair).
    second = group.anti_entropy_round()
    _expect(
        errors,
        second.buckets_divergent == 0 and second.keys_scanned == 0,
        f"second round was not a no-op: {second}",
    )
    group.close()
    return errors


def check_read_survives_member_down() -> list[str]:
    """At R=2/N=3 a single severed member must not affect reads."""
    errors: list[str] = []
    group, members = _group()
    for index in range(10):
        group.put(f"key-{index}", index)
    group.drain()
    members[0].partition()
    for index in range(10):
        value = group.get(f"key-{index}")
        _expect(errors, value == index, f"read {index} returned {value!r}")
    # A confirmed miss is still a miss (typed), not a quorum failure.
    try:
        group.get("absent")
        errors.append("missing key did not raise")
    except KeyNotFoundError:
        pass
    except QuorumReadError:
        errors.append("missing key raised QuorumReadError instead of KeyNotFound")
    group.drain()
    _expect(errors, group.failed_fast == 0, "healthy-quorum reads failed fast")
    group.close()
    return errors


def check_write_fails_fast_below_quorum() -> list[str]:
    """With 2 of 3 members unreachable (W=2), writes and reads must fail
    fast with typed quorum errors instead of hanging."""
    errors: list[str] = []
    registry = MetricsRegistry()
    obs = Observability(registry=registry)
    group, members = _group(obs=obs)
    group.put("k", "v")
    group.drain()
    members[1].partition()
    members[2].partition()
    try:
        group.put("k", "v2")
        errors.append("write below W did not raise")
    except QuorumWriteError as exc:
        _expect(errors, exc.needed == 2, f"QuorumWriteError.needed = {exc.needed}")
        _expect(errors, exc.failures == 2, f"QuorumWriteError.failures = {exc.failures}")
    try:
        group.get("k")
        errors.append("read below R did not raise")
    except QuorumReadError:
        pass
    group.drain()
    _expect(errors, group.failed_fast == 2, f"failed_fast = {group.failed_fast}")
    _expect(
        errors,
        registry.counter("kv.quorum.failed_fast").value == 2,
        "kv.quorum.failed_fast metric not emitted",
    )
    # The sloppy ack on the reachable member survives: once the partition
    # heals, anti-entropy propagates it rather than rolling it back.
    members[1].heal()
    members[2].heal()
    group.anti_entropy_round()
    _expect(errors, group.status()["in_sync"], "members still diverge after heal")
    _expect(
        errors,
        group.get("k") == "v2",
        "surviving partial write was not propagated after heal",
    )
    group.drain()
    group.close()
    return errors


def check_deadline_bounds_quorum_wait() -> list[str]:
    """An expired ambient deadline must abort the quorum wait with the
    typed error and the ``kv.deadline.expired`` metric."""
    errors: list[str] = []
    registry = MetricsRegistry()
    obs = Observability(registry=registry)
    clock = VirtualClock()
    group, members = _group(obs=obs)
    group.put("k", "v")
    group.drain()
    members[1].partition()
    members[2].partition()
    with deadline_scope(0.05, clock=clock.time):
        clock.advance(0.1)  # budget already spent before the fan-out waits
        for label, op in (
            ("read", lambda: group.get("k")),
            ("write", lambda: group.put("k", "v2")),
        ):
            try:
                op()
                errors.append(f"{label} past the deadline did not raise")
            except DeadlineExceededError:
                pass
            except (QuorumReadError, QuorumWriteError):
                errors.append(f"{label} raised a quorum error, not deadline")
    group.drain()
    _expect(
        errors,
        registry.counter("kv.deadline.expired").value == 2,
        "kv.deadline.expired metric not emitted",
    )
    group.close()
    return errors


def check_anomaly_trips_hedging() -> list[str]:
    """A ``kv.quorum.degraded`` burst must drive the anomaly engine's
    detection, which preemptively enables hedging on a companion
    replicated store -- and revert it once the group heals."""
    errors: list[str] = []
    registry = MetricsRegistry()
    obs = Observability(registry=registry, events=EventLog())
    clock = VirtualClock()
    group, members = _group(obs=obs)
    companion = ReplicatedStore(
        InMemoryStore(), [InMemoryStore()], name="companion", hedge_delay=None
    )
    engine = AnomalyEngine(obs, clock=clock.time)
    engine.add_rule(
        ThresholdRule(
            "quorum_degraded",
            "kv.quorum.degraded.delta",
            limit=3.0,
            trigger_after=1,
            clear_after=2,
        ),
        actions=[EnableHedgingAction(companion, hedge_delay=0.0)],
    )

    for index in range(4):  # healthy baseline
        group.put(f"key-{index}", index)
    group.drain()
    clock.advance(1.0)
    engine.poll()
    _expect(errors, companion.hedge_delay is None, "hedging engaged at baseline")

    members[2].partition()
    for index in range(4):  # every write now succeeds degraded
        group.put(f"key-{index}", index + 100)
    group.drain()
    clock.advance(1.0)
    events = engine.poll()
    _expect(
        errors,
        any(event.kind.name == "DETECTED" for event in events),
        "degraded-write burst not detected",
    )
    _expect(
        errors,
        companion.hedge_delay == 0.0,
        "detection did not enable hedging on the companion store",
    )

    members[2].heal()
    group.anti_entropy_round()
    for _ in range(3):  # calm polls past clear_after
        clock.advance(1.0)
        engine.poll()
    _expect(
        errors,
        companion.hedge_delay is None,
        "hedging not reverted after the anomaly cleared",
    )
    group.close()
    companion.close()
    return errors


CHECKS = [
    ("partition-heal convergence", check_partition_heal_convergence),
    ("read survives one member down", check_read_survives_member_down),
    ("write fails fast below quorum", check_write_fails_fast_below_quorum),
    ("deadline bounds quorum wait", check_deadline_bounds_quorum_wait),
    ("anomaly trips hedging", check_anomaly_trips_hedging),
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
        print("\nquorum contract violated -- see docs/resilience.md")
        return 1
    print("\nquorum contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
