#!/usr/bin/env python
"""Cluster serving contract check (``make check-cluster``).

Guards the headline promises of ``docs/cluster.md`` over real sockets:

* a member serves only the keys it owns: a write for any other key, sent
  on a plain connection, is refused with ``-MOVED`` naming the owner and
  stores nothing anywhere; writes through the cluster client land only on
  their owners and read back -- keys that are not UTF-8 included;
* the cluster client hash-routes every operation straight to the owning
  shard -- zero redirects while the topology is stable;
* adding a shard **mid-traffic** loses nothing: every key written before
  and during the membership change stays readable, key movement stays
  bounded near K/N, and the client converges on the new epoch without a
  single reconnect;
* removing a shard drains its keys to the survivors and the client routes
  around the dead member, again without reconnecting.

Everything runs in-process against ``InMemoryStore`` shards -- no
timing-based waits, zero real sleeps.  Exit status 0 when the contract
holds; 1 otherwise.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterCoordinator, moved_pairs  # noqa: E402
from repro.kv import InMemoryStore  # noqa: E402
from repro.net import CacheClient, parse_moved  # noqa: E402
from repro.obs import EventLog, Observability  # noqa: E402

KEYSPACE = 200

#: Keys another client wrote as bytes that are not UTF-8, in the
#: surrogate-escaped form ``repro.kv.interface.decode_key`` gives them.
BINARY_KEYS = [raw.decode("utf-8", "surrogateescape")
               for raw in (b"\xff-k", b"\xfe\xfd", b"bin\x80ary", b"\xc3(", b"\x80" * 8)]


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)


def _boot(obs: Observability | None = None) -> ClusterCoordinator:
    coordinator = ClusterCoordinator(obs=obs)
    for index in range(3):
        coordinator.add_shard(f"shard-{index}", InMemoryStore())
    return coordinator


def check_non_owner_refuses_and_writes_land_on_owners() -> list[str]:
    """A non-owner refuses with -MOVED and stores nothing; writes through
    the cluster client land only on their owners and read back.  The key
    set includes keys that are not UTF-8."""
    errors: list[str] = []
    coordinator = _boot()
    try:
        topology = coordinator.topology
        keys = [f"key-{i}" for i in range(KEYSPACE)] + BINARY_KEYS
        foreign = [key for key in keys if topology.owner(key) != "shard-0"]
        with CacheClient(*topology.address("shard-0")) as plain:
            wrong = []
            for key in foreign:
                moved = parse_moved(str(plain.call(["SET", key, "v"])))
                if moved is None or moved.shard != topology.owner(key):
                    wrong.append(key)
            moved = parse_moved(str(plain.call(
                ["MSET", *[part for key in keys for part in (key, "v")]])))
        _expect(errors, not wrong,
                f"{len(wrong)} of {len(foreign)} foreign SETs not redirected "
                f"to their owner (e.g. {wrong[:3]})")
        _expect(errors, moved is not None,
                "a cross-shard MSET to a non-owner was not redirected")
        stored = sum(coordinator.store(name).size() for name in topology.members)
        _expect(errors, stored == 0,
                f"{stored} keys stored after every write was refused")

        with coordinator.client() as client:
            client.put_many({key: {"n": i} for i, key in enumerate(keys)})
        misplaced = 0
        total = 0
        for name in topology.members:
            for key in coordinator.store(name).keys():
                total += 1
                if topology.owner(key) != name:
                    misplaced += 1
        _expect(errors, total == len(keys),
                f"{total} keys stored for {len(keys)} written")
        _expect(errors, misplaced == 0,
                f"{misplaced} keys on non-owner shards after client writes")
        spread = [coordinator.store(name).size() for name in topology.members]
        _expect(errors, all(count > 0 for count in spread),
                f"keys did not spread across every shard: {spread}")
        with coordinator.client() as client:
            readback = client.get_many(keys)
        _expect(errors, readback == {key: {"n": i} for i, key in enumerate(keys)},
                f"{len(keys) - len(readback)} of {len(keys)} keys did not read back")
    finally:
        coordinator.stop()
    return errors


def check_routes_without_redirects() -> list[str]:
    """A topology-fresh client never sees MOVED and reads everything."""
    errors: list[str] = []
    coordinator = _boot()
    try:
        expected = {f"key-{i}": {"n": i} for i in range(KEYSPACE)}
        with coordinator.client() as seeder:
            seeder.put_many(expected)
        with coordinator.client() as client:
            readback = {key: client.get(key) for key in expected}
            _expect(errors, readback == expected, "read-back mismatch")
            _expect(errors, client.redirects == 0,
                    f"{client.redirects} redirects on a stable topology")
            _expect(errors, client.connection_reconnects() == 0,
                    "client reconnected during steady-state reads")
    finally:
        coordinator.stop()
    return errors


def check_live_shard_add() -> list[str]:
    """Add a shard mid-traffic: zero lost keys, bounded movement, epoch
    convergence without reconnecting."""
    errors: list[str] = []
    obs = Observability(events=EventLog())
    coordinator = _boot(obs)
    try:
        expected = {f"key-{i}": {"n": i} for i in range(KEYSPACE)}
        with coordinator.client() as client:
            client.put_many(expected)
            epoch_before = client.epoch

            stop = threading.Event()
            live: dict[str, int] = {}
            failures: list[str] = []

            def writer() -> None:
                index = 0
                try:
                    with coordinator.client() as own:
                        while not stop.is_set():
                            own.put(f"live-{index}", index)
                            live[f"live-{index}"] = index
                            index += 1
                except Exception as exc:  # noqa: BLE001 - surfaced as a failure
                    failures.append(f"writer died mid-rebalance: {exc!r}")

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                while len(live) < 10:  # guarantee overlap, no sleeps
                    pass
                report = coordinator.add_shard("shard-3", InMemoryStore())
            finally:
                stop.set()
                thread.join()
            errors.extend(failures)

            expected.update(live)
            readback = client.get_many(list(expected))
            lost = [key for key, value in expected.items()
                    if readback.get(key) != value]
            _expect(errors, not lost,
                    f"{len(lost)} of {len(expected)} keys lost after the "
                    f"live add (e.g. {lost[:3]})")

            # Movement economics: only survivor->added pairs, bounded near K/4.
            allowed = {f"{src}->{dst}" for src, dst in
                       moved_pairs(*_epochs(coordinator, report))}
            _expect(errors, set(report.pairs) <= allowed,
                    f"keys moved along unexpected pairs: {report.pairs}")
            ceiling = int(len(expected) * 0.45) + 1
            _expect(errors, 0 < report.moved <= ceiling,
                    f"moved {report.moved} keys; expected within (0, {ceiling}]")

            _expect(errors, client.epoch == epoch_before + 1,
                    f"client stuck at epoch {client.epoch}")
            _expect(errors, client.connection_reconnects() == 0,
                    f"convergence cost {client.connection_reconnects()} "
                    f"reconnects; must be zero")
        kinds = [record["kind"] for record in obs.events.tail()]
        _expect(errors, "topology_changed" in kinds,
                "no topology_changed event emitted")
        _expect(errors, "rebalance" in kinds, "no rebalance event emitted")
    finally:
        coordinator.stop()
    return errors


def _epochs(coordinator, report):
    """Reconstruct the old/new topologies a report describes (for pair
    validation: the new topology is current; the old one is it minus the
    member the report added)."""
    new = coordinator.topology
    added = {name for name in new.members
             if any(pair.endswith(f"->{name}") for pair in report.pairs)}
    old = new
    for name in added:
        old = old.without_shard(name)
    return old, new


def check_live_shard_remove() -> list[str]:
    """Remove a shard: its keys drain to survivors and the client routes
    around the dead member without reconnecting survivors."""
    errors: list[str] = []
    coordinator = _boot()
    try:
        expected = {f"key-{i}": {"n": i} for i in range(KEYSPACE)}
        with coordinator.client() as client:
            client.put_many(expected)
            held_before = coordinator.store("shard-1").size()
            report = coordinator.remove_shard("shard-1")
            _expect(errors, report.moved >= held_before,
                    f"only {report.moved} keys drained from a shard "
                    f"holding {held_before}")
            _expect(
                errors,
                all(pair.startswith("shard-1->") for pair in report.pairs),
                f"keys moved between survivors: {report.pairs}",
            )
            readback = client.get_many(list(expected))
            lost = [key for key, value in expected.items()
                    if readback.get(key) != value]
            _expect(errors, not lost,
                    f"{len(lost)} keys lost after removing a shard")
            _expect(errors, client.epoch == coordinator.epoch,
                    f"client epoch {client.epoch} != cluster {coordinator.epoch}")
        survivors = [coordinator.store(name).size()
                     for name in coordinator.shards]
        _expect(errors, sum(survivors) == KEYSPACE,
                f"survivors hold {sum(survivors)} keys, wrote {KEYSPACE}")
    finally:
        coordinator.stop()
    return errors


CHECKS = [
    ("a non-owner refuses; writes land on their owners",
     check_non_owner_refuses_and_writes_land_on_owners),
    ("the client routes with zero redirects", check_routes_without_redirects),
    ("live shard add loses nothing", check_live_shard_add),
    ("live shard remove drains cleanly", check_live_shard_remove),
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
        print("\ncluster contract violated -- see docs/cluster.md")
        return 1
    print("\ncluster contract holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
