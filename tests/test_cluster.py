"""repro.cluster: versioned topology, ring economics, wire routing, and
the hash-routing smart client.

The property tests pin the *economics* consistent hashing promises --
roughly K/N keys move on a membership change, and they move only along
the pairs :func:`moved_pairs` names -- the wire tests pin the one routing
contract (a member serves the keys it owns and answers ``-MOVED`` for the
rest, on both engines), and the live tests pin the headline behaviour: a
client survives shard add/remove mid-session without a single reconnect.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterCoordinator,
    ClusterStoreClient,
    ClusterTopology,
    ShardInfo,
    moved_pairs,
)
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    ProtocolError,
    StoreConnectionError,
)
from repro.kv import InMemoryStore
from repro.net import CacheClient, ClusterAwareClient, parse_moved
from repro.net.protocol import WireError
from repro.obs import EventLog, Observability


def topo(*names: str, epoch: int = 1, replicas: int = 64) -> ClusterTopology:
    return ClusterTopology(
        [ShardInfo(name, "127.0.0.1", 7000 + i) for i, name in enumerate(names)],
        epoch=epoch,
        replicas=replicas,
    )


def boot(engine: str = "threaded") -> ClusterCoordinator:
    coordinator = ClusterCoordinator(engine=engine)
    for index in range(3):
        coordinator.add_shard(f"shard-{index}", InMemoryStore())
    return coordinator


@pytest.fixture()
def cluster():
    coordinator = boot()
    yield coordinator
    coordinator.stop()


@pytest.fixture(params=["threaded", "async"])
def engine_cluster(request):
    coordinator = boot(request.param)
    yield coordinator
    coordinator.stop()


class TestTopology:
    def test_members_sorted_and_epoch(self):
        topology = topo("b", "a", "c", epoch=5)
        assert topology.members == ("a", "b", "c")
        assert topology.epoch == 5
        assert len(topology) == 3
        assert "a" in topology and "z" not in topology

    def test_owner_is_deterministic_and_a_member(self):
        topology = topo("a", "b", "c")
        for i in range(50):
            key = f"key-{i}"
            assert topology.owner(key) == topology.owner(key)
            assert topology.owner(key) in topology.members

    def test_with_shard_bumps_epoch(self):
        topology = topo("a", "b", epoch=3)
        grown = topology.with_shard("c", "127.0.0.1", 7999)
        assert grown.epoch == 4
        assert grown.members == ("a", "b", "c")
        assert topology.members == ("a", "b")  # original untouched

    def test_with_shard_refuses_duplicates(self):
        with pytest.raises(ConfigurationError):
            topo("a", "b").with_shard("a", "127.0.0.1", 7999)

    def test_without_shard_bumps_epoch(self):
        topology = topo("a", "b", "c", epoch=3)
        shrunk = topology.without_shard("b")
        assert shrunk.epoch == 4
        assert shrunk.members == ("a", "c")

    def test_without_shard_refuses_unknown_and_last(self):
        with pytest.raises(ConfigurationError):
            topo("a", "b").without_shard("z")
        with pytest.raises(ConfigurationError):
            topo("only").without_shard("only")

    def test_codec_roundtrip(self):
        topology = topo("a", "b", "c", epoch=7, replicas=32)
        decoded = ClusterTopology.decode(topology.encode())
        assert decoded == topology
        assert decoded.epoch == 7 and decoded.replicas == 32
        assert decoded.address("b") == topology.address("b")
        for i in range(30):
            assert decoded.owner(f"k{i}") == topology.owner(f"k{i}")

    @pytest.mark.parametrize(
        "payload", [b"", b"not json", b"[]", b'{"epoch": 1}', b'{"shards": []}']
    )
    def test_decode_malformed_raises(self, payload):
        with pytest.raises(ProtocolError):
            ClusterTopology.decode(payload)

    def test_unknown_shard_lookup_raises(self):
        with pytest.raises(ConfigurationError):
            topo("a").address("nope")


class TestRingEconomics:
    """Consistent hashing's bargain: ~K/N keys move, all toward the change."""

    KEYS = [f"object:{i}" for i in range(600)]

    def moved(self, old: ClusterTopology, new: ClusterTopology) -> list[str]:
        return [key for key in self.KEYS if old.owner(key) != new.owner(key)]

    def test_adding_a_shard_moves_about_a_quarter(self):
        old = topo("a", "b", "c")
        new = old.with_shard("d", "127.0.0.1", 7999)
        moved = self.moved(old, new)
        fraction = len(moved) / len(self.KEYS)
        # Ideal is 1/4; virtual nodes keep the spread loose but bounded.
        assert 0.08 <= fraction <= 0.45
        # Every moved key moves TO the added shard, never between survivors.
        assert all(new.owner(key) == "d" for key in moved)

    def test_removing_a_shard_moves_only_its_keys(self):
        old = topo("a", "b", "c", "d")
        new = old.without_shard("d")
        moved = self.moved(old, new)
        fraction = len(moved) / len(self.KEYS)
        assert 0.08 <= fraction <= 0.45
        # Exactly the removed shard's keys move; survivors keep theirs.
        assert all(old.owner(key) == "d" for key in moved)
        assert moved == [key for key in self.KEYS if old.owner(key) == "d"]

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_moved_pairs_covers_every_actual_move_on_add(self, salt):
        old = topo("a", "b", "c")
        new = old.with_shard("d", "127.0.0.1", 7999)
        pairs = set(moved_pairs(old, new))
        for i in range(40):
            key = f"{salt}:{i}"
            src, dst = old.owner(key), new.owner(key)
            if src != dst:
                assert (src, dst) in pairs

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_moved_pairs_covers_every_actual_move_on_remove(self, salt):
        old = topo("a", "b", "c", "d")
        new = old.without_shard("b")
        pairs = set(moved_pairs(old, new))
        for i in range(40):
            key = f"{salt}:{i}"
            src, dst = old.owner(key), new.owner(key)
            if src != dst:
                assert (src, dst) in pairs


class TestWireCluster:
    """Server-side routing over real sockets: TOPOLOGY, CEPOCH, MOVED
    redirects, and the piggybacked epoch header."""

    def non_owner_seed(self, cluster, key):
        topology = cluster.topology
        owner = topology.owner(key)
        other = next(name for name in topology.members if name != owner)
        return topology.address(other), topology.address(owner), owner

    def test_topology_command_round_trips(self, cluster):
        with CacheClient(*cluster.seeds[0]) as client:
            payload = client.call(["TOPOLOGY"])
        decoded = ClusterTopology.decode(payload)
        assert decoded == cluster.topology

    def test_topology_on_standalone_server_errors(self):
        from repro.net import StoreServer

        server = StoreServer(InMemoryStore(), "127.0.0.1", 0)
        address = server.start()
        try:
            with CacheClient(*address) as client:
                reply = client.call(["TOPOLOGY"])
            assert isinstance(reply, WireError)
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "args", [["CEPOCH"], ["CEPOCH", "x"], ["CEPOCH", "-1"], ["CEPOCH", "1", "3"]]
    )
    def test_cepoch_validation(self, cluster, args):
        with CacheClient(*cluster.seeds[0]) as client:
            assert isinstance(client.call(args), WireError)

    @staticmethod
    def spanning_keys(topology, count: int = 12) -> list[str]:
        """Keys over several shards, the first one owned by ``shard-0``."""
        keys = sorted(
            (f"span-{i}" for i in range(count)),
            key=lambda key: topology.owner(key) != "shard-0",
        )
        assert topology.owner(keys[0]) == "shard-0"
        assert len({topology.owner(key) for key in keys}) > 1
        return keys

    @pytest.mark.parametrize("command", ["GET", "SET", "MGET", "MSET", "DEL"])
    def test_undeclared_connection_gets_moved(self, engine_cluster, command):
        """The one contract: a connection that never sent CEPOCH is
        redirected like any other, and gets no epoch header."""
        topology = engine_cluster.topology
        keys = self.spanning_keys(topology)
        # The first key shard-0 does not own: the one a redirect names.
        foreign = next(key for key in keys if topology.owner(key) != "shard-0")
        args = {
            "GET": ["GET", foreign],
            "SET": ["SET", foreign, "v"],
            "MGET": ["MGET", *keys],
            "MSET": ["MSET", *[part for key in keys for part in (key, "v")]],
            "DEL": ["DEL", *keys],
        }[command]
        owner = topology.owner(foreign)
        with CacheClient(*topology.address("shard-0")) as client:
            reply = client.call(args)
            moved = parse_moved(str(reply)) if isinstance(reply, WireError) else None
            assert moved == (engine_cluster.epoch, owner, *topology.address(owner))
            assert client.last_epoch is None

    def test_non_utf8_key_is_routed_and_the_connection_lives(self, engine_cluster):
        """A member routes a key that is not UTF-8 like any other -- served
        if it owns it, ``-MOVED`` otherwise -- and keeps serving the
        connection."""
        topology = engine_cluster.topology
        for raw in (b"\xff-k", b"\xfe\xfd", b"bin\x80ary"):  # owned by shard-1, 0, 1
            owner = topology.owner(raw.decode("utf-8", "surrogateescape"))
            with CacheClient(*topology.address("shard-0")) as client:
                reply = client.call([b"SET", raw, b"v"])
                if owner == "shard-0":
                    assert reply == "OK"
                else:
                    assert parse_moved(str(reply)).shard == owner
                assert client.ping()

    def test_cross_shard_mset_to_a_non_owner_writes_nothing(self, engine_cluster):
        keys = self.spanning_keys(engine_cluster.topology)
        with CacheClient(*engine_cluster.topology.address("shard-0")) as client:
            reply = client.call(["MSET", *[part for key in keys for part in (key, "v")]])
        assert parse_moved(str(reply)) is not None
        assert [engine_cluster.store(name).size() for name in engine_cluster.shards] == [0, 0, 0]

    def test_declared_connection_gets_moved(self, cluster):
        key = "routed-key"
        seed, owner_address, owner = self.non_owner_seed(cluster, key)
        client = ClusterAwareClient(*seed, epoch_source=lambda: cluster.epoch)
        try:
            reply = client.call(["GET", key])
            assert isinstance(reply, WireError)
            moved = parse_moved(str(reply))
            assert moved is not None
            assert moved.epoch == cluster.epoch
            assert moved.shard == owner
            assert moved.address == owner_address
        finally:
            client.close()

    def test_stale_epoch_gets_piggybacked_header(self, cluster):
        key = "stale-epoch-key"
        seed, _owner_address, _owner = self.non_owner_seed(cluster, key)
        client = ClusterAwareClient(*seed, epoch_source=lambda: 0)
        try:
            client.call(["SET", "local-probe", "x"])
            assert client.last_epoch == cluster.epoch
            # Re-declaring the fresh epoch stops the stamping.
            client.declare(cluster.epoch)
            client.call(["EXISTS", "local-probe"])
            assert client.last_epoch == cluster.epoch  # sticky, not re-sent
        finally:
            client.close()


class TestClusterStoreClient:
    def test_routes_to_owner_stores(self, cluster):
        with cluster.client() as client:
            for i in range(30):
                client.put(f"doc-{i}", {"i": i})
            assert client.redirects == 0  # fresh topology: no misses
            for i in range(30):
                assert client.get(f"doc-{i}") == {"i": i}
        per_shard = [cluster.store(name).size() for name in cluster.shards]
        assert sum(per_shard) == 30
        assert all(count > 0 for count in per_shard)

    def test_single_key_surface(self, cluster):
        with cluster.client() as client:
            client.put("k", "v")
            assert client.contains("k")
            version = client.put_with_version("k", "v2")
            value, seen = client.get_with_version("k")
            assert value == "v2" and seen == version
            assert client.delete("k")
            assert not client.contains("k")
            with pytest.raises(KeyNotFoundError):
                client.get("k")

    def test_batched_and_aggregate_surface(self, cluster):
        with cluster.client() as client:
            items = {f"n-{i}": i for i in range(25)}
            client.put_many(items)
            assert client.get_many(list(items)) == items
            assert client.size() == 25
            assert sorted(client.keys()) == sorted(items)
            assert client.delete_many(["n-0", "n-1", "ghost"]) == 2
            assert client.clear() == 23
            assert client.size() == 0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ClusterStoreClient([])

    def test_closed_client_refuses_operations(self, cluster):
        client = cluster.client()
        client.close()
        client.close()  # idempotent
        with pytest.raises(StoreConnectionError):
            client.get("anything")


class TestLiveMembership:
    """The headline: smart clients survive membership changes in-session."""

    def test_converges_on_add_without_reconnecting(self, cluster):
        expected = {f"key-{i}": i for i in range(120)}
        with cluster.client() as client:
            client.put_many(expected)
            assert client.epoch == 3
            report = cluster.add_shard("shard-3", InMemoryStore())
            assert report.epoch_from == 3 and report.epoch_to == 4
            # Bounded movement: ~K/4 keys, and only toward the added shard.
            assert 0 < report.moved <= len(expected) * 0.45
            assert all(pair.endswith("->shard-3") for pair in report.pairs)
            assert client.get_many(list(expected)) == expected
            assert client.epoch == 4  # converged via MOVED/piggyback
            assert client.connection_reconnects() == 0
        assert cluster.store("shard-3").size() == report.moved

    def test_converges_on_remove_without_reconnecting(self, cluster):
        expected = {f"key-{i}": i for i in range(120)}
        with cluster.client() as client:
            client.put_many(expected)
            report = cluster.remove_shard("shard-1")
            assert report.moved > 0
            assert all(pair.startswith("shard-1->") for pair in report.pairs)
            assert client.get_many(list(expected)) == expected
            assert client.epoch == 4
            assert client.connection_reconnects() == 0
        assert "shard-1" not in cluster.shards

    # Removing shard-0 puts the dead member first in the pass; removing
    # shard-1 lets a live member's epoch header report the change first.
    @pytest.mark.parametrize("change", ["add shard-3", "remove shard-0", "remove shard-1"])
    @pytest.mark.parametrize("op", ["size", "keys", "clear"])
    def test_cluster_wide_ops_follow_a_membership_change(self, cluster, change, op):
        """A client whose last keyed request predates the change still
        counts, lists and clears the whole namespace over the new map."""
        expected = {f"key-{i}": i for i in range(60)}
        with cluster.client() as client:
            client.put_many(expected)
            verb, shard = change.split()
            if verb == "add":
                cluster.add_shard(shard, InMemoryStore())
            else:
                cluster.remove_shard(shard)
            if op == "size":
                assert client.size() == len(expected)
            elif op == "keys":
                assert sorted(client.keys()) == sorted(expected)
            else:
                assert client.clear() == len(expected)
                assert [cluster.store(name).size() for name in cluster.shards] == [0] * len(
                    cluster.shards
                )
            assert client.epoch == cluster.epoch

    def test_zero_lost_keys_with_writes_during_rebalance(self, cluster):
        """Writers keep writing fresh keys while a shard joins; nothing is
        lost (write-once keys are outside the documented overwrite window)."""
        written: dict[str, int] = {f"pre-{i}": i for i in range(60)}
        with cluster.client() as client:
            client.put_many(written)
            stop = threading.Event()
            mine: dict[str, int] = {}

            def writer() -> None:
                index = 0
                with cluster.client() as own:
                    while not stop.is_set():
                        own.put(f"live-{index}", index)
                        mine[f"live-{index}"] = index
                        index += 1

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                while len(mine) < 5:  # let the writer overlap the rebalance
                    pass
                cluster.add_shard("shard-3", InMemoryStore())
            finally:
                stop.set()
                thread.join()
            written.update(mine)
            assert len(mine) > 0
            assert client.get_many(list(written)) == written

    def test_rebalance_events_and_metrics(self):
        obs = Observability(events=EventLog())
        with ClusterCoordinator(obs=obs) as coordinator:
            coordinator.add_shard("a", InMemoryStore())
            coordinator.add_shard("b", InMemoryStore())
            store = coordinator.store("a")
            with coordinator.client() as client:
                client.put_many({f"k{i}": i for i in range(40)})
            coordinator.add_shard("c", InMemoryStore())
            kinds = [record["kind"] for record in obs.events.tail()]
            assert "topology_changed" in kinds and "rebalance" in kinds
            rebalances = obs.events.tail(kind="rebalance")
            last = rebalances[-1]  # adding "b" rebalanced too (empty cluster)
            assert last["epoch_from"] == 2 and last["epoch_to"] == 3
            assert obs.registry.gauge("cluster.epoch").value == 3
            assert obs.registry.gauge("cluster.shards").value == 3
            assert obs.registry.counter("cluster.rebalance.moved_keys").value == sum(
                event["moved"] + event["catch_up"] for event in rebalances
            )
        assert store is not None  # stores stay caller-owned after stop()

    def test_coordinator_membership_validation(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.add_shard("shard-0", InMemoryStore())  # duplicate
        with pytest.raises(ConfigurationError):
            cluster.remove_shard("ghost")
        cluster.remove_shard("shard-2")
        cluster.remove_shard("shard-1")
        with pytest.raises(ConfigurationError):
            cluster.remove_shard("shard-0")  # refuses to empty the cluster

    def test_stopped_coordinator_refuses_changes(self):
        coordinator = ClusterCoordinator()
        coordinator.add_shard("a", InMemoryStore())
        coordinator.stop()
        coordinator.stop()  # idempotent
        with pytest.raises(ConfigurationError):
            coordinator.add_shard("b", InMemoryStore())


class TestUdsmClusterFactory:
    def test_cluster_factory_registers_a_smart_client(self):
        from repro.udsm import UniversalDataStoreManager

        with UniversalDataStoreManager() as manager:
            for name in ("m0", "m1", "m2"):
                manager.register(name, InMemoryStore())
            composite = manager.cluster(["m0", "m1", "m2"], name="grid")
            composite.put_many({f"g{i}": i for i in range(20)})
            assert composite.get("g3") == 3
            assert composite.size() == 20
            held = [manager.raw_store(name).size() for name in ("m0", "m1", "m2")]
            assert sum(held) == 20 and all(count > 0 for count in held)
            seeds = list(composite._inner._seeds)  # noqa: SLF001 - verify teardown
        # Manager close stopped the shard servers with everything else.
        with pytest.raises(StoreConnectionError):
            CacheClient(*seeds[0], connect_timeout=0.5).ping()

    def test_cluster_factory_requires_members(self):
        from repro.udsm import UniversalDataStoreManager

        with UniversalDataStoreManager() as manager:
            with pytest.raises(ConfigurationError):
                manager.cluster([])
