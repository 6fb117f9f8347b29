"""Topology-aware cluster client: every key goes straight to its owner.

:class:`ClusterStoreClient` is a :class:`~repro.kv.interface.KeyValueStore`
whose namespace spans every shard of a cluster (see
:class:`~repro.cluster.topology.ClusterTopology`).  It bootstraps the shard
map with one ``TOPOLOGY`` round trip, places every key exactly where the
servers would (same hash ring) and talks straight to the owner: the
intelligence lives in the client, and a member never forwards a key.

Its connections declare the epoch they route by (``CEPOCH``), so a member
on a newer topology stamps its epoch on every reply.  A stale routing
table surfaces as that ``^<epoch>`` header or as a ``-MOVED`` redirect;
the client refreshes the topology, re-declares its epoch on existing
connections and re-runs the operation -- **no reconnect, no restart**
(the check gate asserts exactly this).

Wire-level mechanics (epoch headers, MOVED grammar) are specified in
``docs/protocol.md``; operational guidance lives in ``docs/cluster.md``.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping

from ..errors import ConfigurationError, ProtocolError, StoreConnectionError
from ..kv.interface import KeyValueStore, NotModified
from ..kv.remote import RemoteKeyValueStore
from ..net.client import ClusterAwareClient, parse_moved
from ..net.protocol import WireError
from ..obs import Observability, resolve_obs
from ..serialization import Serializer
from .topology import ClusterTopology

__all__ = ["ClusterStoreClient"]

Address = tuple[str, int]

#: How many times one operation may find its routing table stale (a
#: ``-MOVED`` hop, a newer epoch on a reply, a dead member) before giving up.
MAX_REDIRECTS = 3


def _by_owner(keys: list[str]):
    """A routing plan: *keys* grouped by owner address."""

    def plan(topology: ClusterTopology) -> dict[Address, list[str]]:
        groups: dict[Address, list[str]] = {}
        for key in keys:
            groups.setdefault(topology.address(topology.owner(key)), []).append(key)
        return groups

    return plan


def _every_member(topology: ClusterTopology) -> dict[Address, None]:
    """A routing plan: one step on every member."""
    return {topology.address(name): None for name in topology.members}


class ClusterStoreClient(KeyValueStore):
    """One key-value namespace over many shards, routed client-side.

    :param seeds: ``(host, port)`` addresses of known cluster members; any
        one reachable seed suffices to bootstrap the full shard map.
    :param coordinator: optional owning
        :class:`~repro.cluster.coordinator.ClusterCoordinator`; if given,
        :meth:`close` also stops it (used by ``udsm.cluster(...)``).
    """

    def __init__(
        self,
        seeds: Iterable[Address],
        *,
        name: str = "cluster",
        serializer: Serializer | None = None,
        connect_timeout: float = 5.0,
        operation_timeout: float = 30.0,
        obs: Observability | None = None,
        coordinator=None,
    ) -> None:
        self._seeds = [(str(host), int(port)) for host, port in seeds]
        if not self._seeds:
            raise ConfigurationError("a cluster client needs at least one seed address")
        self.name = name
        self._serializer = serializer
        self._connect_timeout = connect_timeout
        self._operation_timeout = operation_timeout
        self._obs = resolve_obs(obs)
        self._coordinator = coordinator
        self._lock = threading.Lock()
        #: One store per member address, over its own ClusterAwareClient.
        self._stores: dict[Address, RemoteKeyValueStore] = {}
        self._closed = False
        #: MOVED redirects followed (stale routing table moments).
        self.redirects = 0
        #: Topology refreshes performed (bootstrap included).
        self.refreshes = 0
        self._topology: ClusterTopology | None = None
        self._refresh_topology()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def topology(self) -> ClusterTopology:
        return self._topology

    @property
    def epoch(self) -> int:
        return self._topology.epoch

    def connection_reconnects(self) -> int:
        """Total transparent reconnects across every member connection.

        The check gate asserts this stays zero across a live topology
        change: convergence must not cost a single reconnect.
        """
        with self._lock:
            return sum(store.native().reconnects for store in self._stores.values())

    # ------------------------------------------------------------------
    # Connections and routing
    # ------------------------------------------------------------------
    def _current_epoch(self) -> int:
        topology = self._topology
        return 0 if topology is None else topology.epoch

    def _store_at(self, address: Address) -> RemoteKeyValueStore:
        with self._lock:
            if self._closed:
                raise StoreConnectionError("cluster client is closed")
            store = self._stores.get(address)
            if store is None:
                conn = ClusterAwareClient(
                    address[0],
                    address[1],
                    epoch_source=self._current_epoch,
                    connect_timeout=self._connect_timeout,
                    operation_timeout=self._operation_timeout,
                )
                store = self._stores[address] = RemoteKeyValueStore(
                    address[0],
                    address[1],
                    name=f"{self.name}@{address[0]}:{address[1]}",
                    serializer=self._serializer,
                    client=conn,
                )
            return store

    def _drop_connection(self, address: Address) -> None:
        """Forget a dead member's connection so nothing retries through it."""
        with self._lock:
            store = self._stores.pop(address, None)
        if store is not None:
            store.native().close()

    # ------------------------------------------------------------------
    # Topology maintenance
    # ------------------------------------------------------------------
    def _refresh_topology(self, prefer: Address | None = None) -> ClusterTopology:
        """Fetch the shard map (TOPOLOGY) from the first member that answers."""
        candidates: list[Address] = []
        if prefer is not None:
            candidates.append(prefer)
        with self._lock:
            known = list(self._stores)
        for address in known + self._seeds:
            if address not in candidates:
                candidates.append(address)
        last_error: Exception | None = None
        for address in candidates:
            try:
                frame = self._store_at(address).native().call(["TOPOLOGY"])
            except (StoreConnectionError, ProtocolError) as exc:
                last_error = exc
                self._drop_connection(address)
                continue
            if isinstance(frame, WireError):
                last_error = frame
                continue
            if not isinstance(frame, (bytes, bytearray)):
                last_error = ProtocolError("TOPOLOGY returned a non-bulk frame")
                continue
            return self._adopt(ClusterTopology.decode(bytes(frame)))
        raise StoreConnectionError(
            f"could not fetch the cluster topology from any member: {last_error}"
        ) from last_error

    def _adopt(self, topology: ClusterTopology) -> ClusterTopology:
        with self._lock:
            current = self._topology
            if current is not None and topology.epoch < current.epoch:
                return current  # a concurrent refresh already learned more
            self._topology = topology
            members = {topology.address(name) for name in topology.members}
            departed = [addr for addr in self._stores if addr not in members]
            conns = [
                store.native() for addr, store in self._stores.items() if addr in members
            ]
        for address in departed:
            self._drop_connection(address)
        self.refreshes += 1
        self._note_epoch(topology.epoch)
        # Re-declare the adopted epoch on live connections so servers stop
        # flagging them stale -- connections stay up, nothing reconnects.
        for conn in conns:
            try:
                conn.declare(topology.epoch)
            except (StoreConnectionError, WireError):
                pass  # member gone or leaving; routing will route around it
        return topology

    def _note_epoch(self, epoch: int) -> None:
        if self._obs.enabled:
            self._obs.inc("cluster.client.refreshes")
            self._obs.gauge("cluster.client.epoch").set(epoch)
            self._obs.emit("topology_refreshed", name=self.name, epoch=epoch)

    # ------------------------------------------------------------------
    # The routing loop
    # ------------------------------------------------------------------
    def _route(self, plan, op) -> list:
        """Run ``op(store, part)`` for each ``address -> part`` step that
        ``plan(topology)`` maps the routing table to; one result per step.

        What a member answers decides what happens next:

        * ``-MOVED``: refresh the topology, asking the named member first,
          and re-run the plan (a refresh no member answers raises);
        * a dead member (shard removed, server gone): forget its connection,
          refresh and re-run;
        * a reply stamped with a newer epoch: refresh, then carry on if the
          new map plans the same steps, or re-run if it does not.

        Re-runs are bounded by ``MAX_REDIRECTS`` and safe because every
        routed operation is idempotent.
        """
        last_error: Exception | None = None
        for _attempt in range(MAX_REDIRECTS + 1):
            steps = plan(self._topology)
            results = []
            for address, part in steps.items():
                store = self._store_at(address)
                if self._obs.enabled:
                    self._obs.inc("cluster.client.routed")
                try:
                    results.append(op(store, part))
                except WireError as err:
                    moved = parse_moved(str(err))
                    if moved is None:
                        raise
                    last_error = err
                    self.redirects += 1
                    if self._obs.enabled:
                        self._obs.inc("cluster.client.redirects")
                    self._refresh_topology(prefer=moved.address)
                    break
                except StoreConnectionError as err:
                    last_error = err
                    self._drop_connection(address)
                    self._refresh_topology()  # the member is likely gone
                    break
                seen = store.native().last_epoch
                if seen is not None and seen > self._current_epoch():
                    self._refresh_topology(prefer=address)
                    if plan(self._topology) != steps:
                        break
            else:
                return results
        raise StoreConnectionError(
            f"cluster routing did not converge after {MAX_REDIRECTS} redirects"
        ) from last_error

    def _on_owner(self, key: str, op):
        """Run ``op(store)`` on the owner of *key*: a one-key batch."""
        return self._route(_by_owner([key]), lambda store, _keys: op(store))[0]

    # ------------------------------------------------------------------
    # KeyValueStore: single-key operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        return self._on_owner(key, lambda store: store.get(key))

    def get_with_version(self, key: str) -> tuple[Any, str]:
        return self._on_owner(key, lambda store: store.get_with_version(key))

    def get_if_modified(self, key: str, version: str) -> "tuple[Any, str] | NotModified":
        return self._on_owner(key, lambda store: store.get_if_modified(key, version))

    def put(self, key: str, value: Any) -> None:
        self._on_owner(key, lambda store: store.put(key, value))

    def put_with_version(self, key: str, value: Any) -> str:
        return self._on_owner(key, lambda store: store.put_with_version(key, value))

    def delete(self, key: str) -> bool:
        return self._on_owner(key, lambda store: store.delete(key))

    def contains(self, key: str) -> bool:
        return self._on_owner(key, lambda store: store.contains(key))

    # ------------------------------------------------------------------
    # KeyValueStore: batched operations
    # ------------------------------------------------------------------
    def get_many(self, keys: "Iterable[str]") -> dict[str, Any]:
        key_list = list(keys)
        if not key_list:
            return {}
        out: dict[str, Any] = {}
        for found in self._route(
            _by_owner(key_list), lambda store, group: store.get_many(group)
        ):
            out.update(found)
        return out

    def put_many(self, items: "Mapping[str, Any]") -> None:
        if not items:
            return
        self._route(
            _by_owner(list(items)),
            lambda store, group: store.put_many({key: items[key] for key in group}),
        )

    def delete_many(self, keys: "Iterable[str]") -> int:
        key_list = list(keys)
        if not key_list:
            return 0
        return sum(
            self._route(
                _by_owner(key_list), lambda store, group: store.delete_many(group)
            )
        )

    # ------------------------------------------------------------------
    # KeyValueStore: whole-namespace operations (aggregate across shards)
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        seen: set[str] = set()
        listed = self._route(_every_member, lambda store, _: list(store.keys()))
        for member_keys in listed:
            for key in member_keys:
                if key not in seen:
                    seen.add(key)
                    yield key

    def size(self) -> int:
        # Mid-rebalance a moved key may momentarily live on two shards, so
        # this can transiently over-count; it converges with the topology.
        return sum(self._route(_every_member, lambda store, _: store.size()))

    def clear(self) -> int:
        # Count every key a pass removed, including a pass cut short by a
        # newer epoch: those keys are gone too.
        cleared: list[int] = []
        self._route(_every_member, lambda store, _: cleared.append(store.clear()))
        return sum(cleared)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stores = list(self._stores.values())
            self._stores.clear()
        for store in stores:
            store.native().close()
        if self._coordinator is not None:
            self._coordinator.stop()

    def __repr__(self) -> str:
        return f"<ClusterStoreClient name={self.name!r} epoch={self.epoch}>"
