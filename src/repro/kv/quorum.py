"""Replication groups -- primary/replica and R+W>N quorum -- on one core.

:class:`ReplicatedStore` is availability-oriented primary/replica
replication, the paper's "secondary repository" idea: members hold raw
values, writes are best-effort on the replicas, reads prefer the primary
(optionally *hedged*), and convergence after a partition needs the
O(keyspace) ``repair_all()`` scan.  :class:`QuorumReplicatedStore` is
Dynamo-style **R+W > N quorum replication** where every member is a peer:

* **writes** stamp each key with a per-key versioned timestamp (a Lamport
  counter plus a writer id, carried inside the stored *envelope* so it
  survives any backend and any restart), fan out to all N members in
  parallel, and succeed once **W** members acknowledge.  Member failures
  beyond that are *sloppy*: tolerated, counted
  (``kv.quorum.write_partial``), and left for read-repair / anti-entropy
  to reconcile.  When more than ``N - W`` members are unreachable the
  write **fails fast** with a typed
  :class:`~repro.errors.QuorumWriteError` instead of hanging.
* **reads** fan out to all members in parallel and resolve as soon as
  **R** responses (values *or* confirmed misses) arrive.  Divergent
  answers are resolved by version stamp -- last writer wins, with the
  writer id as a deterministic tiebreak -- and members that answered with
  a stale or missing value are **synchronously read-repaired** before the
  call returns.  Because R+W > N, a read quorum always intersects the
  last successful write quorum: a read that succeeds sees every
  acknowledged write.
* **deletes** are tombstone writes through the same quorum path, so they
  propagate and converge exactly like updates.

Member workers
--------------
Both groups send member requests to one FIFO worker per member (a
one-thread :class:`~repro.udsm.pool.ThreadPool`, started on first use), so
no operation starts a thread.  Every write the quorum group makes to a
member -- puts, tombstones, read-repair, anti-entropy copies -- runs on
that member's worker, which skips (and counts as an ack) a write whose
stamp is older than the member's Merkle-tree entry for the key.  A
straggling older write never lands over a newer one: **a member never
moves backwards**, which keeps the intersection argument above true.  The
price is that a member serves one group request at a time: concurrent
callers queue behind each other on a slow member (``EXPERIMENTS.md`` has
the numbers).

Anti-entropy
------------
Read-repair only fixes keys that get read.  Background **anti-entropy**
converges everything else without the full-keyspace scan: the group
maintains one incremental :class:`MerkleTree` per member (a fixed array of
hash buckets over the key space, one digest per tracked key -- bounded
memory, O(1) update per acknowledged write), compares trees pairwise from
the root down, and re-scans **only the divergent buckets**.  After a
partition heals, a round touches roughly ``keyspace / buckets`` keys per
divergent bucket instead of every key; the scan accounting
(``kv.antientropy.keys_scanned`` vs ``kv.antientropy.full_scans``) makes
that claim checkable, and ``scripts/check_quorum.py`` checks it.

Rounds run wherever you point the injectable *scheduler* (the LSM plane's
``InlineScheduler`` / ``ManualScheduler`` / ``BackgroundScheduler`` all
fit); ``anti_entropy_every=k`` schedules a round automatically every *k*
quorum writes, which gives deterministic "background" repair with zero
real sleeps under a :class:`~repro.lsm.compaction.ManualScheduler`.

The fault-tolerance plane applies throughout: ambient
:class:`~repro.kv.deadline.Deadline` budgets bound every quorum wait and
every hedged read, ``kv.quorum.*`` / ``kv.antientropy.*`` /
``kv.replica.*`` metrics and journal events feed the anomaly engine (a
``quorum_degraded`` detection can preemptively enable hedging on a
primary/replica group -- see ``docs/resilience.md``), and the chaos plane's
:class:`~repro.kv.chaos.PartitionedStore` severs members on command so all
of this is testable without a real network.
"""

from __future__ import annotations

import hashlib
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from ..errors import (
    ConfigurationError,
    DataStoreError,
    KeyNotFoundError,
    QuorumReadError,
    QuorumWriteError,
)
from ..obs import Observability, resolve_obs
from ..udsm.futures import ListenableFuture
from ..udsm.pool import ThreadPool
from .deadline import current_deadline, expired
from .interface import KeyValueStore, encode_key

__all__ = [
    "VersionStamp",
    "MerkleTree",
    "AntiEntropyReport",
    "QuorumReplicatedStore",
    "ReplicatedStore",
]

#: Marker key identifying a quorum envelope inside a member store.
_ENVELOPE_MARK = "__quorum_envelope__"

#: unique "absent" sentinel (None is a legal stored value)
_ABSENT = object()

#: What one anti-entropy copy did: only a failed one defers convergence.
_COPIED, _SKIPPED, _FAILED = "copied", "skipped", "failed"


class VersionStamp(NamedTuple):
    """A per-key versioned timestamp: ``(counter, writer)``.

    *counter* is a Lamport counter (merged upward from every stamp the
    group observes, so writes through a rejoining or second coordinator
    still order after everything it has read); *writer* is the
    coordinator's ``node_id``, the deterministic tiebreak when two
    coordinators use the same counter.  Tuple comparison gives the
    last-writer-wins order directly.
    """

    counter: int
    writer: str

    def token(self) -> str:
        """Opaque version-token form (what ``get_with_version`` returns)."""
        return f"q{self.counter}.{self.writer}"

    @classmethod
    def parse(cls, token: str) -> "VersionStamp":
        if not token.startswith("q") or "." not in token:
            raise ConfigurationError(f"not a quorum version token: {token!r}")
        counter, _, writer = token[1:].partition(".")
        return cls(int(counter), writer)


def _wrap(stamp: VersionStamp, value: Any, *, tombstone: bool = False) -> dict:
    """Build the envelope stored in member stores."""
    envelope: dict[str, Any] = {
        _ENVELOPE_MARK: 1,
        "c": stamp.counter,
        "w": stamp.writer,
    }
    if tombstone:
        envelope["t"] = 1
    else:
        envelope["v"] = value
    return envelope


def _unwrap(raw: Any) -> tuple[VersionStamp, Any, bool]:
    """``(stamp, value, tombstone)`` from a stored envelope.

    Values written outside the quorum path (pre-existing data in a member)
    are treated as *legacy*: counter 0 with a content-derived writer id,
    so any quorum write orders after them and two members holding
    different legacy values still hash differently in the Merkle trees.
    """
    if isinstance(raw, dict) and raw.get(_ENVELOPE_MARK) == 1:
        stamp = VersionStamp(raw["c"], raw["w"])
        if raw.get("t"):
            return stamp, None, True
        return stamp, raw.get("v"), False
    digest = hashlib.sha1(repr(raw).encode("utf-8", "backslashreplace")).hexdigest()
    return VersionStamp(0, "legacy-" + digest[:12]), raw, False


# ----------------------------------------------------------------------
# Merkle trees over key ranges
# ----------------------------------------------------------------------
def _bucket_of(key: str, buckets: int) -> int:
    """Stable key -> bucket mapping (must agree across all members)."""
    digest = hashlib.sha1(encode_key(key)).digest()
    return int.from_bytes(digest[:8], "big") % buckets


def _entry_digest(key: str, stamp: VersionStamp, tombstone: bool) -> int:
    """128-bit digest of one tracked ``(key, stamp)`` entry.

    The stamp uniquely identifies a write, so hashing the stamp (not the
    value) is enough: two members agree on a key's digest iff they hold
    the same write.  XOR-combining entry digests makes the bucket digest
    incrementally updatable in O(1) without rescanning the bucket.
    """
    payload = f"{key}\x00{stamp.counter}\x00{stamp.writer}\x00{int(tombstone)}"
    digest = hashlib.sha1(encode_key(payload)).digest()
    return int.from_bytes(digest[:16], "big")


class MerkleTree:
    """Incremental hash tree over hashed key ranges for one member.

    ``2**depth`` leaf buckets; each bucket keeps ``key -> (stamp,
    tombstone)`` for the keys hashing into it plus the XOR of their entry
    digests, so an update is O(1) and memory is one small tuple per
    tracked key plus a fixed bucket array -- never the values.  Internal
    nodes are derived on demand; :meth:`diff` descends from the root and
    returns only the divergent leaf buckets, which is what lets
    anti-entropy skip the synchronized bulk of the key space.

    Not thread-safe on its own; :class:`QuorumReplicatedStore` guards its
    trees with the group lock.
    """

    def __init__(self, *, depth: int = 6) -> None:
        if depth < 1 or depth > 16:
            raise ConfigurationError("merkle depth must be within [1, 16]")
        self.depth = depth
        self.buckets = 1 << depth
        self._entries: list[dict[str, tuple[VersionStamp, bool]]] = [
            {} for _ in range(self.buckets)
        ]
        self._digests = [0] * self.buckets

    # ------------------------------------------------------------------
    def update(self, key: str, stamp: VersionStamp, *, tombstone: bool = False) -> None:
        """Record that this member now holds *key* at *stamp*."""
        bucket = _bucket_of(key, self.buckets)
        entries = self._entries[bucket]
        previous = entries.get(key)
        if previous is not None:
            self._digests[bucket] ^= _entry_digest(key, previous[0], previous[1])
        entries[key] = (stamp, tombstone)
        self._digests[bucket] ^= _entry_digest(key, stamp, tombstone)

    def discard(self, key: str) -> None:
        """Forget *key* entirely (member lost it out of band)."""
        bucket = _bucket_of(key, self.buckets)
        previous = self._entries[bucket].pop(key, None)
        if previous is not None:
            self._digests[bucket] ^= _entry_digest(key, previous[0], previous[1])

    def entry(self, key: str) -> tuple[VersionStamp, bool] | None:
        """``(stamp, tombstone)`` tracked for *key*, or ``None``."""
        return self._entries[_bucket_of(key, self.buckets)].get(key)

    def bucket_entries(self, bucket: int) -> dict[str, tuple[VersionStamp, bool]]:
        """The tracked entries of one leaf bucket (a live view)."""
        return self._entries[bucket]

    def clear(self) -> None:
        for entries in self._entries:
            entries.clear()
        self._digests = [0] * self.buckets

    @property
    def tracked(self) -> int:
        """Number of keys currently tracked (tombstones included)."""
        return sum(len(entries) for entries in self._entries)

    def items(self) -> Iterator[tuple[str, tuple[VersionStamp, bool]]]:
        for entries in self._entries:
            yield from entries.items()

    # ------------------------------------------------------------------
    def _levels(self) -> list[list[int]]:
        """Leaf digests hashed pairwise up to the root (root level last)."""
        levels = [list(self._digests)]
        while len(levels[-1]) > 1:
            below = levels[-1]
            above = []
            for index in range(0, len(below), 2):
                pair = below[index].to_bytes(16, "big") + below[index + 1].to_bytes(16, "big")
                above.append(int.from_bytes(hashlib.sha1(pair).digest()[:16], "big"))
            levels.append(above)
        return levels

    def root(self) -> str:
        """Hex root digest; equal roots mean identical tracked state."""
        return format(self._levels()[-1][0], "032x")

    def diff(self, other: "MerkleTree") -> tuple[list[int], int]:
        """``(divergent leaf buckets, nodes compared)`` against *other*.

        Descends from the root, so when the trees agree the answer costs
        one comparison, and a handful of divergent keys cost O(depth)
        comparisons per divergent bucket -- never a key-space scan.
        """
        if other.depth != self.depth:
            raise ConfigurationError("cannot diff Merkle trees of different depth")
        mine, theirs = self._levels(), other._levels()
        compared = 1
        if mine[-1][0] == theirs[-1][0]:
            return [], compared
        # Walk down from the root: at each level expand only the nodes
        # whose digests disagreed one level up.
        suspects = [0]
        for level in range(len(mine) - 2, -1, -1):
            children = []
            for node in suspects:
                for child in (2 * node, 2 * node + 1):
                    compared += 1
                    if mine[level][child] != theirs[level][child]:
                        children.append(child)
            suspects = children
        return suspects, compared


# ----------------------------------------------------------------------
@dataclass
class AntiEntropyReport:
    """What one anti-entropy round did (cumulative counters live on the
    store and in the ``kv.antientropy.*`` metrics)."""

    pairs_compared: int = 0
    nodes_compared: int = 0
    buckets_divergent: int = 0
    keys_scanned: int = 0
    keys_repaired: int = 0
    member_failures: int = 0
    converged: bool = True
    #: members repaired, by name
    repaired_members: list[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "converged" if self.converged else "divergence remains"
        return (
            f"anti-entropy: {self.pairs_compared} pairs, "
            f"{self.nodes_compared} tree nodes, "
            f"{self.buckets_divergent} divergent buckets, "
            f"{self.keys_scanned} keys scanned, "
            f"{self.keys_repaired} repaired ({state})"
        )


def _barrier() -> None:
    """Queued behind a worker's backlog by :meth:`_MemberGroup.drain`."""


class _MemberGroup(KeyValueStore):
    """What both replication groups share: members, one FIFO worker per
    member, counters mirrored to ``obs``, deadline-bounded waits."""

    def __init__(
        self,
        members: Sequence[KeyValueStore],
        *,
        name: str,
        owns_members: bool,
        obs: Observability | None,
    ) -> None:
        self.name = name
        self._members = list(members)
        self._owns_members = owns_members
        self._obs = resolve_obs(obs)
        # Re-entrant: quorum transitions bump counters while holding it.
        self._lock = threading.RLock()
        self._workers: list[ThreadPool | None] = [None] * len(self._members)

    @property
    def members(self) -> list[KeyValueStore]:
        return list(self._members)

    def _count(self, attr: str, metric: str, n: int = 1) -> None:
        """Bump a public stats counter (lock-guarded) and its obs mirror."""
        with self._lock:
            setattr(self, attr, getattr(self, attr) + n)
        if self._obs.enabled:
            self._obs.inc(metric, n)

    def _submit(self, index: int, fn: Callable[..., Any], *args: Any) -> ListenableFuture:
        """Queue ``fn(*args)`` on member *index*'s worker, in FIFO order."""
        with self._lock:
            worker = self._workers[index]
            if worker is None:
                worker = ThreadPool(1, name=f"{self.name}-{self._members[index].name}")
                self._workers[index] = worker
        return worker.submit(fn, *args)

    def _next_result(
        self, results: "queue.SimpleQueue[Any]", what: str, wait: float | None = None
    ) -> Any:
        """The next item on *results*, waiting at most *wait* seconds (``None``
        = no limit) and never past the ambient deadline; ``None`` when
        *wait* ran out first."""
        deadline = current_deadline()
        message = f"deadline exhausted during {what} on {self.name}"
        if deadline is not None:
            if deadline.expired:
                raise expired(self._obs, self.name, message)
            wait = deadline.cap(wait)
        try:
            return results.get(timeout=wait)
        except queue.Empty:
            if deadline is not None and deadline.expired:
                raise expired(self._obs, self.name, message) from None
            return None

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for straggler member requests from past operations.

        An operation returns as soon as it is answered; its remaining
        member requests (quorum stragglers, losing hedges) finish on the
        member workers, updating trees and counters as they land.
        ``drain()`` queues a barrier behind each worker's backlog and waits
        for it -- tests and shutdown paths call it to make counter
        assertions deterministic.  Returns ``True`` when nothing queued
        before the call is left in flight.
        """
        with self._lock:
            workers = [worker for worker in self._workers if worker is not None]
        barriers = [worker.submit(_barrier) for worker in workers]
        return all(barrier.wait(timeout) for barrier in barriers)

    def _reachable(self, call: Callable[[KeyValueStore], Any]) -> Iterator[Any]:
        """``call(member)`` for each member in order, skipping members that
        fail with a store error."""
        for member in self._members:
            try:
                answer = call(member)
            except DataStoreError:
                continue
            yield answer

    def _member_keys(self) -> Iterator[str]:
        """Union of member keys in member order; unreachable members are skipped."""
        listings = self._reachable(lambda member: list(member.keys()))
        return iter(dict.fromkeys(key for keys in listings for key in keys))

    def close(self) -> None:
        """Stop the workers (a hung member gets 5 s), then close owned members."""
        with self._lock:
            workers, self._workers = self._workers, [None] * len(self._members)
        for worker in workers:
            if worker is not None:
                worker.shutdown(wait=worker.submit(_barrier).wait(5.0))
        if self._owns_members:
            for member in self._members:
                member.close()


# ----------------------------------------------------------------------
# Primary/replica
# ----------------------------------------------------------------------
class ReplicatedStore(_MemberGroup):
    """Primary/replica store with failover reads and read-repair.

    Semantics:

    * **writes** land on the primary first (its failure fails the write),
      then on every replica; replica failures are tolerated and counted.
    * **reads** try the primary, then each replica in order.  When a read
      is served by a fallback, the value is *repaired* onto the stores
      that were tried first and missed it (best effort).  Members that were
      never consulted are synced by the explicit :meth:`repair` /
      :meth:`repair_all` anti-entropy pass instead.
    * **deletes** are applied everywhere; success if anyone had the key.

    This is availability-oriented, last-writer-wins replication -- the
    right fit for the paper's cache/secondary-repository use cases, not a
    consensus protocol.  For atomic cross-store updates use
    :mod:`repro.txn` instead.
    """

    def __init__(
        self,
        primary: KeyValueStore,
        replicas: Sequence[KeyValueStore],
        *,
        name: str = "replicated",
        read_repair: bool = True,
        owns_members: bool = True,
        hedge_delay: float | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Compose the group.

        :param owns_members: when true (default), closing the composite
            closes the member stores; pass false when members are owned
            elsewhere (e.g. individually registered in a UDSM).
        :param hedge_delay: when set, :meth:`get` becomes a *hedged* read:
            the primary is asked first, and if it has not answered within
            this many seconds the read is also launched on the next
            replica (and so on down the member list); the first success
            wins.  Pick a value near the primary's p95 read latency so
            hedges fire only on tail requests.  Hedged reads skip
            read-repair (the losing request may still be in flight).
        :param obs: observability bundle; hedge launches count
            ``kv.hedge.launched``, reads won by a hedge count
            ``kv.hedge.wins``, and deadline expiries mid-read count
            ``kv.deadline.expired``.  Every public stats counter is also
            mirrored as a ``kv.replica.*`` counter (``write_failures``,
            ``failover_reads``, ``repairs``, ``hedged_reads``,
            ``hedge_wins``) so dashboards see replica health without
            polling the object.
        """
        if not replicas:
            raise ConfigurationError("ReplicatedStore needs at least one replica")
        super().__init__(
            [primary, *replicas], name=name, owns_members=owns_members, obs=obs
        )
        self._read_repair = read_repair
        self.hedge_delay = hedge_delay  # validated by the setter
        # All five public counters below are touched from member workers as
        # well as the caller's thread, so every increment goes through
        # _count() under the group lock.
        #: replica write failures tolerated so far
        self.replica_write_failures = 0
        #: reads served by a fallback store
        self.failover_reads = 0
        #: repair writes performed
        self.repairs = 0
        #: hedge requests launched (a slow leader triggered a backup read)
        self.hedged_reads = 0
        #: reads won by a hedge rather than the first store asked
        self.hedge_wins = 0

    @property
    def hedge_delay(self) -> float | None:
        """Seconds before a backup read is launched; ``None`` = no hedging.

        Writable at runtime (takes effect on the next :meth:`get`), which is
        how :class:`repro.obs.anomaly.EnableHedgingAction` turns hedging on
        while a latency anomaly is active and restores the prior value when
        it clears.
        """
        return self._hedge_delay

    @hedge_delay.setter
    def hedge_delay(self, value: float | None) -> None:
        if value is not None and value < 0:
            raise ConfigurationError("hedge_delay must be non-negative")
        self._hedge_delay = value

    def put(self, key: str, value: Any) -> None:
        primary, *replicas = self._members
        primary.put(key, value)
        for replica in replicas:
            try:
                replica.put(key, value)
            except DataStoreError:
                self._count("replica_write_failures", "kv.replica.write_failures")

    def get(self, key: str) -> Any:
        """The first member to answer, in order on the caller's thread and
        read-repaired onto the members that missed before it -- or a hedged
        read when ``hedge_delay`` is set.  When nobody answers an unhedged
        read, the last failure decides."""
        hedge = self._hedge_delay
        if hedge is not None:
            return self._hedged_get(key, hedge)
        missed: list[KeyValueStore] = []
        error: Exception | None = None
        for index, member in enumerate(self._members):
            try:
                value = member.get(key)
            except DataStoreError as exc:
                error = exc
                if isinstance(exc, KeyNotFoundError):
                    missed.append(member)
                continue
            if index:
                self._count("failover_reads", "kv.replica.failover_reads")
            if self._read_repair:
                for stale in missed:
                    try:
                        stale.put(key, value)
                    except DataStoreError:
                        continue
                    self._count("repairs", "kv.replica.repairs")
            return value
        if error is None or isinstance(error, KeyNotFoundError):
            raise KeyNotFoundError(key, self.name)
        raise error

    def _hedged_get(self, key: str, hedge: float) -> Any:
        """Tail-latency-tolerant read: first success across staggered tries.

        Members are launched in order on their workers, each after *hedge*
        seconds of collective silence (or at once when everything in flight
        has failed); losing requests finish on their workers and are
        discarded.  When nobody serves the key, the first failure that is
        not a miss is raised -- the primary's outage is not an absent key.
        Respects the ambient deadline budget.
        """
        members = self._members
        results: "queue.SimpleQueue[tuple[int, bool, Any]]" = queue.SimpleQueue()
        errors: list[Exception] = []
        launched = pending = 0
        while pending or launched < len(members):
            item = None
            if pending:
                wait = hedge if launched < len(members) else None
                item = self._next_result(results, f"hedged read of {key!r}", wait)
            if item is None:  # everything in flight failed, or *hedge* of silence
                if launched < len(members):
                    self._launch(launched, key, results)
                    launched, pending = launched + 1, pending + 1
                continue
            pending -= 1
            index, ok, payload = item
            if not ok:
                errors.append(payload)
                continue
            if index:
                self._count("hedge_wins", "kv.replica.hedge_wins")
                if self._obs.enabled:
                    self._obs.inc("kv.hedge.wins")
                    self._obs.event("hedge_win", member=members[index].name)
            return payload
        raise next(
            (error for error in errors if not isinstance(error, KeyNotFoundError)),
            KeyNotFoundError(key, self.name),
        )

    def _launch(self, index: int, key: str, results: "queue.SimpleQueue") -> None:
        """Queue member *index*'s read on its worker (a hedge after the first)."""
        member = self._members[index]
        if index:
            self._count("hedged_reads", "kv.replica.hedged_reads")
            if self._obs.enabled:
                self._obs.inc("kv.hedge.launched")
                self._obs.event("hedge", member=member.name)
                self._obs.emit("hedge", store=self.name, member=member.name)

        def read() -> None:
            try:
                results.put((index, True, member.get(key)))
            except Exception as exc:  # noqa: BLE001 - relayed, or the caller waits forever
                results.put((index, False, exc))

        self._submit(index, read)

    def get_with_version(self, key: str) -> tuple[Any, str]:
        error: Exception | None = None
        for member in self._members:
            try:
                return member.get_with_version(key)
            except DataStoreError as exc:
                error = exc
        if error is None or isinstance(error, KeyNotFoundError):
            raise KeyNotFoundError(key, self.name)
        raise error

    def delete(self, key: str) -> bool:
        # A list, not a generator: every member deletes, not only up to a hit.
        return any([*self._reachable(lambda member: member.delete(key))])

    def contains(self, key: str) -> bool:
        return any(self._reachable(lambda member: member.contains(key)))

    def repair(self, key: str) -> int:
        """Anti-entropy for one key: copy the primary-preferred value onto
        every member missing or differing from it.  Returns members fixed.

        Read-repair only fixes members consulted *before* the one that
        served a read; this explicit form syncs everyone (e.g. after a
        replica rejoins).

        Robust to members dying mid-repair: a key that cannot be read from
        *any* member repairs zero members instead of raising, and a member
        that fails while being written simply isn't counted -- so a
        :meth:`repair_all` pass always visits every key, and ``repairs``
        reflects only writes that actually landed.
        """
        try:
            value = self.get(key)  # primary-preferred, with read repair
        except DataStoreError:
            # Every member is unreachable (or lost the key mid-pass):
            # nothing to copy from, so nothing repaired -- but the caller's
            # sweep over the remaining keys must go on.
            return 0
        fixed = 0
        for member in self._members:
            try:
                if member.get_or_default(key, _ABSENT) != value:
                    member.put(key, value)
                    fixed += 1
            except DataStoreError:
                continue
        self._count("repairs", "kv.replica.repairs", fixed)
        return fixed

    def repair_all(self) -> int:
        """Run :meth:`repair` for every key any member knows.

        Member failures mid-pass are absorbed by :meth:`repair` (and by
        :meth:`keys`, which skips unreachable members), so a replica dying
        during the sweep cannot abort it.
        """
        return sum(self.repair(key) for key in list(self.keys()))

    def keys(self) -> Iterator[str]:
        """Union of keys across members (first reachable wins per key)."""
        return self._member_keys()

    def native(self) -> Any:
        return self._members[0].native()


# ----------------------------------------------------------------------
# Quorum
# ----------------------------------------------------------------------
class QuorumReplicatedStore(_MemberGroup):
    """R+W>N quorum reads/writes over N peer member stores.

    See the module docstring for semantics.  Members are peers (no
    primary); the store is thread-safe and every fan-out respects the
    ambient :class:`~repro.kv.deadline.Deadline`.
    """

    #: the public counters, in the order :meth:`status` reports them
    _COUNTERS = (
        "writes",
        "reads",
        "read_repairs",
        "write_partial_failures",
        "degraded_ops",
        "failed_fast",
        "antientropy_rounds",
        "antientropy_keys_scanned",
        "antientropy_keys_repaired",
        "full_scans",
    )

    def __init__(
        self,
        members: Sequence[KeyValueStore],
        *,
        read_quorum: int,
        write_quorum: int,
        name: str = "quorum",
        node_id: str = "node-0",
        read_repair: bool = True,
        owns_members: bool = True,
        merkle_depth: int = 6,
        scheduler: Any | None = None,
        anti_entropy_every: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        """Compose the group.

        :param members: the N peer stores (at least 2).
        :param read_quorum: R -- member responses required per read.
        :param write_quorum: W -- member acks required per write.
            ``R + W > N`` is enforced: it is what makes a read quorum
            intersect every write quorum.
        :param node_id: this coordinator's writer id, the tiebreak between
            concurrent coordinators; give each client a distinct id.
        :param merkle_depth: ``2**depth`` anti-entropy buckets per member
            (more buckets = finer repair granularity, slightly more
            memory).
        :param scheduler: where scheduled anti-entropy rounds run -- any
            object with ``submit(callable)`` (the LSM plane's
            ``InlineScheduler`` / ``ManualScheduler`` /
            ``BackgroundScheduler`` all fit).  ``None`` runs rounds
            inline.
        :param anti_entropy_every: schedule a round automatically every
            this many quorum writes (``None`` = only explicit rounds).
        :param obs: observability bundle; emits the ``kv.quorum.*`` and
            ``kv.antientropy.*`` vocabulary of ``docs/observability.md``.
        """
        if len(members) < 2:
            raise ConfigurationError("a quorum group needs at least 2 members")
        n = len(members)
        if not 1 <= read_quorum <= n:
            raise ConfigurationError(f"read_quorum must be within [1, {n}]")
        if not 1 <= write_quorum <= n:
            raise ConfigurationError(f"write_quorum must be within [1, {n}]")
        if read_quorum + write_quorum <= n:
            raise ConfigurationError(
                f"R + W must exceed N for quorum intersection "
                f"(got R={read_quorum}, W={write_quorum}, N={n})"
            )
        if anti_entropy_every is not None and anti_entropy_every < 1:
            raise ConfigurationError("anti_entropy_every must be at least 1")
        super().__init__(members, name=name, owns_members=owns_members, obs=obs)
        self.node_id = node_id
        self._read_quorum = read_quorum
        self._write_quorum = write_quorum
        self._read_repair = read_repair
        self._scheduler = scheduler
        self._anti_entropy_every = anti_entropy_every
        self._lamport = 0
        self._writes_since_round = 0
        self._trees = [MerkleTree(depth=merkle_depth) for _ in members]
        #: quorum writes acknowledged (W+ acks)
        self.writes = 0
        #: quorum reads resolved (R+ responses)
        self.reads = 0
        #: stale/missing members fixed synchronously during reads
        self.read_repairs = 0
        #: member write failures tolerated inside successful writes
        self.write_partial_failures = 0
        #: operations that succeeded with at least one member failure
        self.degraded_ops = 0
        #: operations failed fast on a lost quorum
        self.failed_fast = 0
        #: anti-entropy rounds completed
        self.antientropy_rounds = 0
        #: keys compared at key level during anti-entropy (divergent buckets only)
        self.antientropy_keys_scanned = 0
        #: member copies fixed by anti-entropy
        self.antientropy_keys_repaired = 0
        #: full member scans performed (tree rebuilds -- the expensive path)
        self.full_scans = 0

    # ------------------------------------------------------------------
    @property
    def read_quorum(self) -> int:
        return self._read_quorum

    @property
    def write_quorum(self) -> int:
        return self._write_quorum

    def tree(self, index: int) -> MerkleTree:
        """The anti-entropy tree tracking member *index* (inspection)."""
        return self._trees[index]

    # ------------------------------------------------------------------
    # Version stamps
    # ------------------------------------------------------------------
    def _next_stamp(self) -> VersionStamp:
        with self._lock:
            self._lamport += 1
            return VersionStamp(self._lamport, self.node_id)

    def _observe_stamp(self, stamp: VersionStamp) -> None:
        """Lamport merge: never issue a counter <= one we have seen."""
        with self._lock:
            if stamp.counter > self._lamport:
                self._lamport = stamp.counter

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        operation: str,
        needed: int,
        task: Callable[[int], Any],
        what: str,
        *,
        misses_answer: bool = False,
    ) -> list[tuple[int, Any]]:
        """``task(index)`` on every member's worker; the ``(index, answer)``
        pairs once *needed* answered, or the typed quorum error once more
        than ``N - needed`` failed.  Transitions run under the group lock,
        so the outcome is decided exactly once; the last member to finish
        settles the degraded accounting.  With *misses_answer* a miss
        answers ``_ABSENT``."""
        n = len(self._members)
        done: "queue.SimpleQueue[tuple[str, Exception | None]]" = queue.SimpleQueue()
        state: dict[str, Any] = {
            "answers": [], "failures": [], "pending": n, "outcome": None,
        }

        def run(index: int) -> None:
            answer: Any = _ABSENT
            error: Exception | None = None
            try:
                answer = task(index)
            except KeyNotFoundError as exc:
                error = None if misses_answer else exc
            except Exception as exc:  # noqa: BLE001 - reported, or the caller waits forever
                error = exc
            with self._lock:
                state["pending"] -= 1
                if error is None:
                    state["answers"].append((index, answer))
                    if state["outcome"] is None and len(state["answers"]) >= needed:
                        state["outcome"] = "ok"
                        done.put(("ok", None))
                else:
                    state["failures"].append(error)
                    if operation == "write":
                        self._count("write_partial_failures", "kv.quorum.write_partial")
                    elif self._obs.enabled:
                        self._obs.inc("kv.quorum.read_partial")
                    if state["outcome"] is None and len(state["failures"]) > n - needed:
                        state["outcome"] = "lost"
                        self._count("failed_fast", "kv.quorum.failed_fast")
                        if self._obs.enabled:
                            self._obs.emit(
                                "quorum_failed_fast", store=self.name, op=operation,
                                acks=len(state["answers"]), failures=len(state["failures"]),
                            )
                        done.put(("lost", error))
                if state["pending"] == 0:
                    self._finalize_op(state, operation)

        for index in range(n):
            self._submit(index, run, index)
        resolution = None
        while resolution is None:
            resolution = self._next_result(done, what)
        outcome, cause = resolution
        with self._lock:
            # Snapshot at resolution time: includes any straggler that
            # answered since -- it answered, so it is eligible for repair.
            answers, failures = list(state["answers"]), len(state["failures"])
        if outcome == "lost":
            lost = QuorumWriteError if operation == "write" else QuorumReadError
            error = lost(self.name, needed=needed, got=len(answers), failures=failures)
            error.__cause__ = cause
            raise error
        return answers

    def _finalize_op(self, state: dict, operation: str) -> None:
        """Op-level accounting, run by the last member to finish."""
        if state["outcome"] == "ok" and state["failures"]:
            self._count("degraded_ops", "kv.quorum.degraded")
            if self._obs.enabled:
                self._obs.emit(
                    "quorum_degraded",
                    store=self.name,
                    op=operation,
                    member_failures=len(state["failures"]),
                )

    def _apply(
        self, index: int, key: str, raw: Any, stamp: VersionStamp, tombstone: bool
    ) -> bool:
        """Write one envelope to member *index*; runs on that member's worker.

        Skipped (returns ``False``) when the member's tree records a newer
        stamp: the member holds a write that supersedes this one.  An equal
        stamp is the same write and is rewritten, which restores a copy the
        member lost out of band.  Every group write to a member comes
        through here on the member's one worker, so the check and the put
        cannot interleave with another group write -- a member never moves
        backwards.
        """
        tree = self._trees[index]
        with self._lock:
            held = tree.entry(key)
        if held is not None and held[0] > stamp:
            return False
        self._members[index].put(key, raw)
        with self._lock:
            tree.update(key, stamp, tombstone=tombstone)
        return True

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self.put_with_version(key, value)

    def put_with_version(self, key: str, value: Any) -> str:
        stamp = self._next_stamp()
        self._quorum_write(key, stamp, value, tombstone=False)
        return stamp.token()

    def _quorum_write(
        self, key: str, stamp: VersionStamp, value: Any, *, tombstone: bool
    ) -> None:
        raw = _wrap(stamp, value, tombstone=tombstone)
        self._fan_out(
            "write",
            self._write_quorum,
            lambda index: self._apply(index, key, raw, stamp, tombstone),
            f"quorum write of {key!r}",
        )
        self._count("writes", "kv.quorum.writes")
        with self._lock:
            self._writes_since_round += 1
            due = (
                self._anti_entropy_every is not None
                and self._writes_since_round >= self._anti_entropy_every
            )
            if due:
                self._writes_since_round = 0
        if due:
            self.schedule_anti_entropy()

    def delete(self, key: str) -> bool:
        existed = self.contains(key)
        self._quorum_write(key, self._next_stamp(), None, tombstone=True)
        return existed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        value, _stamp = self._quorum_read(key)
        return value

    def get_with_version(self, key: str) -> tuple[Any, str]:
        value, stamp = self._quorum_read(key)
        return value, stamp.token()

    def _quorum_read(self, key: str) -> tuple[Any, VersionStamp]:
        """Resolve *key* from an R-member quorum; read-repair stale answers.

        Raises :class:`KeyNotFoundError` when the winning state is absent
        or a tombstone, :class:`QuorumReadError` when fewer than R members
        can answer at all.
        """
        answers = self._fan_out(
            "read",
            self._read_quorum,
            lambda index: self._members[index].get(key),
            f"quorum read of {key!r}",
            misses_answer=True,
        )
        self._count("reads", "kv.quorum.reads")
        # Resolve: the highest stamp among the members that answered.
        stamps = {index: _unwrap(raw)[0] for index, raw in answers if raw is not _ABSENT}
        if not stamps:
            raise KeyNotFoundError(key, self.name)
        winner = max(stamps, key=stamps.__getitem__)
        raw = dict(answers)[winner]
        stamp, value, tombstone = _unwrap(raw)
        self._observe_stamp(stamp)
        if self._read_repair:
            stale = [i for i, _raw in answers if i not in stamps or stamps[i] < stamp]
            self._repair_answered(key, stamp, raw, tombstone, stale)
        if tombstone:
            raise KeyNotFoundError(key, self.name)
        return value, stamp

    def _repair_answered(
        self,
        key: str,
        stamp: VersionStamp,
        raw: Any,
        tombstone: bool,
        stale: list[int],
    ) -> None:
        """Push the winning envelope onto the *stale* members that answered.

        Only the members consulted by this read are touched (the others
        are anti-entropy's job).  Each repair is a write on the member's
        worker, waited for before the read returns; a member that took a
        newer write meanwhile skips it, and repair failures are tolerated
        -- the member just stays stale until the next read or round.
        """
        repairs = [
            (index, self._submit(index, self._apply, index, key, raw, stamp, tombstone))
            for index in stale
        ]
        for index, repair in repairs:
            try:
                if not repair.result():
                    continue
            except DataStoreError:
                continue
            self._count("read_repairs", "kv.quorum.read_repairs")
            if self._obs.enabled:
                self._obs.emit(
                    "quorum_read_repair",
                    store=self.name,
                    member=self._members[index].name,
                    key=key,
                    version=stamp.token(),
                )

    # ------------------------------------------------------------------
    # Key iteration
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys whose group-resolved state is live (tombstones excluded).

        Quorum-tracked keys resolve from the in-memory trees without
        touching any member; keys only a member knows about (pre-existing
        data) are resolved by best-effort member reads.
        """
        with self._lock:
            merged: dict[str, tuple[VersionStamp, bool]] = {}
            for tree in self._trees:
                for key, entry in tree.items():
                    if key not in merged or entry[0] > merged[key][0]:
                        merged[key] = entry
        yield from (key for key, (_stamp, tombstone) in merged.items() if not tombstone)
        # Legacy pass: anything a member holds that the trees never saw,
        # resolved by best-effort member reads.
        for key in self._member_keys():
            if key not in merged:
                entries = self._reachable(lambda member: _unwrap(member.get(key)))
                newest = max(entries, key=lambda entry: entry[0], default=None)
                if newest is not None and not newest[2]:
                    yield key

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def schedule_anti_entropy(self) -> None:
        """Submit one round to the scheduler (inline when none is set)."""
        if self._scheduler is not None:
            self._scheduler.submit(self._scheduled_round)
        else:
            self._scheduled_round()

    def _scheduled_round(self) -> None:
        try:
            self.anti_entropy_round()
        except DataStoreError:
            # Background rounds must never kill the scheduler; the next
            # round retries whatever this one could not reach.
            pass

    def anti_entropy_round(self) -> AntiEntropyReport:
        """Compare member trees pairwise and repair divergent ranges.

        Tree comparison is pure in-memory work; only keys inside divergent
        buckets are compared at key level, and only genuinely differing
        copies cost member reads/writes.  Member failures are tolerated
        (the round reports ``converged=False`` and the next round
        retries).
        """
        report = AntiEntropyReport()
        n = len(self._members)
        for left in range(n):
            for right in range(left + 1, n):
                self._reconcile_pair(left, right, report)
        report.converged = report.member_failures == 0 and self._in_sync()
        self._count("antientropy_rounds", "kv.antientropy.rounds")
        self._count(
            "antientropy_keys_scanned", "kv.antientropy.keys_scanned", report.keys_scanned
        )
        self._count(
            "antientropy_keys_repaired", "kv.antientropy.keys_repaired", report.keys_repaired
        )
        if self._obs.enabled:
            self._obs.inc("kv.antientropy.buckets_divergent", report.buckets_divergent)
            self._obs.emit(
                "antientropy_round",
                store=self.name,
                pairs=report.pairs_compared,
                buckets_divergent=report.buckets_divergent,
                keys_scanned=report.keys_scanned,
                keys_repaired=report.keys_repaired,
                converged=report.converged,
            )
        return report

    def _in_sync(self) -> bool:
        with self._lock:
            roots = {tree.root() for tree in self._trees}
        return len(roots) == 1

    def _reconcile_pair(self, left: int, right: int, report: AntiEntropyReport) -> None:
        with self._lock:
            divergent, compared = self._trees[left].diff(self._trees[right])
        report.pairs_compared += 1
        report.nodes_compared += compared
        report.buckets_divergent += len(divergent)
        for bucket in divergent:
            with self._lock:
                left_entries = dict(self._trees[left].bucket_entries(bucket))
                right_entries = dict(self._trees[right].bucket_entries(bucket))
            for key in set(left_entries) | set(right_entries):
                mine = left_entries.get(key)
                theirs = right_entries.get(key)
                if mine == theirs:
                    continue
                report.keys_scanned += 1
                if theirs is None or (mine is not None and mine[0] > theirs[0]):
                    source, target = left, right
                else:
                    source, target = right, left
                outcome = self._copy_entry(key, source, target)
                if outcome == _COPIED:
                    report.keys_repaired += 1
                    if self._members[target].name not in report.repaired_members:
                        report.repaired_members.append(self._members[target].name)
                elif outcome == _FAILED:
                    report.member_failures += 1

    def _copy_entry(self, key: str, source: int, target: int) -> str:
        """Copy the authoritative copy of *key* from one member to another
        (a write on the target's worker).  Returns :data:`_COPIED` when the
        copy landed, :data:`_SKIPPED` when there was nothing to copy (the
        target already held a newer write, or the source had lost the key)
        and :data:`_FAILED` when a member could not be reached."""
        try:
            raw = self._members[source].get(key)
        except KeyNotFoundError:
            # The tree is ahead of the member (lost out of band): trust the
            # member and forget the entry so the other side wins next round.
            with self._lock:
                self._trees[source].discard(key)
            return _SKIPPED
        except DataStoreError:
            return _FAILED
        stamp, _value, tombstone = _unwrap(raw)
        try:
            copy = self._submit(target, self._apply, target, key, raw, stamp, tombstone)
            return _COPIED if copy.result() else _SKIPPED
        except DataStoreError:
            return _FAILED

    def rebuild_trees(self) -> int:
        """Full-scan fallback: rebuild every reachable member's tree.

        The expensive path tree maintenance exists to avoid -- needed only
        when members changed out of band (or the group was just attached
        to pre-existing stores, e.g. by ``repro quorum``).  Returns keys
        scanned; counted in ``kv.antientropy.full_scans``.
        """
        scanned = 0
        for index, member in enumerate(self._members):
            try:
                member_keys = list(member.keys())
                entries = []
                for key in member_keys:
                    stamp, _value, tombstone = _unwrap(member.get(key))
                    entries.append((key, stamp, tombstone))
            except DataStoreError:
                continue  # unreachable: keep the old tree
            scanned += len(entries)
            with self._lock:
                tree = self._trees[index]
                tree.clear()
                for key, stamp, tombstone in entries:
                    tree.update(key, stamp, tombstone=tombstone)
                self.full_scans += 1
        if self._obs.enabled:
            self._obs.inc("kv.antientropy.full_scans")
        return scanned

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Group configuration, member tree roots, and counters."""
        with self._lock:
            members = [
                {
                    "name": member.name,
                    "tracked_keys": tree.tracked,
                    "merkle_root": tree.root(),
                }
                for member, tree in zip(self._members, self._trees)
            ]
            lamport = self._lamport
            counters = {name: getattr(self, name) for name in self._COUNTERS}
        roots = {entry["merkle_root"] for entry in members}
        return {
            "name": self.name,
            "n": len(self._members),
            "r": self._read_quorum,
            "w": self._write_quorum,
            "node_id": self.node_id,
            "lamport": lamport,
            "in_sync": len(roots) == 1,
            "members": members,
            "counters": counters,
        }

    def native(self) -> Any:
        return None
