"""Model-based (stateful) tests with hypothesis.

Hypothesis drives random operation sequences against a real component and
a trivially correct in-memory model in lockstep; any divergence is a bug
and hypothesis shrinks the sequence to a minimal reproduction.  This is
the strongest correctness net we have over the KV contract, the expiring
cache, and the delta chain manager.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.caching import MISS, ExpiringCache, Freshness, InProcessCache
from repro.delta import DeltaStoreManager
from repro.errors import KeyNotFoundError
from repro.kv import InMemoryStore, LSMStore, NamespacedStore, SQLStore

KEYS = st.sampled_from([f"k{i}" for i in range(8)])
VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.binary(max_size=64),
    st.text(max_size=32),
    st.lists(st.integers(), max_size=8),
)


class StoreModelMachine(RuleBasedStateMachine):
    """A KeyValueStore must behave exactly like a dict."""

    def __init__(self):
        super().__init__()
        self.store = self.make_store()
        self.model: dict[str, object] = {}

    def make_store(self):
        return InMemoryStore()

    # ------------------------------------------------------------------
    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def get(self, key):
        if key in self.model:
            assert self.store.get(key) == self.model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                self.store.get(key)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.store.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(items=st.dictionaries(KEYS, VALUES, max_size=8))
    def put_many(self, items):
        self.store.put_many(items)
        self.model.update(items)

    @rule(keys=st.lists(KEYS, max_size=8))
    def delete_many(self, keys):
        # Duplicates count once: the second delete finds the key gone.
        assert self.store.delete_many(keys) == len(set(keys) & set(self.model))
        for key in keys:
            self.model.pop(key, None)

    @rule(keys=st.lists(KEYS, max_size=8))
    def get_many(self, keys):
        assert self.store.get_many(keys) == {
            key: self.model[key] for key in keys if key in self.model
        }

    @rule(key=KEYS)
    def contains(self, key):
        assert self.store.contains(key) == (key in self.model)

    @rule(key=KEYS)
    def versions_track_changes(self, key):
        if key in self.model:
            value, version = self.store.get_with_version(key)
            assert value == self.model[key]
            assert self.store.check_version(key, version)

    @rule()
    def clear(self):
        assert self.store.clear() == len(self.model)
        self.model.clear()

    # ------------------------------------------------------------------
    @invariant()
    def sizes_match(self):
        assert self.store.size() == len(self.model)

    @invariant()
    def keys_match(self):
        assert set(self.store.keys()) == set(self.model)


class SQLStoreMachine(StoreModelMachine):
    def make_store(self):
        return SQLStore(synchronous="OFF")


class NamespacedStoreMachine(StoreModelMachine):
    def make_store(self):
        return NamespacedStore(InMemoryStore(), "ns")


class LSMStoreMachine(StoreModelMachine):
    """Tiny memtable and three-record chunks: batches span chunk cuts,
    seals, flushes and compactions within a few steps."""

    def make_store(self):
        self.root = tempfile.mkdtemp(prefix="lsm-stateful-")
        return LSMStore(self.root, memtable_bytes=256, wal_batch_records=3)

    @rule()
    def flush(self):
        self.store.flush()

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)


TestInMemoryStoreModel = StoreModelMachine.TestCase
TestSQLStoreModel = SQLStoreMachine.TestCase
TestNamespacedStoreModel = NamespacedStoreMachine.TestCase
TestLSMStoreModel = LSMStoreMachine.TestCase
for case in (
    TestInMemoryStoreModel,
    TestSQLStoreModel,
    TestNamespacedStoreModel,
    TestLSMStoreModel,
):
    case.settings = settings(max_examples=25, stateful_step_count=30, deadline=None)


class ExpiringCacheMachine(RuleBasedStateMachine):
    """ExpiringCache under a controllable clock must match a model of
    {key: (value, expires_at)} exactly."""

    def __init__(self):
        super().__init__()
        self.cache = ExpiringCache(InProcessCache())
        self.model: dict[str, tuple[object, float | None]] = {}
        self.now = 1_000.0

    @rule(key=KEYS, value=VALUES, ttl=st.one_of(st.none(), st.floats(1, 100)))
    def put(self, key, value, ttl):
        self.cache.put(key, value, ttl=ttl, now=self.now)
        self.model[key] = (value, None if ttl is None else self.now + ttl)

    @rule(delta=st.floats(0.5, 60))
    def advance_time(self, delta):
        self.now += delta

    @rule(key=KEYS)
    def lookup(self, key):
        result = self.cache.lookup(key, now=self.now)
        if key not in self.model:
            assert result.freshness is Freshness.MISS
            return
        value, expires_at = self.model[key]
        if expires_at is not None and self.now >= expires_at:
            assert result.freshness is Freshness.EXPIRED
            assert result.entry is not None and result.entry.value == value
        else:
            assert result.freshness is Freshness.FRESH
            assert result.value == value

    @rule(key=KEYS)
    def facade_get(self, key):
        value = self.cache.get(key, now=self.now)
        if key in self.model:
            stored, expires_at = self.model[key]
            if expires_at is None or self.now < expires_at:
                assert value == stored
                return
        assert value is MISS

    @rule(key=KEYS)
    def delete(self, key):
        assert self.cache.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(key=KEYS, ttl=st.floats(1, 100))
    def refresh(self, key, ttl):
        refreshed = self.cache.refresh(key, ttl=ttl, now=self.now)
        if key in self.model:
            assert refreshed is not None
            value, _old = self.model[key]
            self.model[key] = (value, self.now + ttl)
        else:
            assert refreshed is None

    @invariant()
    def entry_count_matches(self):
        # Expired entries are RETAINED (the paper's rule), so sizes match
        # the model exactly regardless of the clock.
        assert self.cache.size() == len(self.model)


TestExpiringCacheModel = ExpiringCacheMachine.TestCase
TestExpiringCacheModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class DeltaManagerMachine(RuleBasedStateMachine):
    """The delta chain manager must be indistinguishable from a plain dict,
    regardless of how updates were encoded, chained, or consolidated."""

    def __init__(self):
        super().__init__()
        self.manager = DeltaStoreManager(InMemoryStore(), consolidate_after=3)
        self.model: dict[str, object] = {}

    docs = st.sampled_from(["doc1", "doc2"])

    @rule(key=docs, seed=st.integers(0, 5), size=st.integers(0, 400))
    def put(self, key, seed, size):
        # Values share structure across puts so deltas actually occur.
        value = {"seed": seed, "body": f"chunk{seed} " * size}
        self.manager.put(key, value)
        self.model[key] = value

    @rule(key=docs)
    def get(self, key):
        if key in self.model:
            assert self.manager.get(key) == self.model[key]
        else:
            with pytest.raises(KeyNotFoundError):
                self.manager.get(key)

    @rule(key=docs)
    def consolidate(self, key):
        if key in self.model:
            self.manager.consolidate(key)
            assert self.manager.outstanding_deltas(key) == 0
            assert self.manager.get(key) == self.model[key]

    @rule(key=docs)
    def delete(self, key):
        assert self.manager.delete(key) == (key in self.model)
        self.model.pop(key, None)


TestDeltaManagerModel = DeltaManagerMachine.TestCase
TestDeltaManagerModel.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
