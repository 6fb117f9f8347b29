"""Consistent-hash ring and sharded cache."""

from __future__ import annotations

import bisect
import hashlib

import pytest

from repro.caching import HashRing, InProcessCache, MISS, ShardedCache
from repro.errors import CacheError, ConfigurationError


class TestHashRing:
    def test_single_member_owns_everything(self):
        ring = HashRing()
        ring.add("only")
        assert all(ring.locate(f"k{i}") == "only" for i in range(50))

    def test_empty_ring_raises(self):
        with pytest.raises(CacheError):
            HashRing().locate("k")

    def test_placement_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for ring in (a, b):
            for member in ("s1", "s2", "s3"):
                ring.add(member)
        assert all(a.locate(f"k{i}") == b.locate(f"k{i}") for i in range(200))

    def test_distribution_roughly_uniform(self):
        ring = HashRing(replicas=128)
        for member in ("s1", "s2", "s3", "s4"):
            ring.add(member)
        counts = {member: 0 for member in ring.members}
        total = 4_000
        for i in range(total):
            counts[ring.locate(f"key-{i}")] += 1
        expected = total / 4
        for member, count in counts.items():
            assert expected * 0.5 < count < expected * 1.5, counts

    def test_adding_member_remaps_about_one_nth(self):
        ring = HashRing(replicas=128)
        for member in ("s1", "s2", "s3"):
            ring.add(member)
        keys = [f"key-{i}" for i in range(3_000)]
        before = {key: ring.locate(key) for key in keys}
        ring.add("s4")
        moved = sum(1 for key in keys if ring.locate(key) != before[key])
        # Consistent hashing: ~1/4 of keys move (modulo hashing would move ~3/4).
        assert 0.12 < moved / len(keys) < 0.40

    def test_removed_members_keys_move_others_stay(self):
        ring = HashRing(replicas=128)
        for member in ("s1", "s2", "s3"):
            ring.add(member)
        keys = [f"key-{i}" for i in range(2_000)]
        before = {key: ring.locate(key) for key in keys}
        ring.remove("s2")
        for key in keys:
            if before[key] != "s2":
                assert ring.locate(key) == before[key]  # unaffected keys stay
            else:
                assert ring.locate(key) in ("s1", "s3")

    def test_duplicate_add_remove_are_noops(self):
        ring = HashRing()
        ring.add("s1")
        ring.add("s1")
        assert len(ring) == 1
        ring.remove("ghost")

    def test_invalid_replicas(self):
        with pytest.raises(ConfigurationError):
            HashRing(replicas=0)

    def test_placement_of_utf8_keys_is_sha1_of_their_utf8_bytes(self):
        """Ring placement (and so cluster ownership) of a UTF-8 key is
        pinned to SHA-1 over its UTF-8 bytes: moving it would strand every
        key a running cluster holds."""

        def position(text: str) -> int:
            return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")

        members = ("s1", "s2", "s3")
        ring = HashRing(replicas=16)
        for member in members:
            ring.add(member)
        reference = sorted((position(f"{m}#{r}"), m) for m in members for r in range(16))
        for i in range(200):
            key = f"key-{i}-ключ-{'鍵' * (i % 3)}"
            index = bisect.bisect_left(reference, (position(key), "")) % len(reference)
            assert ring.locate(key) == reference[index][1], key

    def test_surrogate_escaped_key_is_placed(self):
        ring = HashRing()
        ring.add("s1")
        ring.add("s2")
        assert ring.locate("\udcff\udcfe-k") in ("s1", "s2")


class TestShardedCache:
    def make(self, count=3, **kwargs):
        shards = {f"s{i}": InProcessCache(name=f"s{i}") for i in range(count)}
        return ShardedCache(shards, **kwargs), shards

    def test_basic_operations(self):
        cache, _shards = self.make()
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.get("ghost") is MISS
        assert cache.delete("k")
        assert cache.get("k") is MISS

    def test_each_key_lives_on_exactly_one_shard(self):
        cache, shards = self.make()
        for i in range(100):
            cache.put(f"k{i}", i)
        for i in range(100):
            holders = [name for name, shard in shards.items()
                       if shard.get_quiet(f"k{i}") is not MISS]
            assert len(holders) == 1

    def test_load_spreads_across_shards(self):
        cache, _shards = self.make(4)
        for i in range(1_000):
            cache.put(f"k{i}", i)
        distribution = cache.distribution()
        assert all(count > 0 for count in distribution.values())
        assert max(distribution.values()) < 1_000 * 0.6

    def test_size_clear_keys_aggregate(self):
        cache, _shards = self.make()
        for i in range(30):
            cache.put(f"k{i}", i)
        assert cache.size() == 30
        assert len(set(cache.keys())) == 30
        assert cache.clear() == 30
        assert cache.size() == 0

    def test_scale_out_keeps_most_keys_resident(self):
        cache, _shards = self.make(3)
        for i in range(900):
            cache.put(f"k{i}", i)
        cache.add_shard("s3", InProcessCache(name="s3"))
        resident = sum(1 for i in range(900) if cache.get_quiet(f"k{i}") is not MISS)
        # ~1/4 of keys remapped to the new (empty) shard and now miss.
        assert resident > 900 * 0.55
        assert "s3" in cache.shard_names

    def test_remove_shard(self):
        cache, _shards = self.make(3)
        cache.put("k", 1)
        removed = cache.remove_shard("s0")
        assert removed.name == "s0"
        assert len(cache.shard_names) == 2
        cache.put("still-works", 2)
        assert cache.get("still-works") == 2

    def test_shard_management_validation(self):
        cache, _shards = self.make(2)
        with pytest.raises(ConfigurationError):
            cache.add_shard("s0", InProcessCache())
        with pytest.raises(ConfigurationError):
            cache.remove_shard("ghost")
        with pytest.raises(ConfigurationError):
            ShardedCache({})

    def test_stats_aggregate_at_composite(self):
        cache, _shards = self.make()
        cache.put("k", 1)
        cache.get("k")
        cache.get("ghost")
        snap = cache.stats.snapshot()
        assert (snap.hits, snap.misses, snap.puts) == (1, 1, 1)

    def test_works_under_expiring_cache(self):
        from repro.caching import ExpiringCache, Freshness

        cache, _shards = self.make()
        expiring = ExpiringCache(cache, default_ttl=100)
        expiring.put("k", "v", version="v1")
        assert expiring.lookup("k").freshness is Freshness.FRESH
