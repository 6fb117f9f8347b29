"""Expiration management above the cache: the paper's Section III semantics."""

from __future__ import annotations

import pytest

from repro.caching import (
    MISS,
    CacheEntry,
    ExpiringCache,
    Freshness,
    InProcessCache,
)
from repro.errors import ConfigurationError


def make(default_ttl=None):
    return ExpiringCache(InProcessCache(), default_ttl=default_ttl)


class TestFreshness:
    def test_fresh_entry(self):
        cache = make()
        cache.put("k", "value", ttl=100, now=1000.0)
        result = cache.lookup("k", now=1050.0)
        assert result.freshness is Freshness.FRESH
        assert result.hit
        assert result.value == "value"

    def test_expired_entry_is_retained_not_dropped(self):
        """The core paper behaviour: expiry does not purge."""
        cache = make()
        cache.put("k", "value", ttl=10, version="v1", now=1000.0)
        result = cache.lookup("k", now=2000.0)
        assert result.freshness is Freshness.EXPIRED
        assert result.entry is not None
        assert result.entry.value == "value"      # still there
        assert result.entry.version == "v1"       # revalidation token intact
        assert cache.size() == 1                   # nothing was purged

    def test_miss(self):
        result = make().lookup("absent")
        assert result.freshness is Freshness.MISS
        assert result.entry is None
        assert not result.hit

    def test_value_raises_unless_fresh(self):
        cache = make()
        cache.put("k", "v", ttl=1, now=0.0)
        expired = cache.lookup("k", now=100.0)
        with pytest.raises(LookupError):
            _ = expired.value

    def test_lookup_result_is_immutable(self):
        cache = make()
        cache.put("k", "v")
        result = cache.lookup("k")
        with pytest.raises(AttributeError):
            result.freshness = Freshness.MISS
        freshness, entry = result  # a plain tuple underneath
        assert freshness is Freshness.FRESH and entry.value == "v"

    def test_no_ttl_never_expires(self):
        cache = make()
        cache.put("k", "v", ttl=None, now=0.0)
        assert cache.lookup("k", now=10**9).freshness is Freshness.FRESH

    def test_default_ttl_applies(self):
        cache = make(default_ttl=60)
        cache.put("k", "v", now=0.0)
        assert cache.lookup("k", now=30.0).freshness is Freshness.FRESH
        assert cache.lookup("k", now=61.0).freshness is Freshness.EXPIRED

    def test_explicit_ttl_overrides_default(self):
        cache = make(default_ttl=60)
        cache.put("k", "v", ttl=10, now=0.0)
        assert cache.lookup("k", now=30.0).freshness is Freshness.EXPIRED

    def test_expired_hit_recorded_in_stats(self):
        cache = make()
        cache.put("k", "v", ttl=1, now=0.0)
        cache.lookup("k", now=100.0)
        assert cache.cache.stats.snapshot().expired_hits == 1


class TestRefresh:
    def test_refresh_restarts_clock(self):
        cache = make()
        cache.put("k", "v", ttl=10, version="v1", now=0.0)
        assert cache.lookup("k", now=20.0).freshness is Freshness.EXPIRED
        cache.refresh("k", ttl=10, version="v1", now=20.0)
        assert cache.lookup("k", now=25.0).freshness is Freshness.FRESH

    def test_refresh_updates_version(self):
        cache = make()
        cache.put("k", "v", ttl=10, version="old", now=0.0)
        cache.refresh("k", ttl=10, version="new", now=20.0)
        assert cache.lookup("k", now=21.0).entry.version == "new"

    def test_refresh_keeps_value(self):
        cache = make()
        cache.put("k", "precious", ttl=10, now=0.0)
        cache.refresh("k", ttl=10, now=20.0)
        assert cache.lookup("k", now=21.0).value == "precious"

    def test_refresh_missing_returns_none(self):
        assert make().refresh("ghost") is None


class TestFacade:
    def test_get_treats_expired_as_miss(self):
        cache = make()
        cache.put("k", "v", ttl=1, now=0.0)
        assert cache.get("k", now=100.0) is MISS
        assert cache.get("k", now=0.5) == "v"

    def test_bare_values_tolerated(self):
        """Values cached without the manager behave as never-expiring."""
        inner = InProcessCache()
        inner.put("bare", "raw-value")
        cache = ExpiringCache(inner)
        result = cache.lookup("bare")
        assert result.freshness is Freshness.FRESH
        assert result.value == "raw-value"

    def test_purge_expired(self):
        cache = make()
        cache.put("dead", "v", ttl=1, now=0.0)
        cache.put("alive", "v", ttl=1000, now=0.0)
        assert cache.purge_expired(now=100.0) == 1
        assert cache.size() == 1

    def test_delete_and_clear(self):
        cache = make()
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.delete("a")
        assert cache.clear() == 1

    def test_invalid_ttls_rejected(self):
        with pytest.raises(ConfigurationError):
            make(default_ttl=-5)
        with pytest.raises(ConfigurationError):
            make().put("k", "v", ttl=0)


class TestCacheEntry:
    def test_remaining_ttl(self):
        entry = CacheEntry("v", expires_at=100.0)
        assert entry.remaining_ttl(now=40.0) == pytest.approx(60.0)
        assert CacheEntry("v").remaining_ttl() is None

    def test_is_expired_boundary(self):
        entry = CacheEntry("v", expires_at=100.0)
        assert not entry.is_expired(now=99.999)
        assert entry.is_expired(now=100.0)

    def test_refreshed_copy(self):
        entry = CacheEntry("v", expires_at=10.0, version="a", cached_at=0.0)
        fresh = entry.refreshed(ttl=50, version="b", now=100.0)
        assert fresh.value == "v"
        assert fresh.expires_at == pytest.approx(150.0)
        assert fresh.version == "b"
        assert entry.expires_at == 10.0  # original untouched

    def test_refreshed_keeps_old_version_when_none_given(self):
        entry = CacheEntry("v", version="keep-me")
        assert entry.refreshed(ttl=None, version=None).version == "keep-me"
