"""The workload generator (paper Sections II.A and V).

"The workload generator automatically generates requests over a range of
different request sizes specified by the user. ... Alternatively, users can
provide their own data objects for performance tests either by placing the
data in input files or writing a user-defined method to provide the data.
The workload generator also determines read latencies when caching is being
used for different hit rates specified by the user.  Additionally, the
workload generator also measures the overhead of encryption and
compression."

This module implements all of that against the common key-value interface,
so it runs unchanged over every registered store.  The hit-rate methodology
is the paper's own: measure the no-cache latency and the 100%-hit latency,
then extrapolate intermediate hit rates linearly
(``L(h) = h * L_hit + (1 - h) * L_nocache``); a separate *measured* mixed
workload is provided to validate the extrapolation.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..caching.interface import Cache
from ..compression.interface import Compressor
from ..core.enhanced import EnhancedDataStoreClient
from ..errors import WorkloadError
from ..kv.interface import KeyValueStore
from ..security.interface import Encryptor
from .report import write_dat

__all__ = [
    "random_payload",
    "compressible_payload",
    "payloads_from_files",
    "SweepPoint",
    "SweepResult",
    "HitRateCurve",
    "CachedReadSpec",
    "CodecTiming",
    "WorkloadGenerator",
    "DEFAULT_SIZES",
]

#: Paper-style log-scale size sweep: 1 B .. 1 MB.
DEFAULT_SIZES: tuple[int, ...] = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

#: Default runs averaged per data point (paper: "averaged over 4 runs").
DEFAULT_REPEATS = 4


# ----------------------------------------------------------------------
# Payload sources
# ----------------------------------------------------------------------
def random_payload(size: int, index: int = 0, *, seed: int = 0) -> bytes:
    """Incompressible pseudorandom bytes (deterministic per size/index)."""
    return random.Random(f"{seed}/{size}/{index}").randbytes(size)


_WORDS = (
    b"data", b"store", b"client", b"cache", b"latency", b"object", b"cloud",
    b"request", b"key", b"value", b"server", b"update", b"read", b"write",
)


def compressible_payload(size: int, index: int = 0, *, seed: int = 0) -> bytes:
    """Text-like bytes with realistic redundancy (compresses well)."""
    rng = random.Random(f"{seed}/{size}/{index}/text")
    parts: list[bytes] = []
    length = 0
    while length < size:
        word = _WORDS[rng.randrange(len(_WORDS))]
        parts.append(word)
        parts.append(b" ")
        length += len(word) + 1
    return b"".join(parts)[:size]


def payloads_from_files(paths: Iterable[str | os.PathLike[str]]) -> list[bytes]:
    """Load user-supplied test objects from files (the paper's input-file
    option); returned payloads are used verbatim at their natural sizes."""
    payloads = []
    for path in paths:
        payloads.append(Path(path).read_bytes())
    if not payloads:
        raise WorkloadError("no payload files given")
    return payloads


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    """Latency samples for one object size."""

    size: int
    samples: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0


@dataclass
class SweepResult:
    """A size sweep for one (store, operation)."""

    store: str
    operation: str
    points: list[SweepPoint]

    def mean_ms(self) -> list[tuple[int, float]]:
        """(size, mean latency in ms) series, ready for plotting."""
        return [(p.size, p.mean * 1e3) for p in self.points]

    def point_for(self, size: int) -> SweepPoint:
        for point in self.points:
            if point.size == size:
                return point
        raise WorkloadError(f"no data point for size {size}")

    def write_dat(self, path: str | os.PathLike[str]) -> None:
        """Write ``size mean_ms stdev_ms min_ms max_ms`` columns."""
        write_dat(
            path,
            ("size_bytes", "mean_ms", "stdev_ms", "min_ms", "max_ms"),
            (
                (p.size, p.mean * 1e3, p.stdev * 1e3, p.minimum * 1e3, p.maximum * 1e3)
                for p in self.points
            ),
        )


@dataclass
class HitRateCurve:
    """Read latency vs size at several cache hit rates (one paper figure).

    ``curves`` maps hit rate (0.0-1.0) to a (size, latency_seconds) series.
    """

    store: str
    cache_name: str
    no_cache: SweepResult
    full_hit: SweepResult
    hit_rates: tuple[float, ...]

    @property
    def curves(self) -> dict[float, list[tuple[int, float]]]:
        """Extrapolated series per hit rate (paper methodology)."""
        result: dict[float, list[tuple[int, float]]] = {}
        for rate in self.hit_rates:
            series: list[tuple[int, float]] = []
            for nc_point in self.no_cache.points:
                hit_point = self.full_hit.point_for(nc_point.size)
                latency = rate * hit_point.mean + (1.0 - rate) * nc_point.mean
                series.append((nc_point.size, latency))
            result[rate] = series
        return result

    def write_dat(self, path: str | os.PathLike[str]) -> None:
        """One row per size; one latency column (ms) per hit rate."""
        header = ["size_bytes"] + [f"hit_{int(rate * 100)}pct_ms" for rate in self.hit_rates]
        curves = self.curves
        rows = []
        for index, nc_point in enumerate(self.no_cache.points):
            row: list[object] = [nc_point.size]
            for rate in self.hit_rates:
                row.append(curves[rate][index][1] * 1e3)
            rows.append(row)
        write_dat(path, header, rows)


@dataclass(frozen=True)
class CachedReadSpec:
    """Parameters of a cached-read experiment."""

    hit_rates: tuple[float, ...] = (0.0, 0.25, 0.50, 0.75, 1.0)
    ttl: float | None = None


@dataclass
class CodecTiming:
    """Encode/decode timing sweep for an encryptor or compressor."""

    codec: str
    encode: SweepResult
    decode: SweepResult
    output_sizes: list[tuple[int, int]]  # (input size, output size)


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
class WorkloadGenerator:
    """Drives stores, caches, and codecs through measured workloads."""

    def __init__(
        self,
        *,
        sizes: Sequence[int] = DEFAULT_SIZES,
        repeats: int = DEFAULT_REPEATS,
        payload: Callable[[int, int], bytes] = random_payload,
        key_prefix: str = "wl",
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """Configure a generator.

        :param sizes: object sizes to sweep (paper: user-specified range).
        :param repeats: runs averaged per data point.
        :param payload: user-definable payload source ``(size, index) -> bytes``
            (the paper's user-defined-method option); defaults to
            incompressible random bytes.
        :param clock: timestamp source (injectable for tests).
        """
        if not sizes:
            raise WorkloadError("sizes must be non-empty")
        if any(size < 0 for size in sizes):
            raise WorkloadError("sizes must be non-negative")
        if repeats < 1:
            raise WorkloadError("repeats must be at least 1")
        self.sizes = tuple(sizes)
        self.repeats = repeats
        self._payload = payload
        self._key_prefix = key_prefix
        self._seed = seed
        self._clock = clock

    # ------------------------------------------------------------------
    def _key(self, size: int, run: int) -> str:
        return f"{self._key_prefix}:{size}:{run}"

    def _time(self, thunk: Callable[[], object]) -> float:
        start = self._clock()
        thunk()
        return self._clock() - start

    # ------------------------------------------------------------------
    # Plain store sweeps (Figures 9 and 10)
    # ------------------------------------------------------------------
    def measure_writes(self, store: KeyValueStore, *, cleanup: bool = True) -> SweepResult:
        """Write latency per size: each sample is one timed ``put``."""
        points = []
        for size in self.sizes:
            point = SweepPoint(size)
            for run in range(self.repeats):
                payload = self._payload(size, run)
                key = self._key(size, run)
                point.samples.append(self._time(lambda: store.put(key, payload)))
            points.append(point)
        if cleanup:
            self._cleanup(store)
        return SweepResult(store.name, "write", points)

    def measure_reads(self, store: KeyValueStore, *, cleanup: bool = True) -> SweepResult:
        """Read latency per size: keys are pre-populated, then timed ``get``s."""
        for size in self.sizes:
            for run in range(self.repeats):
                store.put(self._key(size, run), self._payload(size, run))
        points = []
        for size in self.sizes:
            point = SweepPoint(size)
            for run in range(self.repeats):
                key = self._key(size, run)
                point.samples.append(self._time(lambda: store.get(key)))
            points.append(point)
        if cleanup:
            self._cleanup(store)
        return SweepResult(store.name, "read", points)

    def _cleanup(self, store: KeyValueStore) -> None:
        for size in self.sizes:
            for run in range(self.repeats):
                store.delete(self._key(size, run))

    # ------------------------------------------------------------------
    # Cached reads (Figures 11-19)
    # ------------------------------------------------------------------
    def measure_cached_reads(
        self,
        store: KeyValueStore,
        cache: Cache,
        spec: CachedReadSpec = CachedReadSpec(),
    ) -> HitRateCurve:
        """The paper's cached-read experiment for one (store, cache) pair.

        Measures the no-cache read latency and the 100%-hit latency, then
        extrapolates the requested intermediate hit rates.  The cache is
        cleared afterwards; the store's keys are cleaned up.
        """
        no_cache = self.measure_reads(store, cleanup=False)

        client = EnhancedDataStoreClient(store, cache=cache, default_ttl=spec.ttl)
        points = []
        for size in self.sizes:
            point = SweepPoint(size)
            for run in range(self.repeats):
                key = self._key(size, run)
                client.get(key)  # warm: populates the cache
                point.samples.append(self._time(lambda: client.get(key)))
            points.append(point)
        full_hit = SweepResult(f"{store.name}+{cache.name}", "read-hit", points)

        cache.clear()
        self._cleanup(store)
        return HitRateCurve(
            store=store.name,
            cache_name=cache.name,
            no_cache=no_cache,
            full_hit=full_hit,
            hit_rates=spec.hit_rates,
        )

    def measure_mixed_reads(
        self,
        store: KeyValueStore,
        cache: Cache,
        *,
        hit_rate: float,
        size: int,
        operations: int = 200,
        ttl: float | None = None,
    ) -> tuple[float, float]:
        """*Measured* (not extrapolated) mean read latency at a target hit
        rate: each read is a cache hit with probability *hit_rate*, a forced
        miss otherwise.  Returns ``(mean_latency_s, achieved_hit_rate)``.

        Used to validate the extrapolation the figures rely on.
        """
        if not 0.0 <= hit_rate <= 1.0:
            raise WorkloadError("hit_rate must be within [0, 1]")
        client = EnhancedDataStoreClient(store, cache=cache, default_ttl=ttl)
        key = self._key(size, 0)
        store.put(key, self._payload(size, 0))
        client.get(key)  # warm
        rng = random.Random(f"{self._seed}/mixed/{size}")
        latencies = []
        for _ in range(operations):
            if rng.random() >= hit_rate:
                client.invalidate(key)  # forces the next read to miss
            latencies.append(self._time(lambda: client.get(key)))
        achieved = client.counters.hit_rate
        cache.clear()
        store.delete(key)
        return statistics.fmean(latencies), achieved

    # ------------------------------------------------------------------
    # Codec overheads (Figures 20 and 21)
    # ------------------------------------------------------------------
    def measure_encryptor(self, encryptor: Encryptor) -> CodecTiming:
        """Encryption/decryption time per size (paper Figure 20)."""
        return self._measure_codec(
            encryptor.name, encryptor.encrypt, encryptor.decrypt
        )

    def measure_compressor(
        self,
        compressor: Compressor,
        *,
        payload: Callable[[int, int], bytes] | None = None,
    ) -> CodecTiming:
        """Compression/decompression time per size (paper Figure 21).

        Defaults to *compressible* payloads -- timing gzip on random bytes
        measures its worst case, not its typical one.
        """
        source = payload if payload is not None else compressible_payload
        return self._measure_codec(
            compressor.name, compressor.compress, compressor.decompress, payload=source
        )

    def _measure_codec(
        self,
        name: str,
        encode: Callable[[bytes], bytes],
        decode: Callable[[bytes], bytes],
        *,
        payload: Callable[[int, int], bytes] | None = None,
    ) -> CodecTiming:
        source = payload if payload is not None else self._payload
        encode_points, decode_points, output_sizes = [], [], []
        for size in self.sizes:
            enc_point, dec_point = SweepPoint(size), SweepPoint(size)
            encoded = b""
            for run in range(self.repeats):
                data = source(size, run)
                start = self._clock()
                encoded = encode(data)
                enc_point.samples.append(self._clock() - start)
                start = self._clock()
                decode(encoded)
                dec_point.samples.append(self._clock() - start)
            encode_points.append(enc_point)
            decode_points.append(dec_point)
            output_sizes.append((size, len(encoded)))
        return CodecTiming(
            codec=name,
            encode=SweepResult(name, "encode", encode_points),
            decode=SweepResult(name, "decode", decode_points),
            output_sizes=output_sizes,
        )

    # ------------------------------------------------------------------
    # Multi-store comparison (the "easily compare data stores" feature)
    # ------------------------------------------------------------------
    def compare_stores(
        self, stores: Iterable[KeyValueStore]
    ) -> dict[str, dict[str, SweepResult]]:
        """Read and write sweeps for several stores in one call.

        Returns ``{store_name: {"read": ..., "write": ...}}``.
        """
        results: dict[str, dict[str, SweepResult]] = {}
        for store in stores:
            results[store.name] = {
                "write": self.measure_writes(store, cleanup=False),
                "read": self.measure_reads(store, cleanup=True),
            }
        return results
