"""WorkloadGenerator: sweeps, hit-rate extrapolation, codec timing, output."""

from __future__ import annotations

import pytest

from repro.caching import InProcessCache
from repro.compression import GzipCompressor, LzmaCompressor, ZlibCompressor
from repro.errors import WorkloadError
from repro.kv import CLOUD_STORE_2, InMemoryStore, SimulatedCloudStore
from repro.net import VirtualClock
from repro.security import AesCbcEncryptor, AesGcmEncryptor, generate_key
from repro.udsm.workload import (
    CachedReadSpec,
    WorkloadGenerator,
    compressible_payload,
    payloads_from_files,
    random_payload,
)

SIZES = (16, 256)


@pytest.fixture()
def generator():
    return WorkloadGenerator(sizes=SIZES, repeats=3)


class TestPayloads:
    def test_random_payload_deterministic(self):
        assert random_payload(100, 2) == random_payload(100, 2)
        assert random_payload(100, 2) != random_payload(100, 3)

    def test_payload_sizes_exact(self):
        for size in (0, 1, 17, 1000):
            assert len(random_payload(size)) == size
            assert len(compressible_payload(size)) == size

    def test_compressible_payload_compresses(self):
        data = compressible_payload(20_000)
        assert GzipCompressor().ratio(data) < 0.3

    def test_payloads_from_files(self, tmp_path):
        for i in range(3):
            (tmp_path / f"obj{i}.bin").write_bytes(bytes([i]) * (i + 1) * 10)
        payloads = payloads_from_files(sorted(tmp_path.iterdir()))
        assert [len(p) for p in payloads] == [10, 20, 30]

    def test_payloads_from_no_files_rejected(self):
        with pytest.raises(WorkloadError):
            payloads_from_files([])


class TestSweeps:
    def test_write_sweep_shape(self, generator):
        result = generator.measure_writes(InMemoryStore())
        assert result.operation == "write"
        assert [p.size for p in result.points] == list(SIZES)
        assert all(len(p.samples) == 3 for p in result.points)
        assert all(s >= 0 for p in result.points for s in p.samples)

    def test_read_sweep_cleans_up(self, generator):
        store = InMemoryStore()
        generator.measure_reads(store)
        assert store.size() == 0

    def test_cleanup_can_be_skipped(self, generator):
        store = InMemoryStore()
        generator.measure_reads(store, cleanup=False)
        assert store.size() == len(SIZES) * 3

    def test_sweep_reflects_store_latency(self):
        """Simulated cloud store must measure slower than memory."""
        clock = VirtualClock()
        # The workload generator measures wall time, so give the cloud store
        # a real clock but tiny scale to keep the test fast.
        from repro.net import RealClock

        cloud = SimulatedCloudStore(CLOUD_STORE_2, clock=RealClock(), time_scale=0.01)
        generator = WorkloadGenerator(sizes=(64,), repeats=2)
        mem_mean = generator.measure_reads(InMemoryStore()).points[0].mean
        cloud_mean = generator.measure_reads(cloud).points[0].mean
        assert cloud_mean > mem_mean * 5

    def test_compare_stores(self, generator):
        results = generator.compare_stores([InMemoryStore("a"), InMemoryStore("b")])
        assert set(results) == {"a", "b"}
        assert set(results["a"]) == {"read", "write"}

    def test_compare_stores_over_a_live_remote_store(self, generator, remote_store):
        results = generator.compare_stores([remote_store])
        sweeps = results[remote_store.name]
        assert [p.size for p in sweeps["read"].points] == list(SIZES)
        assert all(p.mean > 0 for p in sweeps["write"].points)
        assert list(remote_store.keys()) == []  # the read sweep cleaned up

    def test_point_for_unknown_size(self, generator):
        result = generator.measure_writes(InMemoryStore())
        with pytest.raises(WorkloadError):
            result.point_for(12345)


class TestHitRateCurves:
    def test_curve_structure(self, generator):
        from repro.net import RealClock

        store = SimulatedCloudStore(CLOUD_STORE_2, clock=RealClock(), time_scale=0.01)
        curve = generator.measure_cached_reads(store, InProcessCache())
        curves = curve.curves
        assert set(curves) == {0.0, 0.25, 0.5, 0.75, 1.0}
        for series in curves.values():
            assert [size for size, _ in series] == list(SIZES)

    def test_extrapolation_is_linear_between_endpoints(self, generator):
        from repro.net import RealClock

        store = SimulatedCloudStore(CLOUD_STORE_2, clock=RealClock(), time_scale=0.01)
        curve = generator.measure_cached_reads(store, InProcessCache())
        curves = curve.curves
        for index in range(len(SIZES)):
            l0 = curves[0.0][index][1]
            l100 = curves[1.0][index][1]
            l50 = curves[0.5][index][1]
            assert l50 == pytest.approx((l0 + l100) / 2)

    def test_higher_hit_rate_is_faster_on_slow_store(self, generator):
        from repro.net import RealClock

        store = SimulatedCloudStore(CLOUD_STORE_2, clock=RealClock(), time_scale=0.01)
        curve = generator.measure_cached_reads(store, InProcessCache())
        curves = curve.curves
        assert curves[1.0][1][1] < curves[0.0][1][1]

    def test_mixed_measured_hit_rate(self):
        generator = WorkloadGenerator(sizes=(64,), repeats=2)
        mean, achieved = generator.measure_mixed_reads(
            InMemoryStore(), InProcessCache(), hit_rate=0.75, size=64, operations=100
        )
        assert mean > 0
        assert 0.4 < achieved <= 1.0

    def test_invalid_hit_rate(self, generator):
        with pytest.raises(WorkloadError):
            generator.measure_mixed_reads(
                InMemoryStore(), InProcessCache(), hit_rate=1.5, size=64
            )

    def test_custom_spec(self, generator):
        curve = generator.measure_cached_reads(
            InMemoryStore(), InProcessCache(), CachedReadSpec(hit_rates=(0.0, 1.0))
        )
        assert set(curve.curves) == {0.0, 1.0}

    def test_curve_through_a_remote_cache(self, generator, cache_server):
        from repro.caching import RemoteProcessCache

        cache = RemoteProcessCache(cache_server.host, cache_server.port, namespace="wl")
        store = InMemoryStore()
        try:
            curve = generator.measure_cached_reads(
                store, cache, CachedReadSpec(hit_rates=(0.0, 1.0))
            )
            assert curve.cache_name == cache.name
            assert [size for size, _ in curve.curves[1.0]] == list(SIZES)
            assert cache.size() == 0  # the experiment clears its namespace
            assert store.size() == 0
        finally:
            cache.close()


class TestCodecTiming:
    def test_encryptor_timing(self, generator):
        timing = generator.measure_encryptor(AesGcmEncryptor(generate_key()))
        assert timing.codec == "aes-gcm"
        assert [p.size for p in timing.encode.points] == list(SIZES)
        assert all(p.mean > 0 for p in timing.encode.points)
        assert all(p.mean > 0 for p in timing.decode.points)

    def test_compressor_timing_reports_output_sizes(self, generator):
        timing = generator.measure_compressor(GzipCompressor())
        assert len(timing.output_sizes) == len(SIZES)
        big_in, big_out = timing.output_sizes[-1]
        assert big_out < big_in  # compressible default payload

    @pytest.mark.parametrize("name", ["zlib", "lzma", "aes-cbc"])
    def test_every_bundled_codec_is_timed(self, generator, name):
        if name == "aes-cbc":
            timing = generator.measure_encryptor(AesCbcEncryptor(generate_key()))
        else:
            codec = {"zlib": ZlibCompressor, "lzma": LzmaCompressor}[name]()
            timing = generator.measure_compressor(codec)
        assert timing.codec == name
        assert [p.size for p in timing.decode.points] == list(SIZES)
        assert all(p.mean > 0 for p in timing.encode.points)


class TestTextOutput:
    def test_sweep_dat_file(self, generator, tmp_path):
        result = generator.measure_writes(InMemoryStore())
        path = tmp_path / "writes.dat"
        result.write_dat(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# size_bytes")
        assert len(lines) == 1 + len(SIZES)
        assert lines[1].split("\t")[0] == str(SIZES[0])

    def test_curve_dat_file(self, generator, tmp_path):
        curve = generator.measure_cached_reads(InMemoryStore(), InProcessCache())
        path = tmp_path / "curve.dat"
        curve.write_dat(path)
        header = path.read_text().splitlines()[0]
        for rate in (0, 25, 50, 75, 100):
            assert f"hit_{rate}pct_ms" in header

    def test_store_comparison_dat_files(self, generator, tmp_path):
        results = generator.compare_stores([InMemoryStore("memory")])
        for operation, sweep in results["memory"].items():
            sweep.write_dat(tmp_path / f"memory_{operation}.dat")
        for operation in ("read", "write"):
            lines = (tmp_path / f"memory_{operation}.dat").read_text().splitlines()
            assert [int(line.split("\t")[0]) for line in lines[1:]] == list(SIZES)

    @pytest.mark.parametrize("name", ["gzip", "aes-gcm"])
    def test_codec_timing_dat_files(self, generator, tmp_path, name):
        if name == "gzip":
            timing = generator.measure_compressor(GzipCompressor())
        else:
            timing = generator.measure_encryptor(AesGcmEncryptor(generate_key()))
        timing.encode.write_dat(tmp_path / "encode.dat")
        timing.decode.write_dat(tmp_path / "decode.dat")
        for part in ("encode", "decode"):
            lines = (tmp_path / f"{part}.dat").read_text().splitlines()
            assert lines[0].startswith("# size_bytes")
            assert len(lines) == 1 + len(SIZES)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sizes": ()},
            {"sizes": (-1,)},
            {"sizes": (10,), "repeats": 0},
        ],
    )
    def test_invalid_configuration(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(**kwargs)
