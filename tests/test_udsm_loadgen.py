"""Load generator tests -- zero real sleeps where timing matters.

Planning is pure, so the distribution tests just look at the numbers;
``run()`` takes an injectable :class:`~repro.net.latency.Clock`, so the
replay tests drive a virtual clock instead of waiting.  Every test here
is deterministic under its seed.  Timed schedules are the open loop;
untimed plans (``Request.at is None``) are the closed loop.
"""

from __future__ import annotations

import random
import statistics
import sys
import threading
from collections import Counter

import pytest

from repro.caching import InProcessCache
from repro.core import EnhancedDataStoreClient
from repro.errors import WorkloadError
from repro.kv import FlakyStore, InMemoryStore
from repro.net.latency import VirtualClock
from repro.udsm.loadgen import (
    LoadGenerator,
    LoadResult,
    LoadSpec,
    Request,
    RVConfig,
    _poisson,
)


class RecordingStore:
    """In-memory target that can charge virtual time per operation."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        op_cost: float = 0.0,
        data: dict[str, bytes] | None = None,
    ) -> None:
        self._data = data if data is not None else {}
        self._clock = clock
        self._op_cost = op_cost
        self.ops: list[tuple[str, str]] = []

    def _charge(self) -> None:
        if self._clock is not None and self._op_cost:
            self._clock.advance(self._op_cost)

    def get(self, key: str) -> bytes:
        self.ops.append(("get", key))
        self._charge()
        return self._data[key]

    def put(self, key: str, value: bytes) -> None:
        self.ops.append(("put", key))
        self._charge()
        self._data[key] = value


class TestRVConfig:
    def test_constant_is_exact(self):
        rng = random.Random(1)
        rv = RVConfig(mean=7.5, distribution="constant")
        assert all(rv.sample(rng) == 7.5 for _ in range(10))

    def test_poisson_mean_tracks(self):
        rng = random.Random(2)
        rv = RVConfig(mean=10.0)
        samples = [rv.sample(rng) for _ in range(3000)]
        assert statistics.fmean(samples) == pytest.approx(10.0, rel=0.05)
        # Poisson variance equals its mean
        assert statistics.pvariance(samples) == pytest.approx(10.0, rel=0.15)

    def test_poisson_large_mean_uses_normal_approximation(self):
        rng = random.Random(3)
        samples = [_poisson(rng, 1_000_000.0) for _ in range(200)]
        assert statistics.fmean(samples) == pytest.approx(1_000_000.0, rel=0.01)
        assert all(isinstance(s, int) and s >= 0 for s in samples)

    def test_normal_defaults_stdev_to_tenth_of_mean(self):
        rng = random.Random(4)
        rv = RVConfig(mean=100.0, distribution="normal")
        samples = [rv.sample(rng) for _ in range(3000)]
        assert statistics.fmean(samples) == pytest.approx(100.0, rel=0.02)
        assert statistics.pstdev(samples) == pytest.approx(10.0, rel=0.15)

    def test_samples_clamped_non_negative(self):
        rng = random.Random(5)
        rv = RVConfig(mean=0.5, distribution="normal", stdev=10.0)
        assert all(rv.sample(rng) >= 0.0 for _ in range(500))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RVConfig(mean=-1.0)
        with pytest.raises(WorkloadError):
            RVConfig(mean=1.0, distribution="pareto")
        with pytest.raises(WorkloadError):
            RVConfig(mean=1.0, distribution="normal", stdev=-0.1)

    def test_poisson_zero_mean(self):
        rng = random.Random(6)
        assert _poisson(rng, 0.0) == 0


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"user_sampling_window": 0.0},
            {"key_space": 0},
            {"read_fraction": 1.5},
            {"value_size": -1},
            {"zipf_s": -0.5},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            LoadSpec(**kwargs)


class TestSchedule:
    def test_deterministic_per_seed(self):
        gen_a = LoadGenerator(seed=42)
        gen_b = LoadGenerator(seed=42)
        assert gen_a.schedule(3.0) == gen_b.schedule(3.0)

    def test_seed_changes_schedule(self):
        base = LoadGenerator(seed=1).schedule(3.0)
        other = LoadGenerator(seed=2).schedule(3.0)
        assert base != other

    def test_arrivals_monotone_and_bounded(self):
        plan = LoadGenerator(seed=7).schedule(5.0)
        assert plan, "default spec must generate traffic"
        times = [request.at for request in plan]
        assert times == sorted(times)
        assert times[0] >= 0.0
        assert times[-1] < 5.0

    def test_aggregate_rate_matches_spec(self):
        spec = LoadSpec(
            active_users=RVConfig(mean=200.0, distribution="constant"),
            requests_per_user_per_s=RVConfig(mean=0.5, distribution="constant"),
        )
        gen = LoadGenerator(spec, seed=11)
        result = gen.run(RecordingStore(), duration=20.0, clock=VirtualClock())
        # constant 200 users * 0.5 req/s = 100 req/s offered
        assert result.offered_rate == pytest.approx(100.0, rel=0.1)

    def test_windows_resample_population(self):
        spec = LoadSpec(
            active_users=RVConfig(mean=50.0, distribution="normal", stdev=25.0),
            user_sampling_window=1.0,
        )
        plan = LoadGenerator(spec, seed=13).schedule(10.0)
        per_window = Counter(int(request.at) for request in plan)
        counts = [per_window.get(w, 0) for w in range(10)]
        # re-sampled user counts must actually vary across windows
        assert len(set(counts)) > 3

    def test_zipf_head_dominates(self):
        spec = LoadSpec(key_space=100, zipf_s=1.2)
        plan = LoadGenerator(spec, seed=17).schedule(30.0)
        counts = Counter(request.key for request in plan)
        hottest = counts["load:000000"]
        assert hottest == max(counts.values())
        assert hottest > counts.get("load:000050", 0) * 5

    def test_zipf_zero_is_uniform(self):
        spec = LoadSpec(key_space=10, zipf_s=0.0)
        plan = LoadGenerator(spec, seed=19).schedule(30.0)
        counts = Counter(request.key for request in plan)
        share = counts["load:000000"] / len(plan)
        assert share == pytest.approx(0.1, abs=0.03)

    def test_read_fraction_respected(self):
        spec = LoadSpec(read_fraction=0.7)
        plan = LoadGenerator(spec, seed=23).schedule(20.0)
        reads = sum(1 for request in plan if request.op == "get")
        assert reads / len(plan) == pytest.approx(0.7, abs=0.03)

    def test_zero_rate_schedule_is_empty(self):
        spec = LoadSpec(active_users=RVConfig(mean=0.0, distribution="constant"))
        assert LoadGenerator(spec, seed=29).schedule(2.0) == []

    def test_duration_must_be_positive(self):
        with pytest.raises(WorkloadError):
            LoadGenerator().schedule(0.0)


class TestRun:
    def test_inline_run_on_virtual_clock(self):
        vclock = VirtualClock()
        store = RecordingStore()
        spec = LoadSpec(key_space=50)
        gen = LoadGenerator(spec, seed=31)
        result = gen.run(store, duration=3.0, clock=vclock)
        assert result.offered == len(gen.schedule(3.0))
        assert result.completed == result.offered
        assert result.errors == 0
        assert result.reads + result.writes == result.offered
        assert len(result.latencies) == result.completed
        # fast target + virtual clock: every request lands exactly on time
        assert all(lat == pytest.approx(0.0, abs=1e-9) for lat in result.latencies)
        # prepopulate wrote the whole keyspace before the measured phase
        prepop = store.ops[: spec.key_space]
        assert all(op == "put" for op, _key in prepop)

    def test_latency_includes_queueing_behind_slow_target(self):
        vclock = VirtualClock()
        store = RecordingStore(clock=vclock, op_cost=0.05)
        spec = LoadSpec(
            active_users=RVConfig(mean=100.0, distribution="constant"),
            key_space=20,
        )
        gen = LoadGenerator(spec, seed=37)
        result = gen.run(store, duration=1.0, clock=vclock, prepopulate=False)
        # offered ~100/s but the target does at most 20/s: the open-loop
        # latency must surface the growing queue, not hide it
        assert result.p99 > result.p50
        assert result.p99 > 0.5
        assert max(result.latencies) >= result.p99

    def test_throughput_divides_by_measured_elapsed(self):
        """A 1 s schedule that takes ~4.3 virtual seconds to drain delivers
        ~5.8 ops/s, not the 25 ops/s that dividing by the schedule's
        length would report -- and never more than the target's 20/s."""
        vclock = VirtualClock()
        store = RecordingStore(clock=vclock, op_cost=0.05)
        spec = LoadSpec(
            active_users=RVConfig(mean=100.0, distribution="constant"),
            key_space=20,
        )
        result = LoadGenerator(spec, seed=37).run(
            store, duration=1.0, clock=vclock, prepopulate=False
        )
        assert result.elapsed > 4.0
        assert result.throughput == pytest.approx(result.completed / result.elapsed)
        assert result.throughput <= 1 / 0.05
        assert result.offered_rate == pytest.approx(result.offered / 1.0)

    def test_throughput_of_a_target_that_keeps_up_never_exceeds_offered(self):
        """The last arrival lands before the schedule ends; a target that
        serves it at once has still only delivered the offered rate."""
        vclock = VirtualClock()
        spec = LoadSpec(
            active_users=RVConfig(mean=10.0, distribution="constant"), key_space=10
        )
        gen = LoadGenerator(spec, seed=71)
        result = gen.run(RecordingStore(), duration=1.0, clock=vclock)
        assert vclock.time() < 1.0  # the last completion, before the schedule's end
        assert result.elapsed == 1.0
        assert result.throughput == pytest.approx(result.offered_rate)

    def test_errors_counted_not_raised(self):
        store = RecordingStore()  # cold store: reads KeyError
        gen = LoadGenerator(LoadSpec(key_space=10), seed=41)
        plan = gen.schedule(2.0)
        result = gen.run(store, plan=plan, clock=VirtualClock(), prepopulate=False)
        assert result.errors > 0
        assert result.completed + result.errors == result.offered
        # every write completes; reads only once something wrote their key
        assert result.writes == sum(1 for request in plan if request.op == "put")

    def test_shared_schedule_replay(self):
        gen = LoadGenerator(LoadSpec(key_space=10), seed=43)
        plan = gen.schedule(2.0)
        result = gen.run(
            RecordingStore(), duration=2.0, plan=plan, clock=VirtualClock()
        )
        assert result.offered == len(plan)
        assert result.duration == 2.0

    def test_pooled_run_completes_everything(self):
        store = RecordingStore()
        gen = LoadGenerator(LoadSpec(key_space=10), seed=47)
        plan = gen.schedule(1.0)
        # real threads, but virtual time: nobody really sleeps
        result = gen.run(store, plan=plan, workers=3, clock=VirtualClock())
        assert result.completed == len(plan)
        assert result.errors == 0

    def test_pooled_workers_lose_no_outcome(self):
        """Eight workers share the outcome lists; with a tiny switch
        interval a lost append would show as a missing completion."""
        gen = LoadGenerator(LoadSpec(key_space=10), seed=67)
        plan = gen.plan(4_000)
        store = RecordingStore()
        outcome: list[LoadResult] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: outcome.append(
                    gen.run(store, plan=plan, workers=8, clock=VirtualClock())
                )
            )
            runner.start()
            runner.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        (result,) = outcome
        assert result.completed == result.offered == 4_000
        assert result.errors == 0
        assert Counter(store.ops[10:]) == Counter((r.op, r.key) for r in plan)

    def test_per_worker_targets(self):
        shared: dict[str, bytes] = {}
        stores = [RecordingStore(data=shared) for _ in range(3)]
        gen = LoadGenerator(LoadSpec(key_space=10), seed=53)
        result = gen.run(targets=stores, duration=1.0, clock=VirtualClock())
        assert result.completed == result.offered
        assert sum(len(s.ops) for s in stores) >= result.offered

    def test_target_xor_targets(self):
        gen = LoadGenerator()
        with pytest.raises(WorkloadError):
            gen.run(duration=1.0)
        with pytest.raises(WorkloadError):
            gen.run(RecordingStore(), duration=1.0, targets=[RecordingStore()])
        with pytest.raises(WorkloadError):
            gen.run(targets=[], duration=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 1.0, "workers": -1},
            {"duration": 0.0},
            {},
        ],
    )
    def test_bad_arguments_rejected_before_any_write(self, kwargs):
        store = RecordingStore()
        with pytest.raises(WorkloadError):
            LoadGenerator(LoadSpec(key_space=10)).run(
                store, clock=VirtualClock(), **kwargs
            )
        assert store.ops == []


class TestClosedPlan:
    def test_plan_is_untimed_and_deterministic(self):
        plan = LoadGenerator(seed=7).plan(300)
        assert len(plan) == 300
        assert all(request.at is None for request in plan)
        assert plan == LoadGenerator(seed=7).plan(300)
        assert plan != LoadGenerator(seed=8).plan(300)

    def test_reports_throughput_and_latencies(self):
        gen = LoadGenerator(LoadSpec(key_space=50, read_fraction=0.8, value_size=64))
        result = gen.run(InMemoryStore(), plan=gen.plan(500))
        assert result.offered == result.completed == 500
        assert result.throughput > 0
        assert result.mean_read_latency > 0
        assert result.mean_write_latency > 0
        assert len(result.read_latencies) + len(result.write_latencies) == 500

    def test_read_fraction_respected(self):
        gen = LoadGenerator(LoadSpec(key_space=20, read_fraction=0.9, value_size=64))
        result = gen.run(InMemoryStore(), plan=gen.plan(2_000))
        assert result.read_fraction == pytest.approx(0.9, abs=0.05)

    def test_pure_read_and_pure_write_mixes(self):
        reads = LoadGenerator(LoadSpec(key_space=10, read_fraction=1.0, value_size=64))
        reads_only = reads.run(InMemoryStore(), plan=reads.plan(100))
        assert reads_only.write_latencies == []
        assert reads_only.reads == 100
        writes = LoadGenerator(LoadSpec(key_space=10, read_fraction=0.0, value_size=64))
        writes_only = writes.run(InMemoryStore(), plan=writes.plan(100))
        assert writes_only.read_latencies == []
        assert writes_only.writes == 100

    def test_failing_store_counts_errors_not_raises(self):
        store = FlakyStore(InMemoryStore(), failure_rate=0.0, failure_rates={"get": 1.0})
        gen = LoadGenerator(LoadSpec(key_space=10, value_size=16))
        plan = gen.plan(50)
        result = gen.run(store, plan=plan)
        assert result.errors == sum(1 for r in plan if r.op == "get") > 0
        assert result.completed + result.errors == result.offered == 50

    def test_drives_cached_clients_and_zipf_skew_hits(self):
        """Zipf skew means a small cache still catches most reads."""
        client = EnhancedDataStoreClient(
            InMemoryStore(), cache=InProcessCache(max_entries=20)
        )
        spec = LoadSpec(key_space=400, zipf_s=1.2, read_fraction=1.0, value_size=64)
        gen = LoadGenerator(spec)
        gen.run(client, plan=gen.plan(2_000))
        assert client.counters.hit_rate > 0.5

    def test_identical_op_sequence_per_seed(self):
        runs = []
        for _ in range(2):
            store = RecordingStore()
            gen = LoadGenerator(LoadSpec(key_space=10), seed=7)
            gen.run(store, plan=gen.plan(200), clock=VirtualClock())
            runs.append(store.ops)
        assert len(runs[0]) == 10 + 200
        assert runs[0] == runs[1]

    def test_issues_n_ops_in_plan_order_and_never_sleeps(self):
        vclock = VirtualClock()
        store = RecordingStore(clock=vclock, op_cost=0.01)
        spec = LoadSpec(key_space=10)
        gen = LoadGenerator(spec, seed=59)
        plan = gen.plan(150)
        result = gen.run(store, plan=plan, clock=vclock)
        assert store.ops[spec.key_space :] == [(r.op, r.key) for r in plan]
        assert result.completed == result.offered == 150
        assert vclock.total_slept == 0.0
        # each op is timed from its own dispatch: no queueing in a closed loop
        assert all(lat == pytest.approx(0.01) for lat in result.latencies)
        assert result.elapsed == pytest.approx(150 * 0.01)
        assert result.duration == 0.0 and result.offered_rate == 0.0

    def test_plan_over_targets_runs_every_op_once(self):
        shared: dict[str, bytes] = {}
        stores = [RecordingStore(data=shared) for _ in range(3)]
        spec = LoadSpec(key_space=10)
        gen = LoadGenerator(spec, seed=61)
        plan = gen.plan(300)
        result = gen.run(targets=stores, plan=plan, clock=VirtualClock())
        issued = stores[0].ops[spec.key_space :] + stores[1].ops + stores[2].ops
        assert Counter(issued) == Counter((r.op, r.key) for r in plan)
        assert result.completed == 300 and result.errors == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LoadGenerator(LoadSpec(read_fraction=1.5)).plan(10),
            lambda: LoadGenerator().plan(0),
            lambda: LoadGenerator(LoadSpec(key_space=0)).plan(10),
        ],
        ids=["read_fraction", "operations", "key_space"],
    )
    def test_validation(self, build):
        with pytest.raises(WorkloadError):
            build()


class TestLoadResult:
    def test_rates_and_percentiles(self):
        result = LoadResult(
            offered=10,
            errors=2,
            elapsed=4.0,
            read_latencies=[0.01 * i for i in range(1, 6)],
            write_latencies=[0.01 * i for i in range(6, 9)],
            duration=2.0,
        )
        assert result.completed == 8
        assert (result.reads, result.writes) == (5, 3)
        assert result.offered_rate == pytest.approx(5.0)
        assert result.throughput == pytest.approx(2.0)
        assert result.read_fraction == pytest.approx(5 / 8)
        assert result.p50 == pytest.approx(0.04)
        assert result.p99 == pytest.approx(0.08)
        assert result.mean_latency == pytest.approx(0.045)
        assert result.mean_read_latency == pytest.approx(0.03)
        assert result.mean_write_latency == pytest.approx(0.07)

    def test_empty_result_is_safe(self):
        result = LoadResult(
            offered=0, errors=0, elapsed=0.0, read_latencies=[], write_latencies=[]
        )
        assert result.offered_rate == 0.0
        assert result.throughput == 0.0
        assert result.read_fraction == 0.0
        assert result.p99 == 0.0
        assert result.mean_latency == 0.0

    def test_request_is_frozen(self):
        request = Request(at=0.0, key="k", op="get", size=0)
        with pytest.raises(AttributeError):
            request.at = 1.0  # type: ignore[misc]
