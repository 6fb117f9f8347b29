"""Open-loop load generation: traffic modeled as a population of users.

The workload generator in :mod:`repro.udsm.workload` is **closed-loop**:
one driver issues an operation, waits for it to finish, then issues the
next.  Closed loops measure per-operation cost well, but they cannot say
how a *server* behaves under load, because the moment the server slows
down the driver slows down with it -- offered load collapses exactly when
it should be stressing the system (the "coordinated omission" trap).

This module models traffic the way capacity planners do (after AsyncFlow's
workload API -- see SNIPPETS.md snippet 3): a population of **active
users**, re-sampled every *sampling window* from a Poisson or normal
distribution, each issuing requests at a per-user rate; arrivals within a
window form a Poisson process at the aggregate rate; keys follow a
**Zipf** popularity distribution.  The resulting schedule is **open-loop**:
arrival times are fixed up front and do not depend on how fast the target
answers.  Latency is measured from the *scheduled arrival* to completion,
so queueing delay under overload is part of the number -- exactly what a
throughput-vs-latency curve needs.

Two layers, split so tests never sleep:

* :meth:`OpenLoopLoadGenerator.schedule` is **pure**: seeded RNG in,
  deterministic list of timestamped requests out.  No clock, no I/O.
* :meth:`OpenLoopLoadGenerator.run` replays a schedule against anything
  with ``get(key)`` / ``put(key, value)`` using injectable ``clock`` and
  ``sleep`` (virtual time in tests, wall time in benchmarks), on the
  caller's thread (``workers=0``) or a small dispatch pool.

Used by ``benchmarks/bench_serving_async.py`` to draw
throughput-vs-latency curves for the threaded vs async serving engines,
and by ``scripts/check_serving.py`` as the smoke-gate load source.
"""

from __future__ import annotations

import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Sequence

from ..errors import WorkloadError
from ..obs.metrics import percentile
from .workload import random_payload

__all__ = [
    "RVConfig",
    "Request",
    "OpenLoopSpec",
    "OpenLoopLoadGenerator",
    "LoadResult",
]


@dataclass(frozen=True)
class RVConfig:
    """A random variable: ``mean`` plus a named distribution.

    Distributions: ``"poisson"`` (the default; Knuth sampling below mean
    30, normal approximation above), ``"normal"`` (``stdev`` defaults to
    ``mean / 10``), and ``"constant"``.  Samples are clamped to >= 0 --
    a negative user count or rate is meaningless.
    """

    mean: float
    distribution: str = "poisson"
    stdev: float | None = None

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise WorkloadError("RVConfig mean must be non-negative")
        if self.distribution not in ("poisson", "normal", "constant"):
            raise WorkloadError(
                f"unknown distribution {self.distribution!r} "
                "(expected poisson, normal, or constant)"
            )
        if self.stdev is not None and self.stdev < 0:
            raise WorkloadError("RVConfig stdev must be non-negative")

    def sample(self, rng: random.Random) -> float:
        if self.distribution == "constant":
            return self.mean
        if self.distribution == "normal":
            stdev = self.stdev if self.stdev is not None else self.mean / 10.0
            return max(0.0, rng.gauss(self.mean, stdev))
        return float(_poisson(rng, self.mean))


def _poisson(rng: random.Random, mean: float) -> int:
    """Poisson sample: exact (Knuth) for small means, normal approximation
    (mean + sqrt(mean) * N(0,1), rounded) for large ones -- an active-user
    population of a million must not loop a million times per sample."""
    if mean <= 0:
        return 0
    if mean > 30.0:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


@dataclass(frozen=True)
class Request:
    """One scheduled arrival: when, which key, which operation."""

    at: float  # seconds from schedule start (virtual time)
    key: str
    op: str  # "get" or "put"
    size: int  # payload bytes (writes)


@dataclass(frozen=True)
class OpenLoopSpec:
    """Shape of the simulated traffic (the AsyncFlow workload fields).

    ``active_users`` is re-sampled every ``user_sampling_window`` seconds;
    within a window, arrivals form a Poisson process at
    ``users * requests_per_user_per_s``.  Keys are drawn from a
    Zipf(``zipf_s``) popularity ranking over ``key_space`` keys (rank 0
    hottest); each request is a read with probability ``read_fraction``.
    """

    active_users: RVConfig = field(default_factory=lambda: RVConfig(mean=100))
    requests_per_user_per_s: RVConfig = field(
        default_factory=lambda: RVConfig(mean=1.0, distribution="constant")
    )
    user_sampling_window: float = 1.0
    key_space: int = 1_000
    zipf_s: float = 1.1
    read_fraction: float = 0.9
    value_size: int = 256
    key_prefix: str = "load"

    def __post_init__(self) -> None:
        if self.user_sampling_window <= 0:
            raise WorkloadError("user_sampling_window must be positive")
        if self.key_space < 1:
            raise WorkloadError("key_space must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must be within [0, 1]")
        if self.value_size < 0:
            raise WorkloadError("value_size must be non-negative")
        if self.zipf_s < 0:
            raise WorkloadError("zipf_s must be non-negative")


@dataclass
class LoadResult:
    """Outcome of one open-loop run."""

    duration: float
    offered: int  # requests in the schedule
    completed: int
    errors: int
    latencies: list[float]  # seconds, scheduled arrival -> completion
    reads: int
    writes: int

    @property
    def offered_rate(self) -> float:
        """Scheduled arrivals per second (what the generator demanded)."""
        return self.offered / self.duration if self.duration else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per second (what the target delivered)."""
        return self.completed / self.duration if self.duration else 0.0

    @property
    def mean_latency(self) -> float:
        return statistics.fmean(self.latencies) if self.latencies else 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the latency samples (seconds)."""
        return percentile(self.latencies, fraction)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


class OpenLoopLoadGenerator:
    """Turns an :class:`OpenLoopSpec` into schedules and measured runs."""

    def __init__(self, spec: OpenLoopSpec | None = None, *, seed: int = 0) -> None:
        self.spec = spec if spec is not None else OpenLoopSpec()
        self._seed = seed
        # Zipf popularity: weight 1/rank^s over the key space, as one
        # cumulative table so each draw is a binary search, not an O(k) scan.
        weights = [
            1.0 / ((rank + 1) ** self.spec.zipf_s) for rank in range(self.spec.key_space)
        ]
        total = 0.0
        self._cum_weights: list[float] = []
        for weight in weights:
            total += weight
            self._cum_weights.append(total)
        self._keys = [
            f"{self.spec.key_prefix}:{rank:06d}" for rank in range(self.spec.key_space)
        ]

    # ------------------------------------------------------------------
    # Pure schedule generation (virtual time; deterministic per seed)
    # ------------------------------------------------------------------
    def schedule(self, duration: float) -> list[Request]:
        """The arrival schedule for *duration* seconds of traffic.

        Pure and deterministic for a given (spec, seed): windows re-sample
        the active-user count and per-user rate, arrivals within a window
        are exponential gaps at the aggregate rate, each arrival draws a
        Zipf key and a read/write coin.  An empty schedule (rates sampled
        to zero throughout) is legal.
        """
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        spec = self.spec
        rng = random.Random(f"{self._seed}/openloop")
        requests: list[Request] = []
        window_start = 0.0
        while window_start < duration:
            window_end = min(duration, window_start + spec.user_sampling_window)
            users = spec.active_users.sample(rng)
            per_user = spec.requests_per_user_per_s.sample(rng)
            rate = users * per_user  # aggregate arrivals / second
            if rate > 0:
                at = window_start + rng.expovariate(rate)
                while at < window_end:
                    pick = rng.random() * self._cum_weights[-1]
                    index = _bisect(self._cum_weights, pick)
                    op = "get" if rng.random() < spec.read_fraction else "put"
                    requests.append(
                        Request(at=at, key=self._keys[index], op=op, size=spec.value_size)
                    )
                    at += rng.expovariate(rate)
            window_start = window_end
        return requests

    def offered_rate(self, duration: float) -> float:
        """Mean scheduled arrivals/second over *duration* (for reporting)."""
        return len(self.schedule(duration)) / duration

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(
        self,
        target: Any = None,
        *,
        duration: float,
        workers: int = 0,
        targets: Sequence[Any] | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        payload: Callable[[int, int], bytes] | None = None,
        prepopulate: bool = True,
        schedule: Sequence[Request] | None = None,
    ) -> LoadResult:
        """Replay a schedule against *target* and measure open-loop latency.

        *target* is anything with ``get(key)`` / ``put(key, value)`` -- a
        store, a remote client adapter, an enhanced client.  Each request
        executes as close to its scheduled arrival as ``sleep`` allows;
        its latency runs from the **scheduled arrival** to completion, so
        time spent queueing behind a slow target is included rather than
        silently deferred (the open-loop property).

        :param workers: 0 executes on the calling thread (deterministic
            with a virtual ``clock``/``sleep``; a slow operation delays
            later dispatches, which the arrival-anchored latency then
            reports as queueing).  N > 0 dispatches to N worker threads so
            the offered schedule keeps its timing even when individual
            operations block.
        :param targets: per-worker targets (one each; implies
            ``workers=len(targets)``) -- e.g. one TCP client per worker so
            the run exercises many server connections instead of
            serializing on one socket.
        :param prepopulate: write every key once before the measured phase
            (reads against a cold keyspace would measure miss handling).
        :param schedule: replay this schedule instead of generating one
            (lets callers share one schedule across engines).
        """
        if (target is None) == (targets is None):
            raise WorkloadError("pass exactly one of target / targets")
        if targets is not None:
            if not targets:
                raise WorkloadError("targets must be non-empty")
            workers = len(targets)
        spec = self.spec
        source = payload if payload is not None else random_payload
        value = source(spec.value_size, 0)
        plan = list(schedule) if schedule is not None else self.schedule(duration)
        primary = target if target is not None else targets[0]
        if prepopulate:
            for key in self._keys:
                primary.put(key, value)

        reads = sum(1 for request in plan if request.op == "get")
        if workers < 0:
            raise WorkloadError("workers must be non-negative")
        if workers == 0:
            completed, errors, latencies = self._run_inline(
                primary, plan, value, clock, sleep
            )
        else:
            pool_targets = (
                list(targets) if targets is not None else [primary] * workers
            )
            completed, errors, latencies = self._run_pooled(
                pool_targets, plan, value, clock, sleep
            )
        return LoadResult(
            duration=duration,
            offered=len(plan),
            completed=completed,
            errors=errors,
            latencies=latencies,
            reads=reads,
            writes=len(plan) - reads,
        )

    def _run_inline(
        self,
        target: Any,
        plan: Sequence[Request],
        value: bytes,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
    ) -> tuple[int, int, list[float]]:
        epoch = clock()
        completed, errors = 0, 0
        latencies: list[float] = []
        for request in plan:
            delay = epoch + request.at - clock()
            if delay > 0:
                sleep(delay)
            try:
                if request.op == "get":
                    target.get(request.key)
                else:
                    target.put(request.key, value)
            except Exception:  # noqa: BLE001 - overload errors are data
                errors += 1
            else:
                completed += 1
                latencies.append(clock() - (epoch + request.at))
        return completed, errors, latencies

    def _run_pooled(
        self,
        pool_targets: Sequence[Any],
        plan: Sequence[Request],
        value: bytes,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
    ) -> tuple[int, int, list[float]]:
        queue: "SimpleQueue[Request | None]" = SimpleQueue()
        lock = threading.Lock()
        state = {"completed": 0, "errors": 0}
        latencies: list[float] = []
        epoch = clock()

        def work(target: Any) -> None:
            while True:
                request = queue.get()
                if request is None:
                    return
                try:
                    if request.op == "get":
                        target.get(request.key)
                    else:
                        target.put(request.key, value)
                except Exception:  # noqa: BLE001 - overload errors are data
                    with lock:
                        state["errors"] += 1
                else:
                    elapsed = clock() - (epoch + request.at)
                    with lock:
                        state["completed"] += 1
                        latencies.append(elapsed)

        pool = [
            threading.Thread(
                target=work, args=(target,), name=f"loadgen-{index}", daemon=True
            )
            for index, target in enumerate(pool_targets)
        ]
        for thread in pool:
            thread.start()
        for request in plan:
            delay = epoch + request.at - clock()
            if delay > 0:
                sleep(delay)
            queue.put(request)
        for _ in pool:
            queue.put(None)
        for thread in pool:
            thread.join()
        return state["completed"], state["errors"], latencies


def _bisect(cum_weights: list[float], pick: float) -> int:
    """Leftmost index whose cumulative weight covers *pick*."""
    low, high = 0, len(cum_weights) - 1
    while low < high:
        mid = (low + high) // 2
        if cum_weights[mid] < pick:
            low = mid + 1
        else:
            high = mid
    return low
