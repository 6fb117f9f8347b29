"""Load generation: traffic declared as a plan, replayed by one runner.

The paper's workload generator (Section II.A) drives a store with a
read/write mix over a skewed key space.  This module is that driver for
throughput and latency, in the two loop kinds a load test needs:

* **closed loop** -- issue an operation, wait for it to finish, issue the
  next.  Closed loops measure per-operation cost well, but cannot say how
  a *server* behaves under load: the moment it slows down the driver slows
  down with it, and offered load collapses exactly when it should stress
  the system (the "coordinated omission" trap).
* **open loop** -- traffic modeled the way capacity planners do (after
  AsyncFlow's workload API -- see SNIPPETS.md snippet 3): a population of
  **active users**, re-sampled every *sampling window* from a Poisson or
  normal distribution, each issuing requests at a per-user rate; arrivals
  within a window form a Poisson process at the aggregate rate.  Arrival
  times are fixed up front and do not depend on how fast the target
  answers; latency runs from the *scheduled arrival* to completion, so
  queueing delay under overload is part of the number.

The loop kind is a property of the plan, not of the runner.  Both plans
come from one seeded draw -- **Zipf** key popularity, a read/write coin
per request -- and differ only in :attr:`Request.at`:
:meth:`LoadGenerator.schedule` stamps each request with its arrival time,
:meth:`LoadGenerator.plan` leaves it ``None``.  Planning is pure (seeded
RNG in, deterministic list out; no clock, no I/O), so tests never sleep.
:meth:`LoadGenerator.run` replays either plan against anything with
``get(key)`` / ``put(key, value)`` through a :class:`~repro.net.latency.Clock`
(virtual in tests, wall time by default), on the caller's thread
(``workers=0``) or a small dispatch pool: a request waits for its due time,
and has its latency measured from it, only when it has one.

Used by the throughput benchmarks (closed plans), and by ``benchmarks/bench_serving_async.py`` and
``scripts/check_serving.py`` (open schedules against the serving plane).
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import threading
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, Sequence

from ..errors import WorkloadError
from ..net.latency import Clock, RealClock
from ..obs.metrics import percentile
from .workload import random_payload

__all__ = [
    "RVConfig",
    "Request",
    "LoadSpec",
    "LoadGenerator",
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
    """One planned request: when, which key, which operation."""

    at: float | None  # seconds from schedule start; None = right after the previous
    key: str
    op: str  # "get" or "put"
    size: int  # payload bytes (writes)


@dataclass(frozen=True)
class LoadSpec:
    """Shape of the simulated traffic (the AsyncFlow workload fields).

    Keys are drawn from a Zipf(``zipf_s``) popularity ranking over
    ``key_space`` keys (rank 0 hottest); each request is a read with
    probability ``read_fraction``.  Timed schedules also use the arrival
    fields: ``active_users`` is re-sampled every ``user_sampling_window``
    seconds, and within a window arrivals form a Poisson process at
    ``users * requests_per_user_per_s``.
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
    """Outcome of one run, closed or open loop."""

    offered: int  # requests in the plan
    errors: int
    elapsed: float  # measured seconds to the last completion; >= duration
    read_latencies: list[float]  # seconds, due time (or dispatch) -> completion
    write_latencies: list[float]
    duration: float = 0.0  # the schedule's length; 0 for a closed plan

    @property
    def reads(self) -> int:
        return len(self.read_latencies)

    @property
    def writes(self) -> int:
        return len(self.write_latencies)

    @property
    def completed(self) -> int:
        return self.reads + self.writes

    @property
    def latencies(self) -> list[float]:
        return self.read_latencies + self.write_latencies

    @property
    def offered_rate(self) -> float:
        """Scheduled arrivals per second (what the generator demanded)."""
        return self.offered / self.duration if self.duration else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per measured second (what the target delivered)."""
        return self.completed / self.elapsed if self.elapsed else 0.0

    @property
    def read_fraction(self) -> float:
        return self.reads / self.completed if self.completed else 0.0

    @property
    def mean_latency(self) -> float:
        return statistics.fmean(self.latencies) if self.latencies else 0.0

    @property
    def mean_read_latency(self) -> float:
        return statistics.fmean(self.read_latencies) if self.read_latencies else 0.0

    @property
    def mean_write_latency(self) -> float:
        return statistics.fmean(self.write_latencies) if self.write_latencies else 0.0

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


class LoadGenerator:
    """Turns a :class:`LoadSpec` into plans and measured runs."""

    def __init__(self, spec: LoadSpec | None = None, *, seed: int = 0) -> None:
        self.spec = spec if spec is not None else LoadSpec()
        self._seed = seed
        # Zipf popularity: weight 1/rank^s over the key space, as one
        # cumulative table so each draw is a binary search, not an O(k) scan.
        self._cum_weights = list(
            itertools.accumulate(
                1.0 / ((rank + 1) ** self.spec.zipf_s)
                for rank in range(self.spec.key_space)
            )
        )
        self._keys = [
            f"{self.spec.key_prefix}:{rank:06d}" for rank in range(self.spec.key_space)
        ]

    # ------------------------------------------------------------------
    # Pure planning (deterministic per seed; no clock, no I/O)
    # ------------------------------------------------------------------
    def schedule(self, duration: float) -> list[Request]:
        """The open-loop arrival schedule for *duration* seconds of traffic.

        Windows re-sample the active-user count and per-user rate, and
        arrivals within a window are exponential gaps at the aggregate
        rate.  An empty schedule (rates sampled to zero throughout) is
        legal.
        """
        if duration <= 0:
            raise WorkloadError("duration must be positive")
        spec = self.spec
        rng = random.Random(f"{self._seed}/schedule")
        times: list[float | None] = []
        window_start = 0.0
        while window_start < duration:
            window_end = min(duration, window_start + spec.user_sampling_window)
            users = spec.active_users.sample(rng)
            per_user = spec.requests_per_user_per_s.sample(rng)
            rate = users * per_user  # aggregate arrivals / second
            if rate > 0:
                at = window_start + rng.expovariate(rate)
                while at < window_end:
                    times.append(at)
                    at += rng.expovariate(rate)
            window_start = window_end
        return self._draw(rng, times)

    def plan(self, operations: int) -> list[Request]:
        """A closed-loop plan: *operations* requests with no due time, each
        issued as soon as the one before it completes."""
        if operations < 1:
            raise WorkloadError("operations must be positive")
        return self._draw(random.Random(f"{self._seed}/plan"), [None] * operations)

    def _draw(self, rng: random.Random, times: list[float | None]) -> list[Request]:
        """One request per entry of *times*: a Zipf key and a read/write coin."""
        spec = self.spec
        keys = rng.choices(self._keys, cum_weights=self._cum_weights, k=len(times))
        return [
            Request(
                at=at,
                key=key,
                op="get" if rng.random() < spec.read_fraction else "put",
                size=spec.value_size,
            )
            for at, key in zip(times, keys)
        ]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def run(
        self,
        target: Any = None,
        *,
        duration: float | None = None,
        plan: Sequence[Request] | None = None,
        workers: int = 0,
        targets: Sequence[Any] | None = None,
        clock: Clock | None = None,
        prepopulate: bool = True,
    ) -> LoadResult:
        """Replay a plan against *target* and measure it.

        *target* is anything with ``get(key)`` / ``put(key, value)`` -- a
        store, a remote client adapter, an enhanced client.  A timed
        request executes as close to its arrival as ``clock.sleep``
        allows, and its latency runs from the **scheduled arrival**, so
        time spent queueing behind a slow target is included rather than
        silently deferred; an untimed one runs as soon as a runner is free
        and is timed from that moment.

        :param duration: the schedule's length: the plan defaults to
            ``self.schedule(duration)``, and it is what ``offered_rate``
            divides by.
        :param plan: replay these requests instead -- ``self.plan(n)`` for
            a closed loop, or one schedule shared across engines.
        :param workers: 0 executes on the calling thread (deterministic
            with a virtual clock; a slow operation delays later requests,
            which the arrival-anchored latency then reports as queueing).
            N > 0 runs N worker threads, so the schedule keeps its timing
            even when individual operations block.
        :param targets: per-worker targets (one each; implies
            ``workers=len(targets)``) -- e.g. one TCP client per worker so
            the run exercises many server connections instead of
            serializing on one socket.
        :param clock: time source and sleeper; :class:`RealClock` by default.
        :param prepopulate: write every key once before the measured phase
            (reads against a cold keyspace would measure miss handling).
        """
        if (target is None) == (targets is None):
            raise WorkloadError("pass exactly one of target / targets")
        if targets is not None and not targets:
            raise WorkloadError("targets must be non-empty")
        if workers < 0:
            raise WorkloadError("workers must be non-negative")
        if plan is None:
            if duration is None:
                raise WorkloadError("pass a duration or a plan")
            plan = self.schedule(duration)
        clock = clock if clock is not None else RealClock()
        value = random_payload(self.spec.value_size, 0)
        pool = list(targets) if targets is not None else [target] * workers
        if prepopulate:
            primary = pool[0] if pool else target
            for key in self._keys:
                primary.put(key, value)

        latencies: dict[str, list[float]] = {"get": [], "put": []}
        failed: list[Request] = []
        epoch = clock.time()

        def step(runner: Any, request: Request) -> None:
            if request.at is None:
                start = clock.time()
            else:
                start = epoch + request.at
                delay = start - clock.time()
                if delay > 0:
                    clock.sleep(delay)
            try:
                if request.op == "get":
                    runner.get(request.key)
                else:
                    runner.put(request.key, value)
            except Exception:  # noqa: BLE001 - overload errors are data
                failed.append(request)
            else:
                latencies[request.op].append(clock.time() - start)

        if pool:
            _run_pooled(pool, plan, step)
        else:
            for request in plan:
                step(target, request)
        return LoadResult(
            offered=len(plan),
            errors=len(failed),
            # A timed run lasts at least its schedule: a target that keeps
            # up finishes the last arrival before the schedule ends.
            elapsed=max(clock.time() - epoch, duration or 0.0),
            read_latencies=latencies["get"],
            write_latencies=latencies["put"],
            duration=duration or 0.0,
        )


def _run_pooled(
    pool: Sequence[Any],
    plan: Sequence[Request],
    step: Callable[[Any, Request], None],
) -> None:
    """Run *step* over *plan* on one thread per target in *pool*.

    Workers take requests in plan order, so a free worker holds the next
    request until its due time and a busy pool leaves it queued -- the
    queueing the arrival-anchored latency then reports.
    """
    queue: "SimpleQueue[Request | None]" = SimpleQueue()
    for request in plan:
        queue.put(request)
    for _ in pool:
        queue.put(None)

    def work(runner: Any) -> None:
        while (request := queue.get()) is not None:
            step(runner, request)

    threads = [
        threading.Thread(
            target=work, args=(runner,), name=f"loadgen-{index}", daemon=True
        )
        for index, runner in enumerate(pool)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
