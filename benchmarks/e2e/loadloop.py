"""The load generator: replay one round's plan against ``get``/``put`` targets.

One process, ``THREADS`` threads, one target per thread.  A target is
anything with ``get(key)`` and ``put(key, value)`` -- a client stack, or the
:class:`NullTarget` of the harness's empty-target replay.  Every value read
is compared with the value of the key's last acknowledged write; a raised
error, a timeout and a wrong value all count as failed operations.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, perf_counter_ns
from typing import Any

from probe import OPEN_LOOP_SHARE, at_reference_speed
from spec import Round, Workload, key_name, make_value, percentile

OPEN_LOOP_LEAD_NS = 2_000_000  # the schedule's zero lies this far after the start signal


@dataclass
class RoundResult:
    """What one round measured (latencies in nanoseconds, ascending)."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    get_ns: list[int] = field(default_factory=list)
    put_ns: list[int] = field(default_factory=list)
    late_ns: list[int] = field(default_factory=list)  # open loop: sent - due
    service_ns: int = 0  # time spent inside target calls, all threads
    threads: int = 0
    client_cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    calib_ms: float = 0.0
    first_error: str = ""

    @property
    def ops_s(self) -> float:
        """Verified-correct operations per wall second."""
        return (self.attempted - self.failed) / self.wall_s

    @property
    def mean_service_us(self) -> float:
        return self.service_ns / self.attempted / 1e3

    def latencies(self, gated: str) -> list[int]:
        if gated == "any":
            return sorted(self.get_ns + self.put_ns)
        return self.get_ns if gated == "get" else self.put_ns


class _Tally:
    """One load thread's share of a round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.get_ns: list[int] = []
        self.put_ns: list[int] = []
        self.late_ns: list[int] = []
        self.service_ns = 0
        self.first_error = ""

    def fail(self, what: str) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = what


class NullTarget:
    """Empty target for the harness replay: a dict behind ``get``/``put``."""

    def __init__(self, values: dict[int, bytes]) -> None:
        self._data = {key_name(index): value for index, value in values.items()}

    def get(self, key: str) -> bytes:
        return self._data[key]

    def put(self, key: str, value: bytes) -> None:
        self._data[key] = value


def drive(
    plan: Round,
    targets: list[Any],
    expected: list[dict[int, bytes]],
    versions: list[dict[int, int]],
    names: list[str],
    seed: int,
) -> RoundResult:
    """Run *plan* to completion; updates *expected*/*versions* as puts are acked.

    Closed loop: thread *t* replays ``plan.ops[t]`` against ``targets[t]``,
    checking against its own ``expected[t]``.  Open loop: all threads take
    requests off the one shared schedule (the plan holds no writes, so every
    thread may read every key).
    """
    tallies = [_Tally() for _ in targets]
    barrier = threading.Barrier(len(targets) + 1)
    if plan.due:
        everything = {index: value for part in expected for index, value in part.items()}
        counter, epoch = itertools.count(), [0]
        workers = [
            partial(_open_worker, target, plan, counter, epoch, barrier, everything, names, tally)
            for target, tally in zip(targets, tallies)
        ]
    else:
        workers = [
            partial(_closed_worker, targets[t], plan.ops[t], barrier, expected[t], versions[t],
                    names, seed, tallies[t])
            for t in range(len(targets))
        ]
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    if plan.due:
        epoch[0] = perf_counter_ns() + OPEN_LOOP_LEAD_NS
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    result = RoundResult(wall_s=perf_counter() - start, threads=len(targets))
    for tally in tallies:
        result.attempted += tally.attempted
        result.failed += tally.failed
        result.get_ns += tally.get_ns
        result.put_ns += tally.put_ns
        result.late_ns += tally.late_ns
        result.service_ns += tally.service_ns
        result.first_error = result.first_error or tally.first_error
    result.get_ns.sort()
    result.put_ns.sort()
    result.late_ns.sort()
    return result


def _closed_worker(
    target: Any,
    ops: list[tuple[bool, int]],
    barrier: threading.Barrier,
    expected: dict[int, bytes],
    versions: dict[int, int],
    names: list[str],
    seed: int,
    tally: _Tally,
) -> None:
    """A caller that sends its next operation when the previous one returned."""
    get, put = target.get, target.put
    get_ns, put_ns = tally.get_ns, tally.put_ns
    barrier.wait()
    for is_put, index in ops:
        tally.attempted += 1
        if is_put:
            version = versions.get(index, 0) + 1
            value = make_value(seed, index, version)
            start = perf_counter_ns()
            try:
                put(names[index], value)
            except Exception as exc:  # noqa: BLE001 - any failed op is counted, the run goes on
                tally.fail(f"put {names[index]}: {exc!r}")
                continue
            put_ns.append(perf_counter_ns() - start)
            versions[index] = version
            expected[index] = value
        else:
            start = perf_counter_ns()
            try:
                got = get(names[index])
            except Exception as exc:  # noqa: BLE001
                tally.fail(f"get {names[index]}: {exc!r}")
                continue
            get_ns.append(perf_counter_ns() - start)
            if got != expected[index]:
                tally.fail(f"get {names[index]}: wrong value")
    tally.service_ns = sum(get_ns) + sum(put_ns)


def _open_worker(
    target: Any,
    plan: Round,
    counter: "itertools.count[int]",
    epoch: list[int],
    barrier: threading.Barrier,
    expected: dict[int, bytes],
    names: list[str],
    tally: _Tally,
) -> None:
    """Take the next request off the shared schedule, wait until it is due,
    send it.  Latency runs from the due time, so a stall is charged to every
    request it delays, and how late each request left is recorded."""
    get, ops, due = target.get, plan.ops[0], plan.due
    barrier.wait()
    zero_ns = epoch[0]
    while True:
        number = next(counter)  # atomic: itertools.count is implemented in C
        if number >= len(ops):
            break
        index = ops[number][1]
        due_ns = zero_ns + int(due[number] * 1e9)
        wait_ns = due_ns - perf_counter_ns()
        if wait_ns > 0:
            time.sleep(wait_ns / 1e9)
        sent = perf_counter_ns()
        tally.attempted += 1
        tally.late_ns.append(max(0, sent - due_ns))
        try:
            got = get(names[index])
        except Exception as exc:  # noqa: BLE001
            tally.fail(f"get {names[index]}: {exc!r}")
            continue
        done = perf_counter_ns()
        tally.get_ns.append(done - due_ns)
        tally.service_ns += done - sent
        if got != expected[index]:
            tally.fail(f"get {names[index]}: wrong value")


def summarize(results: list[RoundResult], workload: Workload) -> dict[str, Any]:
    """Every per-round figure with its median, min and max over the rounds.

    Times are scaled to reference speed round by round (see README,
    "Reference speed"); ``raw_median`` keeps the figure as the clock read it.
    A closed loop's rate scales with the machine like a time does; an open
    loop's rate is set by its schedule and is left as it is, and its latencies
    follow the probe only in part (``OPEN_LOOP_SHARE``).
    """
    share = OPEN_LOOP_SHARE if workload.loop == "open" else 1.0

    def figure(raw: list[float], scaled: list[float], samples: int = 0) -> dict[str, float]:
        return {"median": statistics.median(scaled), "min": min(scaled), "max": max(scaled),
                "raw_median": statistics.median(raw), "samples_per_round": samples}

    rates = [r.ops_s for r in results]
    figures = {
        "ops_s": figure(
            rates,
            rates if workload.loop == "open"
            else [1 / at_reference_speed(1 / r.ops_s, r.calib_ms) for r in results],
        )
    }
    for label, pick in (
        ("", lambda r: r.latencies(workload.gated)),
        ("get_", lambda r: r.get_ns),
        ("put_", lambda r: r.put_ns),
    ):
        rounds = [(pick(r), r.calib_ms) for r in results]
        if not all(samples for samples, _calib in rounds):
            continue
        for name, fraction in (("p50_ms", 0.5), ("p95_ms", 0.95), ("p99_ms", 0.99), ("p999_ms", 0.999)):
            raw = [percentile(samples, fraction) / 1e6 for samples, _calib in rounds]
            figures[label + name] = figure(
                raw,
                [at_reference_speed(value, calib, share) for value, (_s, calib) in zip(raw, rounds)],
                min(len(samples) for samples, _calib in rounds),
            )
    calib = [r.calib_ms for r in results]
    return {
        "rounds": len(results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "first_error": next((r.first_error for r in results if r.first_error), ""),
        "figures": figures,
        "calib_ms": {"median": statistics.median(calib), "min": min(calib), "max": max(calib)},
        "raw_rounds": [
            {"ops_s": r.ops_s, "wall_s": r.wall_s, "attempted": r.attempted,
             "failed": r.failed, "calib_ms": r.calib_ms}
            for r in results
        ],
    }
