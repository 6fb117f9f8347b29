"""Workload specs and seeded input generation for the e2e benchmark.

A workload is declared as data (:class:`Workload`: keys, mix, key
distribution, loop kind, client and server configuration) and turned into
operation plans here, apart from the stack that will run them (the
AsyncFlow shape in SNIPPETS.md: the generator is composed separately from
the system under test).  Deliberately independent of
``repro.udsm.workload`` / ``repro.udsm.loadgen``: a later PR that edits
those must not thereby edit the benchmark.

Everything derives from ``--seed``: round *r* of a workload draws from
``Random(f"{seed}/{workload.plan}/{r}")`` and a value from
``Random(f"{seed}/{key}/{version}")``, so any value ever read back can be
checked against what was last written.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

VALUE_BYTES = 1024
THREADS = 2  # == nproc on the reference sandbox; never more threads or connections

#: The compressible half of every value draws from these (gzip ~0.55 overall).
WORDS = (
    "cache client store value key remote server latency throughput compress "
    "encrypt pipeline memtable sstable bloom filter block index manifest "
    "segment commit durable flush compaction tier level merge tombstone "
    "version quorum replica shard topology epoch request reply frame bulk "
    "socket thread event loop engine dispatch command stats trace span layer "
    "budget workload zipf uniform poisson open closed round median percentile"
).split()


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one configuration of the shipped stack."""

    name: str
    plan: str  # the plan generator's seed label; workloads that share it share their plans
    loop: str  # "closed": a caller sends when its last op returned; "open": on a schedule
    engine: str  # "threaded" (net.server) or "async" (net.aio)
    fsync: bool
    keys: int
    preload: bool  # load every key before measuring
    get_share: float
    zipf: float  # 0 = uniform
    ops_per_second: int  # closed: ops planned per nominal second; open: the Poisson rate
    cache_entries: int  # per-thread client cache capacity
    pipeline: bool  # gzip + AES-GCM; False = BytesSerializer only
    client_obs: bool
    gated: str  # whose latency p50_ms/p99_ms report: "get", "put" or "any"
    crash_check: bool = False  # SIGKILL the child after the rounds, read acked writes back


#: Why each exists: one line in BENCHMARK.json, in full in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot_read",
            plan="hot_read",
            loop="closed", engine="threaded", fsync=False,
            keys=20_000, preload=True, get_share=0.99, zipf=0.99,
            ops_per_second=40_000, cache_entries=20_000, pipeline=True,
            client_obs=True, gated="get",
        ),
        Workload(
            name="cold_read_threaded",
            plan="cold_read",
            loop="open", engine="threaded", fsync=False,
            keys=30_000, preload=True, get_share=1.0, zipf=0.0,
            ops_per_second=1_000, cache_entries=1, pipeline=False,
            client_obs=False, gated="get",
        ),
        Workload(
            name="cold_read_async",
            plan="cold_read",
            loop="open", engine="async", fsync=False,
            keys=30_000, preload=True, get_share=1.0, zipf=0.0,
            ops_per_second=1_000, cache_entries=1, pipeline=False,
            client_obs=False, gated="get",
        ),
        Workload(
            name="write_mixed",
            plan="write_mixed",
            loop="closed", engine="threaded", fsync=False,
            keys=20_000, preload=True, get_share=0.5, zipf=0.0,
            ops_per_second=4_800, cache_entries=1, pipeline=True,
            client_obs=False, gated="any", crash_check=True,
        ),
        Workload(
            name="durable_put",
            plan="durable_put",
            loop="closed", engine="threaded", fsync=True,
            keys=20_000, preload=False, get_share=0.0, zipf=0.0,
            ops_per_second=2_000, cache_entries=1, pipeline=False,
            client_obs=False, gated="put", crash_check=True,
        ),
    )
}


def key_name(index: int) -> str:
    return f"key:{index:06d}"


def make_value(seed: int, index: int, version: int) -> bytes:
    """The 1 KiB value of *key index* at *version*: half a repeated phrase
    of dictionary words, half random bytes (gzip brings it to ~0.55)."""
    rng = random.Random(f"{seed}/{index}/{version}")
    half = VALUE_BYTES // 2
    phrase = (" ".join(rng.choices(WORDS, k=8)) + " ").encode("ascii")
    return (phrase * (half // len(phrase) + 1))[:half] + rng.randbytes(VALUE_BYTES - half)


def _cumulative_zipf(count: int, exponent: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(count)))


@dataclass
class Round:
    """One round's operations.

    Closed loop: ``ops[t]`` is thread *t*'s list of ``(is_put, key index)``
    and ``due`` is empty.  Open loop: one shared list in ``ops[0]`` with
    ``due[i]`` the offset in seconds at which request *i* is to be sent.
    """

    ops: list[list[tuple[bool, int]]]
    due: list[float]

    @property
    def size(self) -> int:
        return sum(len(ops) for ops in self.ops)


def plan_round(workload: Workload, seed: int, number: int, seconds: float) -> Round:
    """The operations of round *number*, sized for *seconds* nominal seconds.

    Seeded by ``workload.plan``, not by its name: the two ``cold_read_*``
    workloads differ in the engine only and replay one schedule.
    """
    rng = random.Random(f"{seed}/{workload.plan}/{number}")
    total = max(THREADS, int(workload.ops_per_second * seconds))
    if workload.loop == "open":
        # Poisson arrivals; with no writes any worker may read any key.
        indices = rng.choices(range(workload.keys), k=total)
        gaps = (rng.expovariate(workload.ops_per_second) for _ in range(total))
        return Round(ops=[[(False, index) for index in indices]], due=list(itertools.accumulate(gaps)))
    # Closed loop: thread t owns the keys with index = t (mod THREADS), so a
    # thread's cache is never stale with respect to the other thread's writes
    # and "the last acked version" of a key is unambiguous.
    per_thread = workload.keys // THREADS
    weights = _cumulative_zipf(per_thread, workload.zipf) if workload.zipf else None
    ops = []
    for thread in range(THREADS):
        ranks = rng.choices(range(per_thread), cum_weights=weights, k=total // THREADS)
        ops.append(
            [(rng.random() >= workload.get_share, rank * THREADS + thread) for rank in ranks]
        )
    return Round(ops=ops, due=[])


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (``fraction`` in (0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    # The epsilon keeps 0.99 * 100 (99.00000000000001 in floats) at rank 99.
    rank = max(1, math.ceil(len(sorted_values) * fraction - 1e-9))
    return sorted_values[rank - 1]
