"""Quorum replication overhead: what does R+W>N cost per operation?

Four configurations of the same key-value workload over in-memory
backends (so member I/O contributes nanoseconds and the replication
machinery dominates whatever it costs):

* ``single`` -- one bare :class:`~repro.kv.InMemoryStore`, the floor;
* ``replicated_n3`` -- primary/replica :class:`~repro.kv.ReplicatedStore`
  (writes fan out sequentially, reads hit the primary);
* ``quorum_n3`` -- :class:`~repro.kv.QuorumReplicatedStore` at
  R=2/W=2/N=3: every op fans out to the members' workers and waits for a quorum;
* ``quorum_n5`` -- the same at R=3/W=3/N=5 (wider group, same majority
  discipline).

Both reads and writes are sampled (``<variant>_read`` / ``<variant>_write``
series), in batches to keep the timer out of the number, so
``results/BENCH_quorum.json`` carries p50/p95/p99 per configuration and
direction.  x is the configuration index, not object size.

The shape test pins the honest ordering: quorum coordination costs real
money over a bare store (worker hand-offs + quorum wait per op), and the wider
group is not magically cheaper than the narrow one.  Absolute numbers are
thread-scheduling bound; over real networked members the fan-out
parallelism is what wins (one member RTT per op instead of N).
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from repro.kv import InMemoryStore, QuorumReplicatedStore, ReplicatedStore

FIGURE = "quorum"
VARIANTS = ("single", "replicated_n3", "quorum_n3", "quorum_n5")
#: Timed ops per latency sample.
BATCH = 8
#: Batch samples per configuration and direction.
SAMPLES = 40
WARMUP_OPS = 64
KEY_SPACE = 64
VALUE = b"x" * 256


def build(variant: str):
    if variant == "single":
        return InMemoryStore()
    if variant == "replicated_n3":
        return ReplicatedStore(InMemoryStore(), [InMemoryStore(), InMemoryStore()])
    n = 3 if variant == "quorum_n3" else 5
    quorum = (n // 2) + 1
    return QuorumReplicatedStore(
        [InMemoryStore() for _ in range(n)],
        read_quorum=quorum,
        write_quorum=quorum,
        name=variant,
    )


def drive(variant: str) -> dict[str, list[float]]:
    """Per-op latency samples (seconds) by direction for one variant."""
    store = build(variant)
    keys = [f"k{index:04d}" for index in range(KEY_SPACE)]
    for index in range(WARMUP_OPS):
        key = keys[index % KEY_SPACE]
        store.put(key, VALUE)
        store.get(key)
    samples: dict[str, list[float]] = {"write": [], "read": []}
    position = 0
    for _ in range(SAMPLES):
        begin = time.perf_counter()
        for _ in range(BATCH):
            store.put(keys[position % KEY_SPACE], VALUE)
            position += 1
        samples["write"].append((time.perf_counter() - begin) / BATCH)
        begin = time.perf_counter()
        for _ in range(BATCH):
            store.get(keys[position % KEY_SPACE])
            position += 1
        samples["read"].append((time.perf_counter() - begin) / BATCH)
    if hasattr(store, "drain"):
        store.drain()
    store.close()
    return samples


@pytest.fixture(scope="module")
def sweeps():
    return {variant: drive(variant) for variant in VARIANTS}


@pytest.mark.parametrize("variant", VARIANTS)
def test_quorum_curve(benchmark, collector, sweeps, variant):
    benchmark.group = "quorum"
    benchmark.pedantic(lambda: None, rounds=1)
    collector.x_is_size[FIGURE] = False  # x = configuration index
    x = float(VARIANTS.index(variant))
    for direction in ("read", "write"):
        for sample in sweeps[variant][direction]:
            collector.record(FIGURE, f"{variant}_{direction}", x, sample)
    collector.note(
        FIGURE,
        "Per-op read/write cost over in-memory members, "
        f"{BATCH}-op batches x {SAMPLES} samples; x is the configuration "
        "index (0=single store, 1=primary/replica N=3, 2=quorum R2/W2/N3, "
        "3=quorum R3/W3/N5).  Quorum ops pay a parallel fan-out plus the "
        "quorum wait; over real networked members that parallelism is the "
        "win (one member RTT per op instead of N sequential).",
    )


def test_quorum_shape(benchmark, sweeps):
    """Loose ordering guards -- honest about coordination cost."""
    benchmark.group = "quorum"
    benchmark.pedantic(lambda: None, rounds=1)
    p50 = {
        variant: {
            direction: median(sweeps[variant][direction])
            for direction in ("read", "write")
        }
        for variant in VARIANTS
    }
    for variant in VARIANTS:
        for direction in ("read", "write"):
            assert p50[variant][direction] > 0.0, (variant, direction)
    # Quorum coordination (worker hand-offs + quorum wait) costs real time over a
    # bare in-memory store, reads and writes both.
    for direction in ("read", "write"):
        assert p50["quorum_n3"][direction] > p50["single"][direction], (
            f"quorum_n3 {direction} p50 "
            f"{p50['quorum_n3'][direction] * 1e6:.2f}us not above the bare "
            f"store's {p50['single'][direction] * 1e6:.2f}us"
        )
    # The wider group fans out to 5 members; it must not be dramatically
    # cheaper than the 3-member group (loose: >= half, guards against the
    # accounting silently skipping members).
    for direction in ("read", "write"):
        assert (
            p50["quorum_n5"][direction] >= p50["quorum_n3"][direction] * 0.5
        ), (
            f"quorum_n5 {direction} p50 implausibly below quorum_n3 "
            f"({p50['quorum_n5'][direction] * 1e6:.2f}us vs "
            f"{p50['quorum_n3'][direction] * 1e6:.2f}us)"
        )
