"""Observability-plane overhead: what does watching the client cost?

Three configurations of the same read-heavy workload against an
:class:`~repro.core.EnhancedDataStoreClient` over an in-memory backend
(so the *store* contributes nanoseconds and the instrumentation dominates
whatever it costs):

* ``obs_off`` -- the :data:`~repro.obs.NULL_OBS` fast path every
  uninstrumented deployment gets;
* ``obs_on`` -- a live :class:`~repro.obs.Observability` bundle recording
  counters, histograms, and spans on every op;
* ``obs_anomaly`` -- the same bundle **plus** an
  :class:`~repro.obs.anomaly.AnomalyEngine` with the default rule set,
  polled inline every :data:`POLL_EVERY` ops so the exemplar/rule work lands
  in the measured tail exactly where a background poller would put it.

Per-op cost is measured in batches (:data:`BATCH` timed ops per sample) to
keep the timer itself out of the number; the raw batch samples feed the
collector, so ``results/BENCH_obs_overhead.json`` carries p50/p95/p99 per
configuration.  The shape test asserts the headline contract from
``docs/anomaly.md``: the anomaly engine adds **under 5% p50 overhead** on
top of plain observability (plus a 2 us absolute epsilon so a sub-
microsecond baseline cannot fail on timer noise), and the watching budget
from ``docs/observability.md``: ``obs_on`` p50 at most **2.5x** ``obs_off``
(plus 1 us).  x is the configuration index, not object size.
"""

from __future__ import annotations

import time
from statistics import median

import pytest

from repro.core import EnhancedDataStoreClient
from repro.kv import InMemoryStore
from repro.obs import Observability
from repro.obs.anomaly import AnomalyEngine, default_rules

FIGURE = "obs_overhead"
VARIANTS = ("obs_off", "obs_on", "obs_anomaly")
#: Timed ops per latency sample (keeps perf_counter overhead amortized).
BATCH = 64
#: Batch samples per configuration.
SAMPLES = 150
WARMUP_OPS = 2_000
KEY_SPACE = 256
#: Inline engine poll cadence for the ``obs_anomaly`` configuration.
POLL_EVERY = 256


def build(variant: str):
    """A fresh (client, per_op_hook) pair for one configuration."""
    backend = InMemoryStore()
    if variant == "obs_off":
        client = EnhancedDataStoreClient(backend)
        return client, None
    obs = Observability()
    client = EnhancedDataStoreClient(backend, obs=obs)
    if variant == "obs_on":
        return client, None
    engine = AnomalyEngine(obs, rules=default_rules())
    ticks = {"ops": 0}

    def hook() -> None:
        ticks["ops"] += 1
        if ticks["ops"] % POLL_EVERY == 0:
            engine.poll()

    return client, hook


def drive() -> dict[str, list[float]]:
    """Per-op latency samples (seconds) per configuration.

    Sample rounds are interleaved -- one timed batch on each configuration
    in turn -- so a slow phase of the machine lands on all three alike
    instead of on whichever happened to be running.
    """
    keys = [f"k{i:04d}" for i in range(KEY_SPACE)]
    built = {variant: build(variant) for variant in VARIANTS}
    for client, hook in built.values():
        for key in keys:
            client.put(key, b"x" * 64)
        for i in range(WARMUP_OPS):
            client.get(keys[i % KEY_SPACE])
            if hook is not None:
                hook()
    samples: dict[str, list[float]] = {variant: [] for variant in VARIANTS}
    position = 0
    for _ in range(SAMPLES):
        for variant, (client, hook) in built.items():
            begin = time.perf_counter()
            for offset in range(BATCH):
                client.get(keys[(position + offset) % KEY_SPACE])
                if hook is not None:
                    hook()
            samples[variant].append((time.perf_counter() - begin) / BATCH)
        position += BATCH
    return samples


@pytest.fixture(scope="module")
def sweeps():
    return drive()


@pytest.mark.parametrize("variant", VARIANTS)
def test_obs_overhead_curve(benchmark, collector, sweeps, variant):
    benchmark.group = "obs-overhead"
    benchmark.pedantic(lambda: None, rounds=1)
    collector.x_is_size[FIGURE] = False  # x = configuration index
    x = float(VARIANTS.index(variant))
    for sample in sweeps[variant]:
        collector.record(FIGURE, variant, x, sample)
    collector.note(
        FIGURE,
        "Per-op cost of a cache-hit read on EnhancedDataStoreClient over an "
        f"in-memory store, {BATCH}-op batches x {SAMPLES} samples; x is the "
        "configuration index (0=obs off, 1=obs on, 2=obs + anomaly engine "
        f"polled every {POLL_EVERY} ops inline).",
    )


def test_obs_overhead_shape(benchmark, sweeps):
    """The headline contract: anomaly detection rides for (almost) free."""
    benchmark.group = "obs-overhead"
    benchmark.pedantic(lambda: None, rounds=1)
    p50 = {variant: median(sweeps[variant]) for variant in VARIANTS}
    for variant in VARIANTS:
        assert p50[variant] > 0.0, (variant, p50[variant])
    # The anomaly engine on top of live observability: <5% p50 overhead
    # (+2 us absolute epsilon against timer noise on sub-us baselines).
    budget = p50["obs_on"] * 1.05 + 2e-6
    assert p50["obs_anomaly"] <= budget, (
        f"anomaly engine p50 {p50['obs_anomaly'] * 1e6:.2f}us exceeds "
        f"budget {budget * 1e6:.2f}us (obs_on p50 {p50['obs_on'] * 1e6:.2f}us)"
    )
    # The watching budget (docs/observability.md "What watching costs"):
    # two stage spans, two histogram observations and four counter
    # increments may cost at most 2.5x the unobserved hit (+1 us of noise).
    # Measured 2.1-2.2x with lock-free metric writes (2.4x with a lock per
    # write); the margin is ~0.3x.
    budget = p50["obs_off"] * 2.5 + 1e-6
    assert p50["obs_on"] <= budget, (
        f"observed hit p50 {p50['obs_on'] * 1e6:.2f}us exceeds budget "
        f"{budget * 1e6:.2f}us (obs_off p50 {p50['obs_off'] * 1e6:.2f}us)"
    )
