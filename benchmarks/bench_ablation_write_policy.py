"""Ablation: write-through vs invalidate-on-write (paper §III).

"Methods to store data in the data store can also update the cache" -- or
invalidate it.  Which is better depends on the read/write mix: write-through
keeps hot keys warm (reads after writes hit), invalidation avoids caching
values nobody reads back.  This bench runs a Zipf mixed workload over a
simulated cloud store under each policy, at two read fractions.
"""

from __future__ import annotations

import pytest

from conftest import TIME_SCALE
from repro.caching import InProcessCache
from repro.core import EnhancedDataStoreClient, WritePolicy
from repro.kv import CLOUD_STORE_2, SimulatedCloudStore
from repro.udsm.loadgen import LoadGenerator, LoadSpec

CASES = [
    ("write_through_read_heavy", WritePolicy.WRITE_THROUGH, 0.9),
    ("invalidate_read_heavy", WritePolicy.INVALIDATE, 0.9),
    ("write_through_write_heavy", WritePolicy.WRITE_THROUGH, 0.3),
    ("invalidate_write_heavy", WritePolicy.INVALIDATE, 0.3),
]


def run_case(policy: WritePolicy, read_fraction: float) -> tuple[float, float]:
    """Returns (simulated WAN seconds consumed, achieved hit rate)."""
    store = SimulatedCloudStore(CLOUD_STORE_2, time_scale=TIME_SCALE, seed=77)
    client = EnhancedDataStoreClient(
        store, cache=InProcessCache(), write_policy=policy, default_ttl=None
    )
    spec = LoadSpec(key_space=50, read_fraction=read_fraction, value_size=1_024)
    generator = LoadGenerator(spec, seed=5)
    result = generator.run(client, plan=generator.plan(400))
    assert result.errors == 0
    wan = store.simulated_seconds
    hit_rate = client.counters.hit_rate
    store.close()
    return wan, hit_rate


@pytest.mark.parametrize("label,policy,read_fraction", CASES,
                         ids=[case[0] for case in CASES])
def test_write_policy_case(benchmark, collector, label, policy, read_fraction):
    benchmark.group = "ablation-write-policy"
    wan, hit_rate = benchmark.pedantic(
        run_case, args=(policy, read_fraction), rounds=1
    )
    collector.record_value("ablation_write_policy", label, read_fraction, wan, unit="wan_s")
    collector.note(
        "ablation_write_policy",
        "Simulated WAN seconds for 400 Zipf ops on a cloud store, by write "
        "policy and read fraction (x = read fraction).",
    )


def test_write_through_wins_read_heavy(benchmark):
    """Reads-after-writes hit under write-through; invalidation refetches."""
    benchmark.group = "ablation-write-policy"
    benchmark.pedantic(lambda: None, rounds=1)
    wt_wan, wt_hits = run_case(WritePolicy.WRITE_THROUGH, 0.9)
    inv_wan, inv_hits = run_case(WritePolicy.INVALIDATE, 0.9)
    assert wt_hits > inv_hits
    assert wt_wan < inv_wan