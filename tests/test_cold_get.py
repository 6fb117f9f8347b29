"""A cold GET costs one record: exact counts, and SSTable.get against a dict.

The counts are the ``make check-obs`` gate's (one definition, in
``scripts/check_instrumentation.py``): one Bloom hash per LSM lookup
however many tables it probes, no block decoded by a point read, and one
socket write per burst of pipelined requests on either engine.
"""

from __future__ import annotations

import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.blockcache import BlockCache
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import MISSING, SSTable, write_sstable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from check_instrumentation import COLD_GET_COUNTS, cold_get_counts  # noqa: E402


def test_cold_get_counts_are_exact(tmp_path):
    assert cold_get_counts(tmp_path / "db") == COLD_GET_COUNTS


# Keys and values over a two-letter alphabet: a probe's bytes recur inside
# longer keys and inside values, which an in-place walk must not mistake
# for a match.
_AB = st.binary(max_size=6).map(lambda raw: bytes(b"ab"[byte & 1] for byte in raw))


@given(
    model=st.dictionaries(
        st.binary(min_size=1, max_size=6) | _AB,
        st.none() | st.binary(max_size=24) | st.lists(_AB, max_size=5).map(b"".join),  # None = a tombstone
        min_size=1,
        max_size=60,
    ),
    probes=st.lists(st.binary(max_size=7) | _AB, max_size=20),
    index_interval=st.sampled_from([1, 2, 16]),
    cached=st.booleans(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_sstable_get_is_a_dict_lookup(tmp_path_factory, model, probes, index_interval, cached):
    """Present, tombstoned, absent-between, below-first and above-last keys,
    each read twice (with the cache on: a miss, then a hit)."""
    path = tmp_path_factory.mktemp("sst") / "t.sst"
    entries = [(key, TOMBSTONE if value is None else value) for key, value in sorted(model.items())]
    write_sstable(path, entries, index_interval=index_interval)
    table = SSTable(path, cache=BlockCache(1 << 20) if cached else None)
    try:
        first, last = entries[0][0], entries[-1][0]
        for key in [*model, *probes, b"", first[:-1], last + b"\x00", last + b"\xff"]:
            expected = model.get(key, MISSING)
            expected = TOMBSTONE if expected is None else expected
            assert table.get(key) == expected
            assert table.get(key) == expected
    finally:
        table.close()

