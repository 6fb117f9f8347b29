"""A cold GET costs one record: exact counts, and SSTable.get against a dict.

The counts are the ``make check-obs`` gate's (one definition, in
``scripts/check_instrumentation.py``): one Bloom hash per LSM lookup
however many tables it probes, one ``pread`` per table whose Bloom filter
passes and none for a memtable hit, no block decoded by a point read, and
one socket write per burst of pipelined requests on either engine.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm import sstable
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import MISSING, SSTable, write_sstable
from repro.lsm.store import LSMStore

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from check_instrumentation import COLD_GET_COUNTS, calls_to, cold_get_counts  # noqa: E402


def test_cold_get_counts_are_exact(tmp_path):
    assert cold_get_counts(tmp_path / "db") == COLD_GET_COUNTS


def test_calls_to_counts_builtins_and_python_functions(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"abc")
    fd = os.open(path, os.O_RDONLY)
    try:
        assert calls_to(os.pread, lambda: [os.pread(fd, 1, i) for i in range(3)]) == 3
        assert calls_to(os.pread, lambda: os.read(fd, 1)) == 0
    finally:
        os.close(fd)
    assert calls_to(sstable._records, lambda: list(sstable._records(b""))) == 1


@pytest.mark.parametrize("index_interval", [1, 16])
def test_a_point_read_preads_once_per_bloom_pass(tmp_path, index_interval):
    """Over five tables with overlapping keys: every read, present or
    absent, issues exactly as many ``pread`` calls as there are tables whose
    filter passes up to the newest one holding the key, decodes no block,
    and a memtable hit reads nothing.  (A key below a table's first key is
    answered from the in-memory index, without a read.)"""
    with LSMStore(tmp_path / "db", auto_compact=False, index_interval=index_interval) as store:
        for table in range(5):
            store.put_many({f"k{i:03d}": b"v%d" % table for i in range(table * 40, table * 40 + 80)})
            store.flush()
        tables = [SSTable(store.native() / t["file"]) for t in store.stats()["tables"]]
        try:
            present = [f"k{i:03d}" for i in range(0, 240, 7)]
            for key in present + [f"k{i:03d}~" for i in range(0, 240, 3)]:  # ~: absent
                raw = key.encode()
                expected = 0
                for table in reversed(tables):  # newest first, as the store probes
                    if table.might_contain(raw) and raw >= table.min_key:
                        expected += 1
                        if table.get(raw) is not MISSING:
                            break
                read = lambda: store.get_or_default(key, None)  # noqa: E731
                assert calls_to(os.pread, read) == expected, key
                assert calls_to(sstable._records, read) == 0, key
        finally:
            for table in tables:
                table.close()
        store.put("k000", b"fresh")
        assert calls_to(os.pread, lambda: store.get("k000")) == 0


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
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_sstable_get_is_a_dict_lookup(tmp_path_factory, model, probes, index_interval):
    """Present, tombstoned, absent-between, below-first and above-last keys."""
    path = tmp_path_factory.mktemp("sst") / "t.sst"
    entries = [(key, TOMBSTONE if value is None else value) for key, value in sorted(model.items())]
    write_sstable(path, entries, index_interval=index_interval)
    table = SSTable(path)
    try:
        first, last = entries[0][0], entries[-1][0]
        for key in [*model, *probes, b"", first[:-1], last + b"\x00", last + b"\xff"]:
            expected = model.get(key, MISSING)
            expected = TOMBSTONE if expected is None else expected
            assert table.get(key) == expected
    finally:
        table.close()

