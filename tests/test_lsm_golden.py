"""On-disk format compatibility: bytes captured at the commit *before*
the Bloom bit array moved to a ``bytearray`` and ``write_sstable`` started
buffering its writes.

Every constant below was printed by the previous implementation (bits
packed into one ``int``, one ``out.write`` per record, one WAL ticket per
record).  Tables and logs it wrote must open and answer identically now,
and what is written now must be byte-identical to what it wrote.
"""

from __future__ import annotations

import hashlib
import random

from repro.caching.bloom import BloomFilter
from repro.kv import LSMStore
from repro.lsm import Manifest, SSTable, WriteAheadLog, write_sstable
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.wal import OP_DELETE, OP_PUT

# BloomFilter(5000, 0.01) over 5 000 keys drawn from random.Random(1606).
BLOOM_BYTES = 6003
BLOOM_SHA256 = "43cbe9e89cab5c27aa130f891d6a1994b222bcef4c22fc62be32ef5a608d01f3"
# sha256 over one 0/1 byte per might_contain() answer: present keys, then absent.
ANSWERS_SHA256 = "d286ce28c92ae8a25ad0406a514eb24892c6722797d0b0564eefbb10d72acc02"
FALSE_POSITIVES = 45  # of 5 000 absent keys
SATURATION = 0.517621283255086
# BloomFilter(10, 0.01) after add(b"k00") .. add(b"k09").
SMALL_BLOOM_HEX = "5f000000070000000a000000f5edd7ff5d39c00aa412a174"

# write_sstable(sstable_entries(), index_interval=4)
SSTABLE_HEX = (
    "4c534d53535430310700000003000000757365723a303076302d070000000600000075736572"
    "3a303176312d76312d0700000009000000757365723a303276322d76322d76322d07000000ff"
    "ffffff757365723a30330700000006000000757365723a303476342d76342d07000000090000"
    "00757365723a303576352d76352d76352d0700000003000000757365723a303676362d070000"
    "0006000000757365723a303776372d76372d07000000ffffffff757365723a30380700000003"
    "000000757365723a303976392d0700000008000000757365723a31307631302d7631302d0700"
    "00000c000000757365723a31317631312d7631312d7631312d0300000007000000757365723a"
    "3030080000000000000007000000757365723a3034560000000000000007000000757365723a"
    "3038aa0000000000000073000000070000000c0000003824abfb2744f97b48a4db3f8c3404fd"
    "000000000000003a010000000000000c000000000000004c534d5353543031"
)

# encode_record(OP_PUT, b"a", b"1") + encode_record(OP_DELETE, b"b")
# + encode_record(OP_PUT, b"c\xff", b"xxxxx")
WAL_HEX = (
    "0756087b0700000000010000006131c25b42e4060000000101000000627f92d0f90c00000000"
    "0200000063ff7878787878"
)

# Manifest.create(path, [sst-000001, sst-000002]) -- the snapshot frame --
# then append(add=[sst-000003]) (a flush), append(add=[sst-000004],
# remove=[sst-000001, sst-000002]) (a compaction), then a crash 7 bytes
# short of the end of append(add=[sst-000005]).  Printed by the commit
# before WAL and MANIFEST shared one framing primitive.
MANIFEST_HEX = (
    "822d435f370000007b22616464223a5b227373742d3030303030312e737374222c227373742d"
    "3030303030322e737374225d2c2272656d6f7665223a5b5d7dfe292d56260000007b22616464"
    "223a5b227373742d3030303030332e737374225d2c2272656d6f7665223a5b5d7db33b05e047"
    "0000007b22616464223a5b227373742d3030303030342e737374225d2c2272656d6f7665223a"
    "5b227373742d3030303030312e737374222c227373742d3030303030322e737374225d7d2bb4"
    "0ed2260000007b22616464223a5b227373742d3030303030352e737374225d2c2272656d6f"
)
MANIFEST_INTACT_BYTES = 188  # the three whole frames; the torn tail is 39 more


def seeded_keys() -> tuple[list[str], list[str]]:
    rng = random.Random(1606)
    present = [f"key-{rng.getrandbits(48):012x}" for _ in range(5000)]
    absent = [f"nope-{rng.getrandbits(48):012x}" for _ in range(5000)]
    return present, absent


def sstable_entries():
    return [
        (b"user:%02d" % i, TOMBSTONE if i % 5 == 3 else (b"v%d-" % i) * (i % 3 + 1))
        for i in range(12)
    ]


class TestBloomGolden:
    def test_serialized_bytes_match_the_previous_implementation(self):
        present, _absent = seeded_keys()
        bloom = BloomFilter(5000, 0.01)
        for key in present:
            bloom.add(key)
        blob = bloom.to_bytes()
        assert len(blob) == BLOOM_BYTES
        assert hashlib.sha256(blob).hexdigest() == BLOOM_SHA256
        assert bloom.saturation == SATURATION
        assert bloom.approximate_items == 5000

    def test_small_filter_bytes(self):
        small = BloomFilter(10, 0.01)
        for i in range(10):
            small.add(b"k%02d" % i)
        assert small.to_bytes().hex() == SMALL_BLOOM_HEX
        # An old payload round-trips untouched and keeps accepting adds.
        old = BloomFilter.from_bytes(bytes.fromhex(SMALL_BLOOM_HEX))
        assert old.to_bytes().hex() == SMALL_BLOOM_HEX
        assert all(old.might_contain(b"k%02d" % i) for i in range(10))
        old.add("later")
        assert old.might_contain("later") and old.approximate_items == 11

    def test_probe_answers_match_on_10000_keys(self):
        present, absent = seeded_keys()
        bloom = BloomFilter(5000, 0.01)
        for key in present:
            bloom.add(key)
        reopened = BloomFilter.from_bytes(bloom.to_bytes())
        answers = bytes(reopened.might_contain(key) for key in present + absent)
        assert hashlib.sha256(answers).hexdigest() == ANSWERS_SHA256
        assert all(answers[:5000])  # no false negatives
        assert sum(answers[5000:]) == FALSE_POSITIVES
        assert FALSE_POSITIVES / 5000 <= 0.02

    def test_clear_resets_bits_and_count(self):
        bloom = BloomFilter(100, 0.01)
        bloom.add("x")
        bloom.clear()
        assert not bloom.might_contain("x")
        assert bloom.saturation == 0.0 and bloom.approximate_items == 0
        assert bloom.to_bytes() == BloomFilter(100, 0.01).to_bytes()


class TestSSTableGolden:
    def test_written_table_is_byte_identical(self, tmp_path):
        path = write_sstable(tmp_path / "000001-000.sst", sstable_entries(), index_interval=4)
        assert path.read_bytes().hex() == SSTABLE_HEX

    def test_old_table_opens_and_reads(self, tmp_path):
        path = tmp_path / "000001-000.sst"
        path.write_bytes(bytes.fromhex(SSTABLE_HEX))
        table = SSTable(path)
        try:
            assert list(table.items()) == sstable_entries()
            assert table.block_count == 3
            for key, value in sstable_entries():
                assert table.might_contain(key)
                assert table.get(key) == value
            keys_only = list(table.items_from(b"", values=False))
            assert [key for key, _ in keys_only] == [key for key, _ in sstable_entries()]
            assert [value is TOMBSTONE for _, value in keys_only] == [
                value is TOMBSTONE for _, value in sstable_entries()
            ]
        finally:
            table.close()

    def test_write_spanning_several_buffers_round_trips(self, tmp_path):
        # 300 x 1 KiB crosses the 64 KiB join buffer four times.
        entries = [(b"k%05d" % i, bytes([i % 251]) * 1024) for i in range(300)]
        table = SSTable(write_sstable(tmp_path / "000002-000.sst", entries))
        try:
            assert list(table.items()) == entries
        finally:
            table.close()

    def test_old_directory_compacts_under_the_new_code(self, tmp_path):
        # A directory as the previous code left it: one table, no MANIFEST
        # (migrated on open), plus a WAL segment it wrote.
        root = tmp_path / "db"
        root.mkdir()
        (root / "000001-000.sst").write_bytes(bytes.fromhex(SSTABLE_HEX))
        (root / "wal-000002.log").write_bytes(bytes.fromhex(WAL_HEX))
        expected = {
            key.decode(): value for key, value in sstable_entries() if value is not TOMBSTONE
        }
        with LSMStore(root, serializer=_RawBytes()) as store:
            assert store.get("a") == b"1" and store.get("c\udcff") == b"xxxxx"
            assert store.compact() == 2
            got = {key: store.get(key) for key in store.keys() if key.startswith("user:")}
            assert got == expected
            assert store.size() == len(expected) + 2


class TestWalGolden:
    def test_old_segment_replays(self, tmp_path):
        path = tmp_path / "wal-000001.log"
        path.write_bytes(bytes.fromhex(WAL_HEX))
        replay = WriteAheadLog.replay(path)
        assert not replay.torn
        assert [tuple(record) for record in replay.records] == [
            (OP_PUT, b"a", b"1"),
            (OP_DELETE, b"b", b""),
            (OP_PUT, b"c\xff", b"xxxxx"),
        ]

    def test_batch_writes_produce_the_same_log_bytes(self, tmp_path):
        with LSMStore(tmp_path / "db", serializer=_RawBytes()) as store:
            store.put_many({"a": b"1"})
            store.delete_many(["b"])
            store.put_many({"c\udcff": b"xxxxx"})
            (segment,) = store.native().glob("wal-*.log")
            assert segment.read_bytes().hex() == WAL_HEX


class TestManifestGolden:
    def test_old_manifest_replays_and_its_torn_tail_is_cut(self, tmp_path):
        path = tmp_path / "MANIFEST"
        path.write_bytes(bytes.fromhex(MANIFEST_HEX))
        replay = Manifest.replay(path)
        assert replay.tables == ["sst-000003.sst", "sst-000004.sst"]
        assert (replay.edits, replay.valid_length) == (3, MANIFEST_INTACT_BYTES)
        assert (replay.torn, replay.discarded_bytes) == (True, 39)
        Manifest.repair(path, replay)
        assert path.read_bytes().hex() == MANIFEST_HEX[: 2 * MANIFEST_INTACT_BYTES]

    def test_snapshot_and_edits_produce_the_same_bytes(self, tmp_path):
        manifest = Manifest.create(tmp_path / "MANIFEST", ["sst-000001.sst", "sst-000002.sst"])
        manifest.append(add=["sst-000003.sst"])
        manifest.append(add=["sst-000004.sst"], remove=["sst-000001.sst", "sst-000002.sst"])
        manifest.close()
        written = (tmp_path / "MANIFEST").read_bytes().hex()
        assert written == MANIFEST_HEX[: 2 * MANIFEST_INTACT_BYTES]


class _RawBytes:
    """Serializer that stores bytes as they are (keeps golden values readable)."""

    def dumps(self, value: bytes) -> bytes:
        return value

    def loads(self, payload: bytes) -> bytes:
        return payload
