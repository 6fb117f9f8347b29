"""Store migration and verification tooling."""

from __future__ import annotations

import pytest

from repro.errors import DataStoreError, StoreConnectionError
from repro.kv import FileSystemStore, FlakyStore, InMemoryStore, SQLStore
from repro.tools import MigrationReport, copy_store, verify_stores


def populated(count=25):
    store = InMemoryStore()
    for i in range(count):
        store.put(f"k{i}", {"index": i, "payload": "x" * i})
    return store


class TestCopyStore:
    def test_full_copy(self):
        source = populated()
        destination = InMemoryStore()
        report = copy_store(source, destination)
        assert report.copied == 25
        assert destination.size() == 25
        assert destination.get("k7") == {"index": 7, "payload": "x" * 7}

    def test_cross_backend_copy(self, tmp_path):
        source = populated(10)
        destination = FileSystemStore(tmp_path / "dest")
        copy_store(source, destination)
        sql = SQLStore(synchronous="OFF")
        copy_store(destination, sql)
        assert verify_stores(source, sql) == []

    def test_key_filter(self):
        source = populated(10)
        destination = InMemoryStore()
        report = copy_store(source, destination, key_filter=lambda k: k.endswith("1"))
        assert report.copied == 1
        assert report.skipped == 9
        assert set(destination.keys()) == {"k1"}

    def test_transform_in_flight(self):
        source = populated(5)
        destination = InMemoryStore()
        copy_store(source, destination, transform=lambda key, value: value["index"] * 2)
        assert destination.get("k3") == 6

    def test_no_overwrite_skips_existing(self):
        source = populated(5)
        destination = InMemoryStore()
        destination.put("k2", "precious")
        report = copy_store(source, destination, overwrite=False)
        assert report.skipped == 1
        assert destination.get("k2") == "precious"

    def test_progress_callback_fires_per_batch(self):
        source = populated(25)
        seen: list[int] = []
        copy_store(
            source, InMemoryStore(), batch_size=10,
            on_progress=lambda report: seen.append(report.copied),
        )
        assert seen == [10, 20, 25]

    def test_fail_fast_on_source_error(self):
        source = FlakyStore(populated(20), failure_rate=1.0)
        with pytest.raises(DataStoreError):
            copy_store(source, InMemoryStore())

    def test_error_tolerance(self):
        source = FlakyStore(populated(20), failure_rate=0.3, seed=5)
        destination = InMemoryStore()
        report = copy_store(source, destination, max_errors=20)
        assert report.copied + len(report.errors) == 20
        assert report.copied == destination.size()

    def test_invalid_batch_size(self):
        with pytest.raises(DataStoreError):
            copy_store(InMemoryStore(), InMemoryStore(), batch_size=0)

    def test_report_str(self):
        report = MigrationReport(copied=10, elapsed_seconds=2.0)
        assert "copied 10 keys" in str(report)
        assert report.keys_per_second == 5.0


class TestVerifyStores:
    def test_agreement(self):
        a, b = populated(), populated()
        assert verify_stores(a, b) == []

    def test_detects_value_difference(self):
        a, b = populated(5), populated(5)
        b.put("k2", "changed")
        assert verify_stores(a, b) == ["k2"]

    def test_detects_missing_keys_both_directions(self):
        a, b = populated(3), populated(3)
        a.put("only-in-a", 1)
        b.put("only-in-b", 2)
        assert verify_stores(a, b) == ["only-in-a", "only-in-b"]

    def test_sample_restriction(self):
        a, b = populated(5), populated(5)
        b.put("k4", "changed")
        assert verify_stores(a, b, sample=["k0", "k1"]) == []
        assert verify_stores(a, b, sample=["k4"]) == ["k4"]

    def test_none_values_compare_correctly(self):
        a, b = InMemoryStore(), InMemoryStore()
        a.put("k", None)
        b.put("k", None)
        assert verify_stores(a, b) == []
        b.delete("k")
        assert verify_stores(a, b) == ["k"]


class TestMigrateCLI:
    def test_migrate_between_sql_and_file(self, tmp_path, capsys):
        from repro.cli import main

        source_db = tmp_path / "source.db"
        source = SQLStore(str(source_db))
        for i in range(8):
            source.put(f"k{i}", i)
        source.close()

        code = main(
            [
                "migrate",
                "--source", f"sql,path={source_db}",
                "--dest", f"file,path={tmp_path / 'dest'}",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "copied 8 keys" in out
        assert "stores agree" in out
        assert FileSystemStore(tmp_path / "dest").get("k5") == 5

    def test_migrate_bad_spec(self, capsys):
        from repro.cli import main

        assert main(["migrate", "--source", "sql,oops", "--dest", "memory"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_migrate_filesystem_to_lsm_and_back(self, tmp_path, capsys):
        from repro.cli import main
        from repro.kv import LSMStore

        source = FileSystemStore(tmp_path / "fs-src")
        for i in range(12):
            source.put(f"k{i}", {"index": i})
        source.close()

        lsm_dir = tmp_path / "kv.lsm"
        code = main(
            [
                "migrate",
                "--source", f"file,path={tmp_path / 'fs-src'}",
                "--dest", f"lsm,path={lsm_dir}",
                "--verify",
            ]
        )
        assert code == 0
        assert "stores agree" in capsys.readouterr().out
        with LSMStore(lsm_dir) as check:
            assert check.size() == 12
            assert check.get("k7") == {"index": 7}

        code = main(
            [
                "migrate",
                "--source", f"lsm,path={lsm_dir}",
                "--dest", f"file,path={tmp_path / 'fs-back'}",
                "--verify",
            ]
        )
        assert code == 0
        assert "stores agree" in capsys.readouterr().out
        with FileSystemStore(tmp_path / "fs-back") as back:
            assert back.get("k11") == {"index": 11}

    def test_failed_verify_closes_both_stores(self, tmp_path, capsys):
        from repro.cli import main
        from repro.kv import LSMStore

        with LSMStore(tmp_path / "src.lsm") as source, LSMStore(tmp_path / "dst.lsm") as dest:
            source.put("k", "new")
            dest.put("k", "old")  # kept by --no-overwrite, so verify fails
        code = main(
            [
                "migrate",
                "--source", f"lsm,path={tmp_path / 'src.lsm'}",
                "--dest", f"lsm,path={tmp_path / 'dst.lsm'}",
                "--no-overwrite", "--verify",
            ]
        )
        assert code == 1
        assert "VERIFY FAILED" in capsys.readouterr().out
        # Neither directory is still locked by the returned command.
        for name in ("src.lsm", "dst.lsm"):
            with LSMStore(tmp_path / name) as reopened:
                assert reopened.contains("k")


class TestMigrateLSMTools:
    def test_copy_store_into_and_out_of_lsm(self, tmp_path):
        from repro.kv import LSMStore

        source = populated(40)
        with LSMStore(tmp_path / "kv.lsm", memtable_bytes=1024) as lsm:
            report = copy_store(source, lsm)
            assert report.copied == 40
            assert verify_stores(source, lsm) == []
            round_trip = InMemoryStore()
            copy_store(lsm, round_trip)
            assert verify_stores(source, round_trip) == []
