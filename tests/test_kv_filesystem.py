"""FileSystemStore specifics: key encoding, atomicity, disk layout."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataStoreError
from repro.kv import FileSystemStore
from repro.kv.filesystem import _decode_key, _encode_key


class TestKeyEncoding:
    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_encode_decode_roundtrip(self, key):
        assert _decode_key(_encode_key(key)) == key

    @given(st.text(max_size=100), st.text(max_size=100))
    @settings(max_examples=200)
    def test_encoding_is_injective(self, a, b):
        if a != b:
            assert _encode_key(a) != _encode_key(b)

    def test_encoded_names_are_filesystem_safe(self):
        for key in ("../../etc/passwd", "a/b", "nul\x00byte", " ", "", "é"):
            encoded = _encode_key(key)
            assert "/" not in encoded
            assert "\\" not in encoded
            assert "\x00" not in encoded
            assert not encoded.startswith(".")


    @pytest.mark.parametrize(
        "key, name",
        [
            ("héllo", "h%C3%A9llo"),
            ("a/b\\c", "a%2Fb%5Cc"),
            ("sp ace", "sp%20ace"),
            ("dot.", "dot."),
            ("%41", "%2541"),
            ("日本語", "%E6%97%A5%E6%9C%AC%E8%AA%9E"),
            ("", "%00EMPTY"),
            (".hidden", "%2Ehidden"),
        ],
    )
    def test_file_names_are_pinned(self, key, name):
        """Existing stores keep addressing their files: a UTF-8 key's name
        percent-encodes its UTF-8 bytes, as it always has."""
        assert _encode_key(key) == name
        assert _decode_key(name) == key

    def test_surrogate_escaped_key_names_its_original_bytes(self):
        key = b"\xff\xfe-k".decode("utf-8", "surrogateescape")
        assert _encode_key(key) == "%FF%FE-k"
        assert _decode_key("%FF%FE-k") == key


class TestDiskBehaviour:
    def test_one_file_per_key(self, tmp_path):
        store = FileSystemStore(tmp_path)
        store.put("a", 1)
        store.put("b", 2)
        files = [p for p in tmp_path.iterdir() if p.suffix == ".kv"]
        assert len(files) == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        store = FileSystemStore(tmp_path)
        for i in range(20):
            store.put(f"k{i}", bytes(100))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_persistence_across_instances(self, tmp_path):
        FileSystemStore(tmp_path).put("k", {"durable": True})
        reopened = FileSystemStore(tmp_path)
        assert reopened.get("k") == {"durable": True}

    def test_missing_root_without_create_raises(self, tmp_path):
        with pytest.raises(DataStoreError):
            FileSystemStore(tmp_path / "nope", create=False)

    def test_fsync_mode_still_roundtrips(self, tmp_path):
        store = FileSystemStore(tmp_path, fsync=True)
        store.put("k", b"durable")
        assert store.get("k") == b"durable"

    def test_native_returns_root(self, tmp_path):
        store = FileSystemStore(tmp_path)
        assert store.native() == tmp_path

    def test_foreign_files_are_ignored_by_keys(self, tmp_path):
        (tmp_path / "not-a-kv-file.txt").write_text("noise")
        store = FileSystemStore(tmp_path)
        store.put("k", 1)
        assert list(store.keys()) == ["k"]
