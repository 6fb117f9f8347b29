"""Hash identity: the digests a serving process computes without OpenSSL.

Bloom keys hash on CPython's built-in SHA-256 and version tokens load
``hashlib`` on first use (``docs/architecture.md``, "What a process
loads").  Either is invisible only while the bytes are ``hashlib``'s: a
Bloom position that moved would make every SSTable on disk answer "absent",
and a version token that moved would make every revalidation refetch.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro.caching.bloom import key_hash
from repro.kv.interface import content_version
from repro.kv.remote import RemoteKeyValueStore
from repro.lsm.store import LSMStore
from repro.net.client import CacheClient
from repro.net.server import build_server
from repro.serialization import BytesSerializer

#: One key per shape the LSM and the wire hand to ``key_hash``.
KEYS = [
    "",
    "k",
    "user:0001",
    "naïve-ключ-鍵-🔑",
    "\udcff\udcfe-escaped",  # a wire key that was not UTF-8 (``surrogateescape``)
    "x" * 4096,
]


def _raw(key: str) -> bytes:
    return key.encode("utf-8", "surrogateescape")


def _reference(data: bytes) -> tuple[int, int]:
    return struct.unpack(">QQ", hashlib.sha256(data).digest()[:16])


class TestKeyHash:
    @pytest.mark.parametrize(
        "data", [_raw(key) for key in KEYS] + [bytes(range(256)) * 16], ids=range(len(KEYS) + 1)
    )
    def test_bytes_key_is_the_first_16_bytes_of_hashlib_sha256(self, data):
        assert key_hash(data) == _reference(data)

    @pytest.mark.parametrize("key", KEYS, ids=range(len(KEYS)))
    def test_str_key_hashes_its_utf8_bytes(self, key):
        """A ``str`` key hashes the bytes it names on the wire: its UTF-8
        encoding, or the original bytes of a surrogate-escaped key."""
        assert key_hash(key) == _reference(_raw(key)) == key_hash(_raw(key))


class TestContentVersion:
    @pytest.mark.parametrize("payload", [b"", b"v", bytes(range(256)), b"\x00" * 65536])
    def test_is_hashlib_sha1_hexdigest(self, payload):
        assert content_version(payload) == hashlib.sha1(payload).hexdigest()


@pytest.mark.parametrize("engine", ["threaded", "async"])
def test_getver_matches_the_clients_content_version(engine, tmp_path):
    with LSMStore(tmp_path / "kv.lsm") as store:
        server = build_server(engine, store)
        host, port = server.start()
        remote = RemoteKeyValueStore(host, port, serializer=BytesSerializer())
        client = CacheClient(host, port)
        try:
            for index, key in enumerate(KEYS):
                value = b"value-%d-" % index + _raw(key)
                client.set(_raw(key), value)
                assert client.getver(_raw(key)) == content_version(value)
                payload, version = remote.get_with_version(key)
                assert payload == value
                assert client.getver(_raw(key)) == version == hashlib.sha1(value).hexdigest()
            assert sorted(remote.keys()) == sorted(KEYS)
        finally:
            client.close()
            remote.close()
            server.stop()
