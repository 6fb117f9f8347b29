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


#: ``str`` keys must be valid UTF-8 (``key_hash`` encodes them strictly).
UTF8_KEYS = [key for key in KEYS if "\udcff" not in key]


class TestKeyHash:
    @pytest.mark.parametrize(
        "data", [_raw(key) for key in KEYS] + [bytes(range(256)) * 16], ids=range(len(KEYS) + 1)
    )
    def test_bytes_key_is_the_first_16_bytes_of_hashlib_sha256(self, data):
        assert key_hash(data) == _reference(data)

    @pytest.mark.parametrize("key", UTF8_KEYS, ids=range(len(UTF8_KEYS)))
    def test_str_key_hashes_its_utf8_bytes(self, key):
        assert key_hash(key) == _reference(key.encode("utf-8")) == key_hash(key.encode("utf-8"))


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
                if key not in UTF8_KEYS:
                    continue  # the store client encodes keys strictly as UTF-8
                payload, version = remote.get_with_version(key)
                assert payload == value
                assert client.getver(_raw(key)) == version == hashlib.sha1(value).hexdigest()
        finally:
            client.close()
            remote.close()
            server.stop()
