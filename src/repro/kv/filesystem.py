"""File-system key-value store.

One of the five data stores in the paper's evaluation is "a file system on
the client node accessed via standard Java method calls".  This backend is
the Python analogue: each key maps to one file in a root directory, values
pass through a pluggable serializer, and writes are atomic
(write-to-temp + ``os.replace``) so a crash never leaves a torn value.

Keys may contain characters that are not legal in file names, so keys are
encoded with a filesystem-safe scheme (URL-style percent encoding of anything
outside ``[A-Za-z0-9._-]``).  The encoding is injective, so distinct keys
never collide on disk.
"""

from __future__ import annotations

import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterator

from ..errors import DataStoreError, KeyNotFoundError, StoreClosedError
from ..fsutil import fsync_dir
from ..serialization import Serializer, default_serializer
from .interface import KeyValueStore, content_version, decode_key, encode_key

__all__ = ["FileSystemStore"]

_SAFE_BYTES = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
_SUFFIX = ".kv"


def _encode_key(key: str) -> str:
    """Encode *key* into a safe, injective file name (without suffix): each
    byte of its :func:`~repro.kv.interface.encode_key` form that is not a
    safe ASCII character becomes ``%XX``."""
    out = [chr(byte) if byte in _SAFE_BYTES else f"%{byte:02X}" for byte in encode_key(key)]
    if not out:
        return "%00EMPTY"
    encoded = "".join(out)
    if encoded.startswith("."):
        # Avoid creating hidden files for keys that begin with a dot.
        encoded = "%2E" + encoded[1:]
    return encoded


def _decode_key(encoded: str) -> str:
    """Invert :func:`_encode_key`."""
    if encoded == "%00EMPTY":
        return ""
    raw = bytearray()
    i = 0
    while i < len(encoded):
        ch = encoded[i]
        if ch == "%":
            raw.extend(bytes.fromhex(encoded[i + 1 : i + 3]))
            i += 3
        else:
            raw.append(ord(ch))
            i += 1
    return decode_key(bytes(raw))


class FileSystemStore(KeyValueStore):
    """Key-value store mapping each key to one file under a root directory."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        name: str = "file",
        *,
        serializer: Serializer | None = None,
        fsync: bool = False,
        create: bool = True,
    ) -> None:
        """Open (and by default create) a store rooted at *root*.

        :param root: directory holding the store's files.
        :param serializer: value codec; defaults to pickle.
        :param fsync: if true, ``fsync`` every written file before renaming
            it into place.  Durable but slow; the paper's write-latency
            asymmetry for local stores is visible either way.
        :param create: create *root* if missing.
        """
        self.name = name
        self._root = Path(root)
        self._serializer = serializer if serializer is not None else default_serializer()
        self._fsync = fsync
        self._closed = False
        self._lock = threading.RLock()
        if create:
            self._root.mkdir(parents=True, exist_ok=True)
        elif not self._root.is_dir():
            raise DataStoreError(f"store root {self._root} does not exist")

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    def _path_for(self, key: str) -> Path:
        return self._root / (_encode_key(key) + _SUFFIX)

    def _read_payload(self, key: str) -> bytes:
        path = self._path_for(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise KeyNotFoundError(key, self.name) from None

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        self._check_open()
        return self._serializer.loads(self._read_payload(key))

    def get_with_version(self, key: str) -> tuple[Any, str]:
        self._check_open()
        payload = self._read_payload(key)
        return self._serializer.loads(payload), content_version(payload)

    def put(self, key: str, value: Any) -> None:
        self.put_with_version(key, value)

    def put_with_version(self, key: str, value: Any) -> str:
        self._check_open()
        payload = self._serializer.dumps(value)
        self._write_payload(key, payload)
        return content_version(payload)

    def _write_payload(self, key: str, payload: bytes) -> None:
        path = self._path_for(key)
        # Atomic replace: write to a temp file in the same directory first.
        fd, tmp_name = tempfile.mkstemp(dir=self._root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                if self._fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_name, path)
            if self._fsync:
                # The file fsync above makes the *contents* durable; the
                # rename itself is durable only once the directory entry
                # is synced too (POSIX), else power loss can forget it.
                fsync_dir(self._root)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> bool:
        self._check_open()
        try:
            self._path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def keys(self) -> Iterator[str]:
        self._check_open()
        for entry in sorted(self._root.iterdir()):
            if entry.suffix == _SUFFIX and entry.is_file():
                yield _decode_key(entry.name[: -len(_SUFFIX)])

    def contains(self, key: str) -> bool:
        self._check_open()
        return self._path_for(key).is_file()

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def native(self) -> Path:
        """The root directory, for applications that want direct file access."""
        return self._root
