"""MANIFEST: the authoritative record of the live SSTable set.

PR 4 recovered the table set by scanning the directory for ``*.sst``
files.  That conflates "file exists" with "table is committed": a crash
between writing a compaction output and retiring its inputs leaves both
on disk, and a directory scan would load the output *and* the inputs --
double-counting every record and, worse, trusting a table whose commit
never happened.  The MANIFEST separates the two: a table is part of the
store if and only if the manifest says so, and the flush/compaction
table swap becomes a single atomically-appended edit record.

Format: the same framed log as the WAL (:mod:`.wal`: ``crc32 | len |
payload``), with::

    payload = UTF-8 JSON: {"add": [name, ...], "remove": [name, ...]}

Each frame is one **edit batch** applied atomically: the tables in
``add`` join the live set (in list order, which is age order) and the
tables in ``remove`` leave it.  A flush appends ``{"add": [table]}``; a
compaction appends ``{"add": [output], "remove": inputs}`` -- one frame,
so recovery never sees the swap half-applied: replay stops at the first
incomplete or corrupt frame and the valid prefix is the committed state.

On every open the store rewrites the manifest to a single snapshot frame
of the live set (written to a temp file and renamed into place, parent
directory fsynced), which both repairs any torn tail and keeps the file
from growing without bound.  A PR-4-era directory with no MANIFEST is
migrated the same way: one directory scan synthesizes the snapshot, and
from then on the scan is never trusted again.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple

from ..errors import DataStoreError, StoreClosedError
from ..fsutil import fsync_dir
from .wal import encode_frame, scan_frames, truncate_torn_tail

__all__ = ["MANIFEST_NAME", "Manifest", "ManifestReplay"]

#: File name of the manifest inside a store's root directory.
MANIFEST_NAME = "MANIFEST"


class ManifestReplay(NamedTuple):
    """Everything :meth:`Manifest.replay` learned about a manifest file."""

    tables: list[str]      # live table file names, oldest first
    edits: int             # intact edit batches applied
    valid_length: int      # byte offset of the last intact frame's end
    torn: bool             # True when trailing bytes had to be discarded
    discarded_bytes: int   # how many trailing bytes were invalid


def encode_edit(add: Iterable[str] = (), remove: Iterable[str] = ()) -> bytes:
    """Frame one edit batch as an append-ready byte string."""
    edit = {"add": list(add), "remove": list(remove)}
    return encode_frame(json.dumps(edit, separators=(",", ":")).encode("utf-8"))


def _decode_edit(payload: bytes) -> tuple[list, list]:
    edit = json.loads(payload)  # ValueError on bad UTF-8 or bad JSON alike
    added, removed = edit.get("add", []), edit.get("remove", [])
    if not isinstance(added, list) or not isinstance(removed, list):
        raise ValueError("add/remove must be lists")
    return added, removed


class Manifest:
    """Append handle over one manifest file.

    Not thread-safe on its own; the owning store serializes appends
    (edits are only written while holding the store lock).
    """

    def __init__(self, path: str | os.PathLike[str], *, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._file = open(self.path, "ab")
        self._size = self._file.tell()

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        tables: Iterable[str],
        *,
        fsync: bool = False,
    ) -> "Manifest":
        """Atomically (re)write *path* as one snapshot frame of *tables*.

        Written to a temp file in the same directory and renamed into
        place (directory fsynced), so a crash mid-rewrite leaves either
        the old manifest or the new one, never a hybrid.
        """
        path = Path(path)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".manifest.tmp")
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(encode_edit(add=tables))
                out.flush()
                if fsync:
                    os.fsync(out.fileno())
            os.replace(tmp_name, path)
            if fsync:
                fsync_dir(path.parent)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return cls(path, fsync=fsync)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self._size

    def append(self, *, add: Iterable[str] = (), remove: Iterable[str] = ()) -> int:
        """Durably append one edit batch; returns the bytes written.

        The batch is atomic: recovery either applies all of it (frame
        intact) or none of it (frame torn/corrupt -> replay stops).
        """
        if self._file.closed:
            raise StoreClosedError(f"manifest {self.path} is closed")
        frame = encode_edit(add=add, remove=remove)
        self._file.write(frame)
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        self._size += len(frame)
        return len(frame)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: str | os.PathLike[str]) -> ManifestReplay:
        """Apply every intact edit batch in *path*, stopping at a torn tail."""
        edits, *scan = scan_frames(path, _decode_edit)
        live: dict[str, None] = {}  # insertion-ordered set
        for added, removed in edits:
            for name in added:
                live[str(name)] = None
            for name in removed:
                live.pop(str(name), None)
        return ManifestReplay(list(live), len(edits), *scan)

    #: Truncate a manifest back to its valid prefix after a torn replay.
    repair = staticmethod(truncate_torn_tail)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<Manifest path={str(self.path)!r} size={self._size}>"


def require_tables_on_disk(root: Path, tables: Iterable[str]) -> None:
    """Fail loudly when the manifest names a table the directory lacks.

    A missing committed table is real data loss (or a half-copied
    directory) -- silently opening without it would serve resurrected
    deletes and vanished writes as if nothing happened.
    """
    missing = [name for name in tables if not (root / name).is_file()]
    if missing:
        raise DataStoreError(
            f"MANIFEST in {root} references missing SSTables: {missing[:5]} "
            "(data directory is incomplete or corrupt)"
        )
