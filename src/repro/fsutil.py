"""Small filesystem durability helpers shared by the durable backends.

The one subtlety worth a module: ``os.replace`` makes a rename *atomic*
but not *durable*.  POSIX only promises the new directory entry survives
a power failure after the directory itself has been fsynced -- fsyncing
the file's data is not enough.  Every temp-write-then-rename path that
claims durability (``FileSystemStore`` with ``fsync=True``, SSTable and
MANIFEST writes in the LSM engine) must therefore follow the rename with
:func:`fsync_dir` on the parent.  A newly created file is the same case:
the LSM engine syncs the directory once per WAL segment it creates.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["fsync_dir"]


def fsync_dir(path: str | os.PathLike[str]) -> None:
    """Fsync the *directory* at *path* so renames inside it are durable.

    A no-op on platforms that cannot open directories read-only (Windows
    raises ``PermissionError``/``OSError``); on POSIX this is the step
    that makes an ``os.replace`` survive power loss.
    """
    try:
        fd = os.open(Path(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platform
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
