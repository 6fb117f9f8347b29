"""``repro.lsm`` -- an embedded log-structured merge storage engine.

The write-optimized durable backend of the store lineup: an append-only
CRC-framed write-ahead log, an in-memory memtable, immutable sorted
SSTable runs with sparse indexes and per-table Bloom filters, and
size-tiered compaction on an injectable scheduler.  The public entry
point is :class:`~repro.lsm.store.LSMStore`, a full
:class:`~repro.kv.interface.KeyValueStore`, so everything written against
the KV contract -- the enhanced client, the UDSM, migration, the workload
generator, ``StoreServer`` -- works on it unchanged.

Formats and the recovery procedure are documented in ``docs/lsm.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .compaction import (
        BackgroundScheduler,
        InlineScheduler,
        ManualScheduler,
        SizeTieredPolicy,
        merge_tables,
    )
    from .manifest import MANIFEST_NAME, Manifest
    from .memtable import TOMBSTONE, Memtable
    from .sstable import MISSING, SSTable, write_sstable
    from .store import LSMStore
    from .wal import OP_DELETE, OP_PUT, CommitPipeline, WalRecord, WriteAheadLog

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "LSMStore": ".store",
    "WriteAheadLog": ".wal",
    "CommitPipeline": ".wal",
    "WalRecord": ".wal",
    "OP_PUT": ".wal",
    "OP_DELETE": ".wal",
    "Memtable": ".memtable",
    "TOMBSTONE": ".memtable",
    "SSTable": ".sstable",
    "MISSING": ".sstable",
    "write_sstable": ".sstable",
    "Manifest": ".manifest",
    "MANIFEST_NAME": ".manifest",
    "SizeTieredPolicy": ".compaction",
    "merge_tables": ".compaction",
    "InlineScheduler": ".compaction",
    "ManualScheduler": ".compaction",
    "BackgroundScheduler": ".compaction",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
