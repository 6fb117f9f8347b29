"""Key-value data store substrates.

Every data store in this library -- local, SQL-backed, simulated-cloud, or
remote-process -- implements the common :class:`~repro.kv.interface.KeyValueStore`
contract, which is the Python analogue of the paper's ``KeyValue<K,V>``
interface.  Higher layers (the DSCL, the UDSM, the workload generator) are
written against the interface only, so any store can be substituted for any
other, and features implemented once against the interface (asynchronous
access, monitoring, workload generation) apply to all stores automatically.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .interface import NOT_MODIFIED, KeyValueStore, NotModified
    from .memory import InMemoryStore
    from .filesystem import FileSystemStore
    from .sqlstore import SQLStore
    from .cloudsim import CLOUD_STORE_1, CLOUD_STORE_2, CloudStoreProfile, SimulatedCloudStore
    from .remote import RemoteKeyValueStore
    from .wrappers import NamespacedStore, ReadOnlyStore, TransformingStore
    from .chaos import FlakyStore, PartitionedStore
    from .circuit import CircuitBreaker, CircuitBreakerStore, CircuitState
    from .deadline import Deadline, current_deadline, deadline_scope
    from .resilience import RetryingStore
    from .quorum import (
        AntiEntropyReport,
        MerkleTree,
        QuorumReplicatedStore,
        ReplicatedStore,
        VersionStamp,
    )
    from ..lsm.store import LSMStore

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "LSMStore": "..lsm.store",
    "KeyValueStore": ".interface",
    "NotModified": ".interface",
    "NOT_MODIFIED": ".interface",
    "InMemoryStore": ".memory",
    "FileSystemStore": ".filesystem",
    "SQLStore": ".sqlstore",
    "SimulatedCloudStore": ".cloudsim",
    "CloudStoreProfile": ".cloudsim",
    "CLOUD_STORE_1": ".cloudsim",
    "CLOUD_STORE_2": ".cloudsim",
    "RemoteKeyValueStore": ".remote",
    "NamespacedStore": ".wrappers",
    "ReadOnlyStore": ".wrappers",
    "TransformingStore": ".wrappers",
    "FlakyStore": ".chaos",
    "PartitionedStore": ".chaos",
    "RetryingStore": ".resilience",
    "ReplicatedStore": ".quorum",
    "QuorumReplicatedStore": ".quorum",
    "MerkleTree": ".quorum",
    "VersionStamp": ".quorum",
    "AntiEntropyReport": ".quorum",
    "CircuitBreaker": ".circuit",
    "CircuitBreakerStore": ".circuit",
    "CircuitState": ".circuit",
    "Deadline": ".deadline",
    "deadline_scope": ".deadline",
    "current_deadline": ".deadline",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
