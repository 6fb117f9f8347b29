"""Topology-aware sharded store serving with smart clients.

One key-value namespace spanning many shard servers, with the routing
intelligence pushed into the *client* -- the paper's thesis (enhance the
data store from the client side) applied to horizontal scale:

* :class:`ClusterTopology` / :class:`ShardInfo` -- the versioned shard map
  (consistent-hash ring + monotonic epoch) every participant shares;
* :class:`ClusterCoordinator` -- boots shard servers, adds/removes shards,
  and live-rebalances only the moved key ranges;
* :class:`ClusterStoreClient` -- a :class:`~repro.kv.interface.KeyValueStore`
  that hash-routes every operation to the owning shard and converges on
  membership changes via piggybacked epochs and ``-MOVED`` redirects,
  without reconnecting (a member never forwards a key);
* :mod:`~repro.cluster.rebalancer` -- the no-downtime key-movement passes
  built on the ``repro migrate`` machinery.

Start at ``docs/cluster.md``; the wire grammar is in ``docs/protocol.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .client import ClusterStoreClient
    from .coordinator import ClusterCoordinator
    from .rebalancer import RebalanceReport, copy_moved_keys, moved_pairs, purge_stale_keys, rebalance
    from .topology import ClusterTopology, ShardInfo

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "ClusterTopology": ".topology",
    "ShardInfo": ".topology",
    "ClusterCoordinator": ".coordinator",
    "ClusterStoreClient": ".client",
    "RebalanceReport": ".rebalancer",
    "rebalance": ".rebalancer",
    "moved_pairs": ".rebalancer",
    "copy_moved_keys": ".rebalancer",
    "purge_stale_keys": ".rebalancer",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
