"""Stronger cache consistency across clients (paper Section VII).

The paper's future work: "new techniques for providing data consistency
between different data stores.  The most compelling use case is providing
stronger cache consistency."  With write-through or invalidate policies a
*single* client's cache never serves stale data -- but a second client with
its own in-process cache has no way to learn about the first one's writes.

This package closes that gap with an **invalidation bus**: writers publish
the keys they change on a pub/sub channel of the shared cache server;
every :class:`CoherentClient` subscribes and drops its local cached entry
the moment a peer changes the key.  This is the classic
invalidate-on-write coherence protocol, built entirely client-side over
the cache server's SUBSCRIBE/PUBLISH commands -- no data store changes,
in keeping with the paper's philosophy.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .bus import InvalidationBus
    from .coherent import CoherentClient

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "InvalidationBus": ".bus",
    "CoherentClient": ".coherent",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
