"""The paper's primary contribution: the Data Store Client Library (DSCL)
and enhanced data store clients.

* :class:`~repro.core.pipeline.ValuePipeline` -- the serialize / compress /
  encrypt value transformation shared by every enhanced feature.
* :class:`~repro.core.dscl.DSCL` -- the explicit-API library (the paper's
  *loose coupling*): applications call caching / encryption / compression /
  delta operations themselves, independently of any data store.
* :class:`~repro.core.enhanced.EnhancedDataStoreClient` -- the *tight
  coupling*: a data store client whose ``get``/``put``/``delete`` transparently
  consult and maintain a cache, revalidate expired entries against the
  origin, and run values through the pipeline.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .pipeline import ValuePipeline
    from .dscl import DSCL
    from .enhanced import EnhancedDataStoreClient, WritePolicy

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "ValuePipeline": ".pipeline",
    "DSCL": ".dscl",
    "EnhancedDataStoreClient": ".enhanced",
    "WritePolicy": ".enhanced",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
