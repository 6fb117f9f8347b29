"""Delta encoding (paper Section IV).

When a client updates an object, it can often send just the *difference*
from the version the server already has instead of the whole object.  The
paper's algorithm serializes objects to byte arrays, indexes every
``WINDOW_SIZE``-byte substring of the base version with a Rabin-Karp rolling
hash, and encodes the new version as a sequence of COPY (offset, length into
the base) and LITERAL (raw bytes) operations, expanding each match to its
maximal length.

Because most servers know nothing about deltas, Section IV also describes a
purely client-side protocol: updates are stored *as deltas under derived
keys*; after a configurable number of deltas the client writes a full object
and deletes the chain; reads fetch the base plus every delta and reconstruct.
:class:`~repro.delta.manager.DeltaStoreManager` implements that protocol
over any :class:`~repro.kv.interface.KeyValueStore`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .rolling_hash import RollingHash
    from .ops import CopyOp, LiteralOp, parse_delta, serialize_delta
    from .encoder import DeltaCodec, apply_delta, encode_delta
    from .manager import DeltaStoreManager

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "RollingHash": ".rolling_hash",
    "CopyOp": ".ops",
    "LiteralOp": ".ops",
    "serialize_delta": ".ops",
    "parse_delta": ".ops",
    "encode_delta": ".encoder",
    "apply_delta": ".encoder",
    "DeltaCodec": ".encoder",
    "DeltaStoreManager": ".manager",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
