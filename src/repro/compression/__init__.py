"""Client-side compression (paper Sections I-III, Figure 21).

Compression at the client shrinks what crosses the network, what the server
stores (and bills for), and what the cache holds.  The paper benchmarks gzip
(Figure 21); this package provides a pluggable
:class:`~repro.compression.interface.Compressor` interface with gzip, zlib,
and LZMA codecs from the standard library.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .interface import Compressor, NullCompressor
    from .codecs import GzipCompressor, LzmaCompressor, ZlibCompressor
    from .adaptive import AdaptiveCompressor

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "Compressor": ".interface",
    "NullCompressor": ".interface",
    "GzipCompressor": ".codecs",
    "ZlibCompressor": ".codecs",
    "LzmaCompressor": ".codecs",
    "AdaptiveCompressor": ".adaptive",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
