"""Client-side encryption (paper Sections I-III).

The paper argues encryption belongs in the *client* because servers may lack
it, channels may be insecure, and providers may simply not be trustworthy --
and it evaluates AES with 128-bit keys (Figure 20).  This package provides a
pluggable :class:`~repro.security.interface.Encryptor` interface with
AES-128-GCM (authenticated, the recommended default) and AES-128-CBC
(closest to the paper's configuration) implementations, plus key generation
and password-based key derivation helpers.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .interface import Encryptor, NullEncryptor
    from .aes import AesCbcEncryptor, AesGcmEncryptor
    from .keys import derive_key, generate_key
    from .rotation import RotatingEncryptor

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "Encryptor": ".interface",
    "NullEncryptor": ".interface",
    "AesGcmEncryptor": ".aes",
    "AesCbcEncryptor": ".aes",
    "RotatingEncryptor": ".rotation",
    "generate_key": ".keys",
    "derive_key": ".keys",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
