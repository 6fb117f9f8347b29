"""Operational tooling built on the common key-value interface.

Because every store implements the same contract, operational jobs --
migrating data between stores, verifying two stores agree -- are written
once and work across any pair of backends (the substitutability argument
of paper Section II.A, applied to operations).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .migration import MigrationReport, copy_store, verify_stores

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "copy_store": ".migration",
    "verify_stores": ".migration",
    "MigrationReport": ".migration",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
