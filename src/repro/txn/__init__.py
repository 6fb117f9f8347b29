"""Atomic updates and two-phase commit across data stores.

The paper's stated future work (Section VII): "providing more coordinated
features across multiple data stores such as atomic updates and two-phase
commits."  This package implements that on top of the common key-value
interface, so *any* combination of registered stores can participate:

* :class:`~repro.txn.log.TransactionLog` -- a write-ahead record of every
  in-flight transaction, persisted in a (durable) key-value store.
* :class:`~repro.txn.twophase.TwoPhaseCommitCoordinator` -- stages writes
  on every participant (phase 1), then atomically flips them live
  (phase 2), with crash recovery that rolls incomplete transactions
  forward or back from the log.
* :func:`~repro.txn.twophase.atomic_put_many` -- the single-store
  convenience form.

The protocol needs nothing from the stores beyond ``put``/``get``/``delete``,
staying true to the paper's client-side philosophy: no server changes.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .log import TransactionLog, TransactionRecord, TransactionState
    from .twophase import TwoPhaseCommitCoordinator, atomic_put_many

#: name -> defining module; resolved on first access (see ``repro._lazy``).
_EXPORTS = {
    "TransactionState": ".log",
    "TransactionRecord": ".log",
    "TransactionLog": ".log",
    "TwoPhaseCommitCoordinator": ".twophase",
    "atomic_put_many": ".twophase",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
