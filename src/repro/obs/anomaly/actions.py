"""Reversible resilience actions an anomaly can engage.

The point of detection is to *do something* before callers feel the
failure: trip a circuit breaker preemptively (shed load now, not after N
more failures), turn on hedged reads (mask a slow replica), or switch a
client into serve-stale mode (trade freshness for availability).  Each
action here is the smallest safe version of that idea:

* **reversible** -- :meth:`~AnomalyAction.engage` captures whatever state
  it changes and :meth:`~AnomalyAction.revert` restores it exactly, so an
  ``anomaly_cleared`` puts the stack back the way it was;
* **reference-counted** -- two concurrent anomalies bound to the same
  action (say, a latency rule and an error rule both tripping the same
  breaker) engage it twice but apply it once, and it reverts only when the
  *last* of them clears;
* **journaled by the engine** -- every engage/revert becomes an
  ``anomaly_action`` event, so the audit trail answers "who flipped this
  and why" without reading code.

Targets are duck-typed on purpose: this module must not import
:mod:`repro.kv` (which imports :mod:`repro.obs` -- a cycle), so
:class:`TripCircuitAction` needs only ``.trip()``/``.reset()``,
:class:`EnableHedgingAction` only a ``hedge_delay`` property, and
:class:`ServeStaleAction` only a ``serve_stale`` property.  Anything with
the right surface works, including test doubles.
"""

from __future__ import annotations

from typing import Any, Callable

from ...errors import ConfigurationError

__all__ = [
    "AnomalyAction",
    "CallbackAction",
    "TripCircuitAction",
    "EnableHedgingAction",
    "ServeStaleAction",
]


class AnomalyAction:
    """Base class: reference-counted engage/revert around a state change.

    Subclasses implement :meth:`_apply` (change the target, return journal
    detail) and :meth:`_restore` (undo it).  The base class guarantees
    ``_apply`` runs only on the 0 -> 1 engagement edge and ``_restore``
    only on 1 -> 0, so binding one action to several rules is safe.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("action name must be non-empty")
        self.name = name
        self._engaged = 0
        #: lifetime count of 0 -> 1 applications (for reports/assertions)
        self.applications = 0

    # ------------------------------------------------------------------
    @property
    def engaged(self) -> bool:
        """True while at least one anomaly holds this action engaged."""
        return self._engaged > 0

    @property
    def holders(self) -> int:
        """How many active anomalies currently hold the action."""
        return self._engaged

    def engage(self) -> dict[str, Any]:
        """Engage once; applies the change on the first holder only.

        If ``_apply`` raises, the hold is rolled back before the error
        propagates, so a later :meth:`revert` restores nothing that was
        never applied.
        """
        self._engaged += 1
        if self._engaged == 1:
            try:
                detail = self._apply() or {}
            except BaseException:
                self._engaged -= 1
                raise
            self.applications += 1
            return {"applied": True, **detail}
        return {"applied": False, "holders": self._engaged}

    def revert(self) -> dict[str, Any]:
        """Release one hold; restores the change when the last one clears."""
        if self._engaged == 0:
            return {"restored": False, "reason": "not engaged"}
        self._engaged -= 1
        if self._engaged == 0:
            detail = self._restore() or {}
            return {"restored": True, **detail}
        return {"restored": False, "holders": self._engaged}

    def describe(self) -> dict[str, Any]:
        return {
            "action": self.name,
            "kind": type(self).__name__,
            "engaged": self.engaged,
            "holders": self._engaged,
            "applications": self.applications,
        }

    # ------------------------------------------------------------------
    def _apply(self) -> dict[str, Any] | None:
        raise NotImplementedError

    def _restore(self) -> dict[str, Any] | None:
        raise NotImplementedError

    def __repr__(self) -> str:
        state = f"engaged x{self._engaged}" if self._engaged else "idle"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class CallbackAction(AnomalyAction):
    """Run arbitrary callables on engage/revert -- the escape hatch.

    ``on_engage`` / ``on_revert`` may return a dict of journal detail.
    ``on_revert`` may be omitted for one-way notifications (paging a
    human), in which case revert journals but changes nothing.
    """

    def __init__(
        self,
        name: str,
        on_engage: Callable[[], Any],
        on_revert: Callable[[], Any] | None = None,
    ) -> None:
        super().__init__(name)
        self._on_engage = on_engage
        self._on_revert = on_revert

    def _apply(self) -> dict[str, Any] | None:
        result = self._on_engage()
        return result if isinstance(result, dict) else None

    def _restore(self) -> dict[str, Any] | None:
        if self._on_revert is None:
            return {"note": "no revert callback"}
        result = self._on_revert()
        return result if isinstance(result, dict) else None


class TripCircuitAction(AnomalyAction):
    """Preemptively open a circuit breaker; close it again on clear.

    The breaker normally opens *after* enough callers have eaten failures;
    this action opens it the moment the metrics plane sees trouble, so the
    fallback path (UDSM rerouting, serve-stale) takes over before the
    error budget is spent.  Revert calls ``reset()``, returning the breaker
    to closed; if the underlying store is still sick, the breaker's own
    thresholds will re-open it from real traffic.

    *breaker* needs ``trip()`` and ``reset()``
    (:class:`repro.kv.circuit.CircuitBreaker` grows both in this PR).
    """

    def __init__(self, breaker: Any, *, name: str = "trip_circuit") -> None:
        super().__init__(name)
        self.breaker = breaker

    def _apply(self) -> dict[str, Any]:
        self.breaker.trip()
        return {"breaker": getattr(self.breaker, "name", repr(self.breaker))}

    def _restore(self) -> dict[str, Any]:
        self.breaker.reset()
        return {"breaker": getattr(self.breaker, "name", repr(self.breaker))}


class EnableHedgingAction(AnomalyAction):
    """Turn on (or tighten) hedged reads while an anomaly is active.

    Captures the store's current ``hedge_delay`` and sets it to
    *hedge_delay*; revert restores the captured value -- including ``None``
    (hedging off), so a store that never hedged goes back to never hedging.

    *store* needs a readable/writable ``hedge_delay`` property, as
    :class:`repro.kv.quorum.ReplicatedStore` has.
    """

    def __init__(
        self, store: Any, *, hedge_delay: float = 0.0, name: str = "enable_hedging"
    ) -> None:
        super().__init__(name)
        if hedge_delay < 0:
            raise ConfigurationError("hedge_delay must be >= 0")
        self.store = store
        self.hedge_delay = hedge_delay
        self._previous: Any = None

    def _apply(self) -> dict[str, Any]:
        self._previous = self.store.hedge_delay
        self.store.hedge_delay = self.hedge_delay
        return {"hedge_delay": self.hedge_delay, "previous": self._previous}

    def _restore(self) -> dict[str, Any]:
        self.store.hedge_delay = self._previous
        return {"hedge_delay": self._previous}


class ServeStaleAction(AnomalyAction):
    """Switch a client into serve-stale degradation while anomalous.

    Captures the client's ``serve_stale`` flag (and ``max_stale``, when a
    bound is given) and enables stale serving; revert restores both.  The
    client's own safety rules still apply -- negatives are never served
    stale, and entries beyond ``max_stale`` stay misses -- this action only
    flips the policy switch.

    *client* needs ``serve_stale`` (and optionally ``max_stale``) as
    readable/writable properties
    (:class:`repro.core.enhanced.EnhancedDataStoreClient` grows the setters
    in this PR).
    """

    def __init__(
        self, client: Any, *, max_stale: float | None = None, name: str = "serve_stale"
    ) -> None:
        super().__init__(name)
        if max_stale is not None and max_stale < 0:
            raise ConfigurationError("max_stale must be >= 0")
        self.client = client
        self.max_stale = max_stale
        self._previous_flag = False
        self._previous_max: Any = None

    def _apply(self) -> dict[str, Any]:
        self._previous_flag = self.client.serve_stale
        self.client.serve_stale = True
        detail: dict[str, Any] = {"serve_stale": True}
        if self.max_stale is not None:
            self._previous_max = self.client.max_stale
            self.client.max_stale = self.max_stale
            detail["max_stale"] = self.max_stale
        return detail

    def _restore(self) -> dict[str, Any]:
        self.client.serve_stale = self._previous_flag
        detail: dict[str, Any] = {"serve_stale": self._previous_flag}
        if self.max_stale is not None:
            self.client.max_stale = self._previous_max
            detail["max_stale"] = self._previous_max
        return detail
