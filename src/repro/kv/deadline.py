"""Deadline budgets: one time allowance for a whole operation tree.

Per-attempt timeouts compose badly: a retry policy with three attempts and
a 30-second socket timeout can hold a caller hostage for minutes, which is
exactly the tail behaviour the paper's evaluation shows for its misbehaving
cloud store.  A :class:`Deadline` is the caller's *total* allowance; every
layer underneath -- retries, replica failover, hedges, socket waits --
derives its own per-attempt timeout from what remains, so the operation as
a whole can never exceed the budget regardless of how many attempts the
layers make.

Propagation is ambient, via :mod:`contextvars`, so the budget flows through
existing call chains (including wrapper stores that know nothing about it)
without threading a parameter through every signature::

    from repro.kv.deadline import deadline_scope

    with deadline_scope(0.250):          # this get(), retries included,
        client.get("user:42")            # is bounded by 250 ms

Layers that consume the budget (:class:`~repro.kv.resilience.RetryingStore`,
the replication groups of :mod:`repro.kv.quorum`,
:class:`~repro.net.client.CacheClient`) raise
:class:`~repro.errors.DeadlineExceededError` once it is gone and count the
expiry as ``kv.deadline.expired`` (the stores through :func:`expired`).
Scopes nest: an inner scope can only *tighten* the budget, never extend
what an outer caller allowed.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..errors import ConfigurationError, DeadlineExceededError

__all__ = ["Deadline", "deadline_scope", "current_deadline"]


class Deadline:
    """An absolute point in time by which an operation must finish.

    Immutable once created; share one instance across every attempt of an
    operation so they all drain the same budget.  The *clock* is injectable
    (monotonic seconds) so tests can expire deadlines without sleeping.
    """

    __slots__ = ("timeout", "_clock", "_expires_at")

    def __init__(
        self, timeout: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        """Start a budget of *timeout* seconds from now."""
        if timeout < 0:
            raise ConfigurationError("deadline timeout must be non-negative")
        self.timeout = timeout
        self._clock = clock
        self._expires_at = clock() + timeout

    # ------------------------------------------------------------------
    def remaining(self) -> float:
        """Seconds left in the budget (negative once exceeded)."""
        return self._expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"{what} exceeded its {self.timeout:.3f}s deadline"
            )

    def cap(self, timeout: float | None) -> float:
        """*timeout* reduced to the remaining budget (never negative).

        The per-attempt timeout derivation: a socket (or wait) may use its
        configured timeout or what is left of the budget, whichever is
        smaller.  ``None`` means "no per-attempt preference" and yields the
        remaining budget itself.
        """
        remaining = max(0.0, self.remaining())
        return remaining if timeout is None else min(timeout, remaining)

    def __repr__(self) -> str:
        return f"<Deadline timeout={self.timeout:.3f}s remaining={self.remaining():.3f}s>"


#: Ambient deadline for the current logical operation (per-thread/context).
_CURRENT: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro-deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The ambient :class:`Deadline`, or ``None`` when no budget is set."""
    return _CURRENT.get()


def expired(obs: Any, store: str, message: str) -> DeadlineExceededError:
    """Count ``kv.deadline.expired`` for *store*; the error to raise."""
    if obs.enabled:
        obs.inc("kv.deadline.expired")
        obs.event("deadline_expired", store=store)
    return DeadlineExceededError(message)


@contextmanager
def deadline_scope(
    timeout: "float | Deadline",
    *,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[Deadline]:
    """Set the ambient deadline for the enclosed block.

    Accepts a timeout in seconds (a fresh :class:`Deadline` is started) or
    an existing :class:`Deadline` to install.  Nested scopes only tighten:
    when an outer budget has *less* time remaining than the requested
    timeout, the effective deadline is the outer one's remaining budget --
    an inner layer can never grant itself more time than its caller allowed.
    """
    if isinstance(timeout, Deadline):
        deadline = timeout
    else:
        outer = _CURRENT.get()
        if outer is not None:
            timeout = min(timeout, max(0.0, outer.remaining()))
        deadline = Deadline(timeout, clock=clock)
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
