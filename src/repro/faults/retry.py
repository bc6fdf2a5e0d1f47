"""Unified retry classification for transaction-level failures.

Before this module existed the system had *three* uncoordinated retry
mechanisms: the storage engines retried transient ``OSError`` through
:func:`repro.faults.injector.with_retry`, :meth:`Session.run` retried
``DeadlockError`` with its own crc32-seeded jittered backoff, and lock
timeouts were not retried at all.  This module merges them into one
policy — every failure a transaction can survive by *running again from
the top* is classified here, shares one jittered exponential backoff, and
draws from a per-class retry budget.

Classes
-------

``DEADLOCK``
    :class:`~repro.errors.DeadlockError` — the victim's abort released its
    locks; the retry is expected to succeed once the survivors commit.
    (An MVCC lost update is no retry class: the commit-time merge replays
    it, so the transaction commits on its first attempt.)
``LOCK_TIMEOUT``
    :class:`~repro.errors.LockTimeoutError` — the wait budget expired; the
    holder may have been slow rather than dead, so a bounded number of
    retries is worthwhile.
``TRANSIENT_IO``
    :class:`~repro.errors.TransientIOError` (or any other ``OSError``)
    that escaped the storage layer's inner retry loop — the whole
    transaction can be replayed against a recovered device.
``FATAL``
    Everything else: deadline expiry (the budget covered all attempts),
    read-only degradation (retrying cannot un-fail the medium), injected
    crashes, and ordinary bugs.  Never retried.

The storage-level :class:`~repro.faults.injector.RetryPolicy` stays where
it is — it retries a single *syscall*, not a transaction — but its backoff
constants seed the defaults here so the two layers back off consistently.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Mapping

from repro.errors import (
    DeadlockError,
    InjectedCrashError,
    LockTimeoutError,
    ReadOnlyStorageError,
    TransactionDeadlineError,
    WaitPoisonedError,
)
from repro.faults.injector import DEFAULT_RETRY

if TYPE_CHECKING:  # pragma: no cover
    import random


class RetryClass(enum.Enum):
    """What kind of failure a transaction attempt died of."""

    DEADLOCK = "deadlock"
    LOCK_TIMEOUT = "lock_timeout"
    TRANSIENT_IO = "transient_io"
    FATAL = "fatal"

    @property
    def retryable(self) -> bool:
        return self is not RetryClass.FATAL


def classify(exc: BaseException) -> RetryClass:
    """Map *exc* to its retry class.

    Order matters: the non-retryable leaves are checked before their
    retryable bases (``TransactionDeadlineError`` before the generic
    transaction errors, ``WaitPoisonedError`` before ``LockError``), and
    ``InjectedCrashError`` is a ``BaseException`` that never reaches a
    sane handler anyway — classified FATAL for completeness.
    """
    if isinstance(exc, (TransactionDeadlineError, WaitPoisonedError)):
        return RetryClass.FATAL
    if isinstance(exc, (ReadOnlyStorageError, InjectedCrashError)):
        return RetryClass.FATAL
    if isinstance(exc, DeadlockError):
        return RetryClass.DEADLOCK
    if isinstance(exc, LockTimeoutError):
        return RetryClass.LOCK_TIMEOUT
    if isinstance(exc, OSError):
        return RetryClass.TRANSIENT_IO
    return RetryClass.FATAL


_DEFAULT_BUDGETS: dict[RetryClass, int] = {
    RetryClass.DEADLOCK: 5,
    RetryClass.LOCK_TIMEOUT: 2,
    RetryClass.TRANSIENT_IO: 3,
}


@dataclasses.dataclass(frozen=True)
class UnifiedRetryPolicy:
    """Per-class retry budgets over one shared jittered backoff.

    ``budgets`` maps each retryable class to the number of *retries* it is
    allowed (an attempt that fails with an exhausted class re-raises).
    The backoff for retry *n* (1-based) is drawn uniformly from
    ``[0, min(cap, backoff * multiplier**(n-1))]`` using the caller's RNG
    — the session passes its crc32-seeded generator, so threaded schedules
    replay across runs; cooperative mode never sleeps at all.
    """

    budgets: Mapping[RetryClass, int] = dataclasses.field(
        default_factory=lambda: dict(_DEFAULT_BUDGETS)
    )
    backoff: float = DEFAULT_RETRY.backoff
    multiplier: float = DEFAULT_RETRY.multiplier
    cap: float = 0.05

    def budget(self, cls: RetryClass) -> int:
        if not cls.retryable:
            return 0
        return self.budgets.get(cls, 0)

    def delay(self, attempt: int, rng: "random.Random") -> float:
        """The jittered sleep before retry *attempt* (1-based)."""
        ceiling = min(self.cap, self.backoff * self.multiplier ** (attempt - 1))
        return rng.uniform(0.0, ceiling)

    def with_budget(self, cls: RetryClass, retries: int) -> "UnifiedRetryPolicy":
        budgets = dict(self.budgets)
        budgets[cls] = retries
        return dataclasses.replace(self, budgets=budgets)


DEFAULT_UNIFIED_RETRY = UnifiedRetryPolicy()


class RetryState:
    """Per-transaction-run bookkeeping: attempts consumed per class."""

    def __init__(self, policy: UnifiedRetryPolicy = DEFAULT_UNIFIED_RETRY):
        self.policy = policy
        self.attempts: dict[RetryClass, int] = {}

    def consume(self, exc: BaseException) -> tuple[RetryClass, bool]:
        """Record a failed attempt; returns ``(class, may_retry)``.

        ``may_retry`` is False when the class is non-retryable or its
        budget is exhausted — the caller re-raises in that case.
        """
        cls = classify(exc)
        if not cls.retryable:
            return cls, False
        used = self.attempts.get(cls, 0) + 1
        self.attempts[cls] = used
        return cls, used <= self.policy.budget(cls)

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())
