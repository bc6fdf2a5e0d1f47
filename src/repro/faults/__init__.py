"""Deterministic fault injection for the storage stack.

`repro.faults` provides:

* :class:`~repro.faults.injector.FaultInjector` — named failpoints threaded
  through ``PagedFile``, ``WriteAheadLog``, ``BufferPool`` and both storage
  managers.  A fault plan arms crashes, torn writes, bit flips, transient
  ``OSError`` hiccups and permanent media failures at specific hit counts.
* :mod:`repro.faults.harness` — the crash-matrix explorer: run a workload
  in recording mode to discover every failpoint hit, then re-run it once
  per hit with a crash armed there, reopen, recover, and check the
  workload's oracle.  Two workloads: the serial credit-card run, and N
  interleaved chaos sessions (lock-manager poisoning on crash, so waiters
  wake, never hang; a per-session oracle).
* :mod:`repro.faults.retry` — the unified retry classifier: deadlocks,
  lock timeouts, and transient I/O share one jittered-backoff policy with
  per-class budgets (consumed by :meth:`repro.sessions.session.Session.run`).

The injector and retry classifier are dependency-light (they import only
:mod:`repro.errors`), so the storage and session layers can import them
without cycles.  The harness imports the full database stack and must
only be imported by tests/tools.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    Fault,
    FaultInjector,
    FaultKind,
    RetryPolicy,
    with_retry,
)
from repro.faults.retry import (
    DEFAULT_UNIFIED_RETRY,
    RetryClass,
    UnifiedRetryPolicy,
    classify,
)

__all__ = [
    "DEFAULT_UNIFIED_RETRY",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "NULL_INJECTOR",
    "RetryClass",
    "RetryPolicy",
    "UnifiedRetryPolicy",
    "classify",
    "with_retry",
]
