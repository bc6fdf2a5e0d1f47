"""``repro.obs`` — zero-cost-when-disabled tracing and metrics.

The whole trigger pipeline is instrumented (posting, FSM advances, mask
evaluations, coupling-list drains, WAL appends/forces, buffer-pool
hits/evictions, lock acquires, timers), but every hook sits behind this
module's single :data:`ENABLED` flag::

    if obs.ENABLED:
        obs.emit("mask.eval", span=span, mask=name, outcome=value)

so the disabled path costs exactly one module-attribute check per site —
no recorder lookup, no argument packing.  That is what lets experiment E3
keep its "overhead is paid only by objects with triggers" shape with the
instrumentation compiled in (E15 measures the enabled/disabled gap).

Usage::

    from repro import obs

    recorder = obs.enable()          # start recording (bounded ring)
    ... run a workload ...
    obs.disable()
    recorder.export("trace.jsonl")   # one JSON object per record

or scoped::

    with obs.enabled() as recorder:
        ... run a workload ...

``python -m repro.tools trace record|show|summary`` drives the same
machinery from the command line.

Metrics are orthogonal: every :class:`~repro.objects.database.Database`
carries a :class:`~repro.obs.metrics.MetricsRegistry` at ``db.metrics``
(always on — plain integer increments), with the per-layer stats sources
mounted as ``posting.*`` / ``storage.*`` / ``locks.*`` / ``timers.*``.
When tracing is enabled, every transaction snapshots the registry at
begin, so :func:`transaction_delta` reports exactly what one transaction
cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, ObsStats, describe
from repro.obs.trace import (
    NO_SPAN,
    TraceRecord,
    TraceRecorder,
    load_jsonl,
    records_from_jsonl,
    records_to_jsonl,
    render_record,
    render_trace,
    summarize_trace,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.transactions.txn import Transaction

#: The single module-level gate every instrumentation site checks.
ENABLED = False

#: The active recorder while ENABLED (kept non-None only when enabled so a
#: stale ``obs.emit`` between disable/enable is a cheap no-op).
_RECORDER: TraceRecorder | None = None

#: Attachment key for the per-transaction metrics snapshot taken at begin.
TXN_METRICS_KEY = "obs:metrics_at_begin"


def enable(capacity: int = 65536, clock=None) -> TraceRecorder:
    """Turn tracing on with a fresh bounded recorder; returns it."""
    global ENABLED, _RECORDER
    _RECORDER = (
        TraceRecorder(capacity) if clock is None else TraceRecorder(capacity, clock)
    )
    ENABLED = True
    return _RECORDER


def disable() -> TraceRecorder | None:
    """Turn tracing off; returns the recorder for inspection/export."""
    global ENABLED, _RECORDER
    recorder, _RECORDER = _RECORDER, None
    ENABLED = False
    return recorder


def recorder() -> TraceRecorder | None:
    """The active recorder, or None when tracing is disabled."""
    return _RECORDER


@contextmanager
def enabled(capacity: int = 65536) -> Iterator[TraceRecorder]:
    """Scoped tracing: ``with obs.enabled() as rec: ...``."""
    rec = enable(capacity)
    try:
        yield rec
    finally:
        disable()


# -- emission forwarders (call sites guard with `if obs.ENABLED`) -------------


def emit(kind: str, span: int = NO_SPAN, **data: Any) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.emit(kind, span, **data)


def begin_span(kind: str, **data: Any) -> int:
    rec = _RECORDER
    if rec is None:
        return NO_SPAN
    return rec.begin_span(kind, **data)


def end_span(span: int, kind: str, **data: Any) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.end_span(span, kind, **data)


# -- per-transaction metrics deltas --------------------------------------------


def transaction_delta(txn: "Transaction") -> dict:
    """The metrics delta since *txn* began (tracing must have been on).

    Returns ``{}`` when no begin-snapshot was taken (tracing was disabled
    when the transaction started).
    """
    before = txn.attachments.get(TXN_METRICS_KEY)
    if before is None:
        return {}
    return txn.db.metrics.delta_since(before)


__all__ = [
    "ENABLED",
    "NO_SPAN",
    "TXN_METRICS_KEY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ObsStats",
    "TraceRecord",
    "TraceRecorder",
    "begin_span",
    "describe",
    "disable",
    "emit",
    "enable",
    "enabled",
    "end_span",
    "load_jsonl",
    "recorder",
    "records_from_jsonl",
    "records_to_jsonl",
    "render_record",
    "render_trace",
    "summarize_trace",
    "transaction_delta",
]
