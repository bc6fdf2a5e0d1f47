"""Crash recovery over record-level value logging.

Both engines log logical record values (before/after images), which makes
the classic three-pass scheme simple and engine-independent:

1. **Analysis** — partition transactions into *winners* (a COMMIT or
   ABORT record reached the log) and *losers* (a mutation reached the log,
   but neither of those).  A transaction enters the log with its first
   mutation; a BEGIN record, which older logs still carry, is ignored.
2. **Redo** — repeat history: re-apply every logged mutation, winner or
   loser, in log order.  Because pages may have been stolen (flushed with
   uncommitted data) or never flushed, the disk can be in any mixed state;
   value-level redo is idempotent, so repeating history converges.
3. **Undo** — roll back loser mutations in reverse log order using the
   before images.

The engine supplies the physical apply callbacks; this module owns the
ordering logic and exposes :class:`RecoveryStats` for experiment E12.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.storage.wal import LogRecord, LogRecordKind

_MUTATIONS = (
    LogRecordKind.INSERT,
    LogRecordKind.UPDATE,
    LogRecordKind.DELETE,
    LogRecordKind.SET_ROOT,
)


@dataclasses.dataclass
class RecoveryStats:
    """Outcome of a recovery pass."""

    records_scanned: int = 0
    #: transactions whose COMMIT or ABORT record reached the log
    winners: int = 0
    #: transactions that logged a mutation but no COMMIT or ABORT; a
    #: transaction that changed nothing leaves no trace, so never counts
    losers: int = 0
    redo_applied: int = 0
    undo_applied: int = 0

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AnalysisResult:
    winners: frozenset[int]
    losers: frozenset[int]
    mutations: tuple[LogRecord, ...]


def analyze(records: Iterable[LogRecord]) -> AnalysisResult:
    """Pass 1: classify transactions and collect the mutation records."""
    logged: set[int] = set()
    winners: set[int] = set()
    mutations: list[LogRecord] = []
    for record in records:
        if record.kind is LogRecordKind.COMMIT:
            winners.add(record.txid)
        elif record.kind is LogRecordKind.ABORT:
            # Aborts log *compensation* mutations before the ABORT record
            # (see the engines' abort paths), so the rolled-back state is
            # reproduced by plain redo — an aborted transaction is a winner
            # from recovery's point of view, exactly like ARIES CLRs.
            winners.add(record.txid)
        elif record.kind in _MUTATIONS:
            logged.add(record.txid)
            mutations.append(record)
    losers = logged - winners
    return AnalysisResult(frozenset(winners), frozenset(losers), tuple(mutations))


def recover(
    records: Iterable[LogRecord],
    redo: Callable[[LogRecord], None],
    undo: Callable[[LogRecord], None],
) -> RecoveryStats:
    """Run analysis, redo, and undo; returns the pass statistics.

    *redo(record)* must re-apply the record's after-state; *undo(record)*
    must restore its before-state.  Both must be idempotent at the record
    level (set-to-value / ensure-present / ensure-absent semantics).
    """
    materialized = list(records)
    result = analyze(materialized)
    stats = RecoveryStats(
        records_scanned=len(materialized),
        winners=len(result.winners),
        losers=len(result.losers),
    )
    for record in result.mutations:  # redo: repeat history in log order
        redo(record)
        stats.redo_applied += 1
    for record in reversed(result.mutations):  # undo losers, newest first
        if record.txid in result.losers:
            undo(record)
            stats.undo_applied += 1
    return stats
