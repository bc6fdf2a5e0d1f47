"""Commit dependencies.

The *dependent* coupling mode runs a trigger's action "in a separate
transaction from the one that detected the event [which] can commit only if
the event detecting transaction does" (paper Section 4.2).  The graph here
records those edges; the transaction manager consults it at commit time and
refuses to commit a child whose parent did not commit.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import CommitDependencyError
from repro.transactions.txn import TxnState


class CommitDependencyGraph:
    """child txid -> parent txids it may only commit after.

    Outcomes come from :attr:`TransactionManager.outcomes`, which remembers
    only the last :data:`~repro.transactions.manager.OUTCOME_WINDOW`
    finished transactions.  The engine schedules a dependent action in its
    parent's after-commit hook, and the committing thread drains the queue
    right after, before that session's next transaction; only the other
    sessions' transactions can finish in between, so a parent is inside
    the window when its child commits.  A parent outside it reads as
    unknown — not committed — exactly like a txid that never finished.
    """

    def __init__(self) -> None:
        self._parents: dict[int, set[int]] = defaultdict(set)

    def add(self, child: int, parent: int) -> None:
        """Record that *child* can commit only if *parent* committed."""
        if child == parent:
            raise CommitDependencyError(f"transaction {child} cannot depend on itself")
        self._parents[child].add(parent)

    def parents_of(self, child: int) -> frozenset[int]:
        return frozenset(self._parents.get(child, set()))

    def check_commit_allowed(self, child: int, outcomes: dict[int, TxnState]) -> None:
        """Raise :class:`CommitDependencyError` unless every parent committed.

        A parent with no recorded outcome is treated as not-committed: the
        dependency is on a completed commit, not an in-flight transaction.
        """
        parents = self._parents.get(child)
        if not parents:
            return
        for parent in parents:
            outcome = outcomes.get(parent)
            if outcome is not TxnState.COMMITTED:
                raise CommitDependencyError(
                    f"transaction {child} depends on {parent}, whose outcome is "
                    f"{outcome.value if outcome else 'unknown'}"
                )

    def forget(self, txid: int) -> None:
        """Drop *txid*'s dependency edges (after its outcome is final)."""
        self._parents.pop(txid, None)
