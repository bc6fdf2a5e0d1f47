"""Detached actions run in their draining session's system transaction.

A ``dependent`` or ``!dependent`` action runs in a system transaction
(paper Section 5.5) that the session finishing a transaction drains.  The
action dereferences its anchor through ``db.deref``, which resolves the
ambient session; so the system transaction must make the draining session
ambient, whichever way that session finished its own transaction:
``commit()``, ``abort()``, ``close()`` or the manager's ``with`` block.
Each case checks that every action the coupling mode runs, runs once,
reads its anchor, raises nothing, and leaves the thread's ambient-session
stack as deep as it was.
"""

from __future__ import annotations

import pytest

from repro.core.declarations import trigger
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions import session as session_module

RAN: list[tuple[str, int]] = []


def reads_anchor(tag):
    def action(self, ctx):
        RAN.append((tag, self.v))

    return action


class SideAnchor(Persistent):
    v = field(int, default=0)

    __events__ = ["Go"]
    __triggers__ = [
        trigger(
            "Dependent", "Go", action=reads_anchor("dependent"),
            coupling="dependent", perpetual=True,
        ),
        trigger(
            "Independent", "Go", action=reads_anchor("independent"),
            coupling="!dependent", perpetual=True,
        ),
    ]


@pytest.fixture(autouse=True)
def _clear_ran():
    RAN.clear()
    yield
    RAN.clear()


def ambient_depth() -> int:
    return len(getattr(session_module._ambient, "stack", None) or ())


def make_anchor(db):
    with db.transaction():
        obj = db.pnew(SideAnchor, v=7)
        obj.Dependent()
        obj.Independent()
        return obj.ptr


def post_and_commit(side, ptr):
    side.begin()
    side.deref(ptr).post_event("Go")
    side.commit()


def post_and_abort(side, ptr):
    side.begin()
    side.deref(ptr).post_event("Go")
    side.abort()


def post_and_close(side, ptr):
    side.begin()
    side.deref(ptr).post_event("Go")
    side.close()


def post_in_manager_block(side, ptr):
    with side.db.txn_manager.transaction(session=side):
        side.deref(ptr).post_event("Go")


BOTH = [("dependent", 7), ("independent", 7)]
#: finish -> the actions its coupling modes run (a dependent action dies
#: with a transaction that did not commit).
CASES = {
    "commit": (post_and_commit, BOTH),
    "abort": (post_and_abort, [("independent", 7)]),
    "close": (post_and_close, [("independent", 7)]),
    "manager-block": (post_in_manager_block, BOTH),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_detached_actions_run_in_the_draining_session(any_engine_db, case):
    db = any_engine_db
    finish, expected = CASES[case]
    ptr = make_anchor(db)
    side = db.session("side")
    before = ambient_depth()
    finish(side, ptr)
    assert sorted(RAN) == expected
    assert ambient_depth() == before
    assert side.current_txn is None
    assert db.txn_manager.active_transactions() == []
    if case == "close":
        assert side.closed
    else:
        side.close()
