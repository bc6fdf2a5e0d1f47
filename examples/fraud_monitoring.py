#!/usr/bin/env python3
"""Fraud monitoring — composite-event rules over the credit-card workload.

Demonstrates the full coupling-mode palette on a realistic monitoring task:

* ``VelocityAlert`` (immediate): three purchases with no intervening
  payment — a classic card-testing pattern — flags the card at once.
* ``BigSpender`` (end/deferred): a large single purchase is re-checked at
  commit time, after the whole transaction's effects are in place.
* ``CaseFile`` (!dependent): opening a fraud case runs in a *separate*
  transaction, so the case survives even when the suspicious transaction
  itself is aborted — exactly what an investigator wants.
* Transaction events: every card touched by a transaction gets a
  ``before tcomplete`` consistency stamp.

Usage: python examples/fraud_monitoring.py [n_ops]
"""

import shutil
import sys
import tempfile

from repro import Database, Persistent, field, trigger
from repro.errors import TransactionAbort
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.workloads.credit_card import CreditCardWorkload


class FraudDesk(Persistent):
    cases = field(list, default=[])

    def open_case(self, note: str) -> None:
        self.cases = self.cases + [note]


class MonitoredCard(Persistent):
    holder = field(str, default="")
    curr_bal = field(float, default=0.0)
    flags = field(int, default=0)
    stamps = field(int, default=0)
    desk = field(PersistentPtr, default=NULL_PTR)

    __events__ = [
        "after buy",
        "after pay_bill",
        "before tcomplete",
    ]
    __masks__ = {
        "big": lambda self: self.curr_bal > 5000.0,
    }

    def _velocity(self, ctx):
        self.flags += 1

    def _big_spender(self, ctx):
        self.flags += 1

    def _case_file(self, ctx):
        desk = ctx.db.deref(self.desk)
        desk.open_case(f"card of {self.holder}: suspicious volume")

    def _stamp(self, ctx):
        self.stamps += 1

    # Because this class declares interest in `before tcomplete`, commit
    # events appear in each card's event stream (paper Section 5.1) — so a
    # cross-transaction purchase run must explicitly skip them with
    # `*(before tcomplete)`.  A payment still breaks the run.
    # Every trigger below also acknowledges the `lint --concurrency`
    # trio: commit events (`before tcomplete`) are posted by read-only
    # transactions too, yet any FSM advance writes the TriggerState back
    # (ODE300, the paper's Section 6 amplification), and that S->X
    # write-back under the object lock is the standard upgrade and
    # lock-order deadlock exposure (ODE301/ODE302).  Fraud monitoring
    # wants per-card state on the hot path; the cost is the feature.
    _CONCURRENCY_OK = ("ODE300", "ODE301", "ODE302")
    _BUY_GAP = ", *(before tcomplete), "
    __triggers__ = [
        trigger(
            "VelocityAlert",
            _BUY_GAP.join(["after buy"] * 3),
            action=_velocity,
            perpetual=True,
            suppress=_CONCURRENCY_OK,
        ),
        trigger(
            "BigSpender",
            "after buy & big",
            action=_big_spender,
            coupling="end",
            perpetual=True,
            suppress=_CONCURRENCY_OK,
        ),
        trigger(
            "CaseFile",
            _BUY_GAP.join(["after buy"] * 4),
            action=_case_file,
            coupling="!dependent",  # once-only: one case per activation
            # The linter correctly notes every CaseFile detection also
            # fires VelocityAlert (4 buys ⊇ 3 buys) — that escalation is
            # the point, so the ODE020 overlap is acknowledged.
            suppress=("ODE020",) + _CONCURRENCY_OK,
        ),
        trigger(
            "ConsistencyStamp",
            "before tcomplete",
            action=_stamp,
            perpetual=True,
            suppress=_CONCURRENCY_OK,
        ),
    ]

    def buy(self, store, amount: float) -> None:
        self.curr_bal += amount

    def pay_bill(self, amount: float) -> None:
        self.curr_bal -= amount


def main(n_ops: int = 120) -> None:
    workdir = tempfile.mkdtemp(prefix="ode-fraud-")
    db = Database.open(f"{workdir}/fraud", engine="disk")

    with db.transaction():
        desk = db.pnew(FraudDesk)
        desk_ptr = desk.ptr
        card = db.pnew(MonitoredCard, holder="pat", desk=desk_ptr)
        card_ptr = card.ptr
        for name in ("VelocityAlert", "BigSpender", "CaseFile", "ConsistencyStamp"):
            getattr(card, name)()

    # A burst of purchases, one per transaction.
    amounts = [120.0, 80.0, 220.0, 3000.0, 2500.0, 90.0]
    for amount in amounts:
        with db.transaction():
            db.deref(card_ptr).buy(None, amount)

    with db.transaction():
        card = db.deref(card_ptr)
        desk = db.deref(desk_ptr)
        print(f"purchases:       {len(amounts)}")
        print(f"balance:         {card.curr_bal:.2f}")
        print(f"fraud flags:     {card.flags} (velocity runs + big-spender)")
        print(f"commit stamps:   {card.stamps}")
        print(f"open cases:      {desk.cases}")

    # The detached case survives an aborted transaction.
    print("\n--- aborted transaction still opens a case (!dependent) ---")
    with db.transaction():
        db.deref(card_ptr).CaseFile()  # re-arm the once-only trigger
    with db.transaction():
        handle = db.deref(card_ptr)
        for _ in range(4):
            handle.buy(None, 10.0)  # 4 buys in one txn fire CaseFile again
        raise TransactionAbort("customer cancelled")
    with db.transaction():
        card = db.deref(card_ptr)
        desk = db.deref(desk_ptr)
        print(f"balance (rolled back): {card.curr_bal:.2f}")
        print(f"cases (kept):          {len(desk.cases)}")

    db.close()
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 120)
