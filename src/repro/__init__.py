"""repro — a reproduction of the Ode active database (ICDE 1996).

    "Triggers are the basic ingredient of active databases.  Ode triggers
    are event-action pairs.  An event can be a composite event ...
    Composite events are detected by translating the event specifications
    into finite state machines."

Quickstart::

    from repro import Database, Persistent, field, trigger

    class CredCard(Persistent):
        cred_lim = field(float, default=5000.0)
        curr_bal = field(float, default=0.0)

        __events__ = ["after buy", "after pay_bill"]
        __masks__ = {"over_limit": lambda self: self.curr_bal > self.cred_lim}
        __triggers__ = [
            trigger("DenyCredit", "after buy & over_limit",
                    action=lambda self, ctx: ctx.tabort("over limit"),
                    perpetual=True),
        ]

        def buy(self, amount): self.curr_bal += amount
        def pay_bill(self, amount): self.curr_bal -= amount

    db = Database.open("/tmp/bank", engine="mm")
    with db.transaction():
        card = db.pnew(CredCard)
        card.DenyCredit()           # activate the trigger
        card.buy(100.0)             # posts `after buy`

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduction of the paper's figure and claims.
"""

from repro.core import (
    CouplingMode,
    TriggerId,
    TriggerSystem,
    trigger,
)
from repro.errors import (
    ConstraintViolationError,
    DeadlockError,
    OdeError,
    TransactionAbort,
    TriggerError,
)
from repro.events import EventDecl, compile_expression, parse
from repro.objects import (
    NULL_PTR,
    Database,
    Persistent,
    PersistentHandle,
    PersistentPtr,
    field,
)

__version__ = "1.0.0"


def deactivate(trigger_id: "TriggerId") -> None:
    """Deactivate a trigger by its TriggerId (the paper's ``deactivate``).

    Resolves the owning database from the pointer, so it mirrors the O++
    free function: ``deactivate(AutoRaise);``.  Must run inside a
    transaction on that database.
    """
    Database.of(trigger_id).trigger_system.deactivate(trigger_id)

__all__ = [
    "NULL_PTR",
    "ConstraintViolationError",
    "CouplingMode",
    "Database",
    "DeadlockError",
    "EventDecl",
    "OdeError",
    "Persistent",
    "PersistentHandle",
    "PersistentPtr",
    "TransactionAbort",
    "TriggerError",
    "TriggerId",
    "TriggerSystem",
    "compile_expression",
    "deactivate",
    "field",
    "parse",
    "trigger",
]
