"""The five workloads: inputs, population, transaction bodies, oracles.

Every workload is a closed loop of short transactions against the
**default configuration** (``Database.open(path, engine=...)`` and nothing
else), so a later change of defaults shows as a gain or a loss.  The whole
operation stream is generated up front from the seed; the engine sees only
the generated inputs and no RNG call sits in the timed loop.

A workload supplies

* ``generate(rng, count, state)`` — *count* operations for one session;
* ``state(rng)`` / ``populate(db, state)`` — seeded initial values, and the
  objects built from them, with their triggers activated;
* ``transaction(db, session, ptrs, client)`` — a callable running one
  operation as one transaction, raising if the outcome is not the one the
  operation predicts (*client* wraps the body; the tracer uses it);
* ``check_counters(state, executed, timed, delta)`` and
  ``check_state(db, ptrs, state, executed)`` — the oracle: compare the
  ``db.metrics`` deltas over the timed phase, and the engine's state, with
  what the executed operations imply; each returns the mismatches.
  *executed* is, per session, the warm-up operations followed by the
  *timed* ones that ran.

Each ``why`` is copied into ``BENCHMARK.json`` (``--check-manifest`` checks
that the two agree).
"""

from __future__ import annotations

import random

from repro.core.declarations import trigger
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.transactions.txn import TxnState
from repro.workloads.credit_card import CredCard
from repro.workloads.locksim import HotObject

POPULATE_BATCH = 100  # objects created per setup transaction


class OutcomeMismatch(Exception):
    """A transaction ended differently from what its operation predicts."""


def _identity(body):
    return body


def _populate(db, count, create):
    ptrs = []
    for base in range(0, count, POPULATE_BATCH):
        with db.transaction():
            for index in range(base, min(base + POPULATE_BATCH, count)):
                ptrs.append(create(index))
    return ptrs


def _expect(problems, delta, name, expected):
    got = delta.get(name, 0)
    if got != expected:
        problems.append(f"{name}: expected {expected}, measured {got}")


def _distinct(rng, population, k):
    return tuple(rng.sample(range(population), k))


class Workload:
    name = ""
    why = ""
    engine = "disk"
    sessions = 1
    population = 0
    warmup = 0  # transactions per session before the timed phase
    #: Timed transactions generated per requested second, all sessions
    #: together: sized so the timed phase lasts about ``--seconds`` at this
    #: commit on the reference machine.  A fixed count, so that both sides of
    #: a comparison do the same work; a run much slower than that stops at
    #: twice ``--seconds`` and has measured a prefix.
    ops_per_second = 0

    def state(self, rng):
        """Seeded input state shared by ``populate`` and ``generate``."""
        return None

    def generate(self, rng, count, state):
        raise NotImplementedError

    def populate(self, db, state):
        raise NotImplementedError

    def transaction(self, db, session, ptrs, client=_identity):
        raise NotImplementedError

    def check_counters(self, state, executed, timed, delta):
        raise NotImplementedError

    def check_state(self, db, ptrs, state, executed):
        raise NotImplementedError


# -- canon_mm ---------------------------------------------------------------


class CanonMM(Workload):
    name = "canon_mm"
    why = (
        "tiny 2-posting transaction on mm: fixed per-transaction and "
        "per-posting interpreter cost around one log force is the whole bill"
    )
    engine = "mm"
    population = 1024
    warmup = 1000
    ops_per_second = 3000

    def generate(self, rng, count, state):
        population = self.population
        return [rng.randrange(population) for _ in range(count)]

    def populate(self, db, state):
        def create(_index):
            handle = db.pnew(HotObject)
            handle.Watch()
            return handle.ptr

        return _populate(db, self.population, create)

    def transaction(self, db, session, ptrs, client=_identity):
        target = [None]

        @client
        def body(_txn):
            handle = session.deref(target[0])
            handle.post_event("Ping")
            handle.post_event("Pong")

        def run(op):
            target[0] = ptrs[op]
            session.run(body)

        return run

    def check_counters(self, state, executed, timed, delta):
        problems = []
        _expect(problems, delta, "posting.events_posted", 2 * timed)
        _expect(problems, delta, "posting.fsm_advances", 2 * timed)
        _expect(problems, delta, "posting.state_writes", 2 * timed)
        _expect(problems, delta, "posting.firings", timed)
        _expect(problems, delta, "posting.compiled_fallbacks", 0)
        _expect(problems, delta, "storage.commits", timed)
        _expect(problems, delta, "storage.aborts", 0)
        return problems

    def check_state(self, db, ptrs, state, executed):
        return _index_consistent(db, ptrs, 1)


def _index_consistent(db, ptrs, expected):
    """The trigger index agrees with the TriggerState records, and every
    object carries *expected* active triggers."""
    with db.transaction():
        problems = db.trigger_system.verify_integrity()
        txn = db.txn_manager.current()
        for ptr in ptrs:
            active = len(db.trigger_system.index.lookup(txn, ptr.rid))
            if active != expected:
                problems.append(f"{ptr!r}: {active} active triggers, expected {expected}")
    return problems


# -- fanout_mm --------------------------------------------------------------


class PerfGate(Persistent):
    """E19's mask-gated watcher: advances on every Tick, never armed."""

    n = field(int, default=0)
    __events__ = ["Tick"]
    __masks__ = {"armed": lambda self: self.n > 0}
    __triggers__ = [
        trigger("Gate", "Tick & armed", action=lambda s, c: None, perpetual=True)
    ]


class FanoutMM(Workload):
    name = "fanout_mm"
    why = (
        "one post_many of 8 Ticks over 2 objects x 16 mask-gated triggers: "
        "posting dominates and commit is amortised, so only the compiled "
        "tier and the posting kernel can move it"
    )
    engine = "mm"
    population = 64
    warmup = 200
    ops_per_second = 1300
    FANOUT = 16
    TICKS_PER_OBJECT = 4

    def generate(self, rng, count, state):
        return [_distinct(rng, self.population, 2) for _ in range(count)]

    def populate(self, db, state):
        def create(_index):
            handle = db.pnew(PerfGate)
            for _ in range(self.FANOUT):
                handle.Gate()
            return handle.ptr

        return _populate(db, self.population, create)

    def transaction(self, db, session, ptrs, client=_identity):
        batch = [None]

        @client
        def body(_txn):
            session.post_many(batch[0])

        def run(op):
            a, b = op
            batch[0] = [(ptrs[a], "Tick"), (ptrs[b], "Tick")] * self.TICKS_PER_OBJECT
            session.run(body)

        return run

    def check_counters(self, state, executed, timed, delta):
        problems = []
        events = 2 * self.TICKS_PER_OBJECT
        _expect(problems, delta, "posting.events_posted", events * timed)
        _expect(problems, delta, "posting.batched", events * timed)
        _expect(problems, delta, "posting.fsm_advances", events * self.FANOUT * timed)
        _expect(
            problems, delta, "posting.masks_evaluated_posting",
            events * self.FANOUT * timed,
        )
        _expect(problems, delta, "posting.firings", 0)
        _expect(problems, delta, "posting.state_writes", 0)
        _expect(problems, delta, "posting.compiled_fallbacks", 0)
        _expect(problems, delta, "storage.commits", timed)
        return problems

    def check_state(self, db, ptrs, state, executed):
        return _index_consistent(db, ptrs, self.FANOUT)


# -- cards_disk -------------------------------------------------------------

BUY, PAY, READ = 0, 1, 2
RAISE_AMOUNT = 500.0


class CardModel:
    """Pure-Python model of the paper's Section 4 cards under this workload.

    ``DenyCredit`` (perpetual): a buy that leaves the balance over the
    limit black-marks and ``tabort``s — the abort rolls back the buy, the
    mark, and everything else the transaction did.  ``AutoRaiseLimit``
    (once-only, ``relative((after buy & MoreCred), after pay_bill)``): a
    committed buy that leaves the balance above 0.8 x limit arms it; the
    next payment fires it (limit += 500) and so deactivates it; the client
    re-activates it in its next transaction on that card.
    """

    def __init__(self, balances):
        count = len(balances)
        self.limit = [1000.0] * count
        self.balance = list(balances)
        self.purchases = [0] * count
        self.raise_active = [True] * count
        self.armed = [False] * count
        self.denied = 0
        self.raised = 0

    def plan(self, card, kind, draw):
        """Turn one random draw into an operation, given the state now."""
        if kind == BUY:
            amount = round(5.0 + 395.0 * draw, 2)
            denied = self.balance[card] + amount > self.limit[card]
        elif kind == PAY:
            amount = round(max(self.balance[card], 0.0) * (0.2 + 0.8 * draw), 2)
            denied = False
        else:
            amount, denied = 0.0, False
        return (card, kind, amount, not self.raise_active[card], denied)

    def apply(self, op):
        card, kind, amount, reactivate, denied = op
        if denied:
            self.denied += 1
            return  # tabort: nothing the transaction did survives
        if reactivate:
            self.raise_active[card] = True
            self.armed[card] = False
        if kind == BUY:
            self.balance[card] += amount
            self.purchases[card] += 1
            if self.raise_active[card] and self.balance[card] > 0.8 * self.limit[card]:
                self.armed[card] = True
        elif kind == PAY:
            self.balance[card] -= amount
            if self.raise_active[card] and self.armed[card]:
                self.limit[card] += RAISE_AMOUNT
                self.raise_active[card] = False
                self.armed[card] = False
                self.raised += 1


class CardsDisk(Workload):
    name = "cards_disk"
    why = (
        "paper section 4 cards, 5x the buffer pool: eviction-driven I/O, "
        "activate/deactivate writes, masks reading fields, actions that "
        "write, and the tabort path"
    )
    engine = "disk"
    population = 3000
    warmup = 500
    ops_per_second = 2000
    #: 60 % buy / 30 % pay_bill / 10 % balance read, exact in every ten
    #: operations so the mix (and the log volume) does not drift with seed.
    DECK = (BUY,) * 6 + (PAY,) * 3 + (READ,)

    def state(self, rng):
        # Cards start part-way to their limit, so MoreCred arms and
        # DenyCredit denies from the first transactions on.
        return [round(rng.uniform(0.0, 900.0), 2) for _ in range(self.population)]

    def generate(self, rng, count, state):
        model = CardModel(state)
        ops = []
        deck = list(self.DECK)
        while len(ops) < count:
            rng.shuffle(deck)
            for kind in deck:
                op = model.plan(rng.randrange(self.population), kind, rng.random())
                model.apply(op)
                ops.append(op)
        return ops[:count]

    def populate(self, db, state):
        def create(index):
            card = db.pnew(CredCard, curr_bal=state[index])
            card.DenyCredit()
            card.AutoRaiseLimit(RAISE_AMOUNT)
            return card.ptr

        return _populate(db, self.population, create)

    def transaction(self, db, session, ptrs, client=_identity):
        # `with db.transaction()`, not session.run: session.run re-runs a
        # body whose trigger taborts (see README, findings).
        @client
        def body(op):
            card_index, kind, amount, reactivate, _denied = op
            card = db.deref(ptrs[card_index])
            if reactivate:
                card.AutoRaiseLimit(RAISE_AMOUNT)
            if kind == BUY:
                card.buy(None, amount)
            elif kind == PAY:
                card.pay_bill(amount)
            else:
                _ = card.curr_bal  # attribute read, no member call

        def run(op):
            with db.transaction() as txn:
                body(op)
            if (txn.state is TxnState.ABORTED) != op[4]:
                raise OutcomeMismatch(
                    f"card {op[0]}: transaction {txn.state.name}, "
                    f"model says denied={op[4]}"
                )

        return run

    @staticmethod
    def _replay(state, ops):
        model = CardModel(state)
        for op in ops:
            model.apply(op)
        return model

    def check_counters(self, state, executed, timed, delta):
        (ops,) = executed
        before = self._replay(state, ops[: len(ops) - timed])
        after = self._replay(state, ops)
        denied = after.denied - before.denied
        raised = after.raised - before.raised
        problems = []
        _expect(problems, delta, "storage.aborts", denied)
        _expect(problems, delta, "storage.commits", timed - denied)
        # A firing is counted when its action returns: AutoRaiseLimit's
        # raises are, DenyCredit's taborts are not.
        _expect(problems, delta, "posting.firings", raised)
        _expect(problems, delta, "posting.compiled_fallbacks", 0)
        return problems

    def check_state(self, db, ptrs, state, executed):
        model = self._replay(state, executed[0])
        problems = []
        for base in range(0, len(ptrs), 500):
            with db.transaction():
                txn = db.txn_manager.current()
                for index in range(base, min(base + 500, len(ptrs))):
                    card = db.deref(ptrs[index]).obj
                    got = (card.cred_lim, card.curr_bal, card.purchases, card.black_marks)
                    want = (
                        model.limit[index], model.balance[index],
                        model.purchases[index], [],
                    )
                    if got != want:
                        problems.append(f"card {index}: engine {got}, model {want}")
                    active = len(db.trigger_system.index.lookup(txn, ptrs[index].rid))
                    if active != 1 + model.raise_active[index]:
                        problems.append(
                            f"card {index}: {active} active triggers, model "
                            f"{1 + model.raise_active[index]}"
                        )
        return problems


# -- sessions2_disk ---------------------------------------------------------


class Sessions2Disk(Workload):
    name = "sessions2_disk"
    why = (
        "2 threaded sessions on 256 shared watched objects: the only "
        "workload with a blocking lock manager and two committers at the WAL"
    )
    engine = "disk"
    sessions = 2
    population = 256
    warmup = 200
    ops_per_second = 2600

    def generate(self, rng, count, state):
        return [_distinct(rng, self.population, 2) for _ in range(count)]

    def populate(self, db, state):
        def create(_index):
            handle = db.pnew(HotObject)
            handle.Watch()
            return handle.ptr

        return _populate(db, self.population, create)

    def transaction(self, db, session, ptrs, client=_identity):
        targets = [None, None]

        @client
        def body(_txn):
            session.deref(targets[0]).post_event("Ping")
            session.deref(targets[1]).post_event("Pong")

        def run(op):
            targets[0], targets[1] = ptrs[op[0]], ptrs[op[1]]
            session.run(body)  # deadlock victims retry

        return run

    def check_counters(self, state, executed, timed, delta):
        problems = []
        _expect(problems, delta, "storage.commits", timed)
        retried = delta.get("storage.aborts", 0)
        _expect(problems, delta, "sessions.deadlock_retries", retried)
        _expect(problems, delta, "sessions.retry_exhausted", 0)
        # A deadlock victim dies in its first or its second posting.
        posted = delta.get("posting.events_posted", 0)
        if not 2 * timed + retried <= posted <= 2 * (timed + retried):
            problems.append(
                f"posting.events_posted: {posted} outside "
                f"[{2 * timed + retried}, {2 * (timed + retried)}]"
            )
        return problems

    def check_state(self, db, ptrs, state, executed):
        return _index_consistent(db, ptrs, 1)


# -- passive_disk -----------------------------------------------------------


class PerfPassive(Persistent):
    """Declares an event and a trigger that no object ever activates."""

    touched = field(int, default=0)
    __events__ = ["after touch"]
    __triggers__ = [
        trigger("OnTouch", "after touch", action=lambda s, c: None, perpetual=True)
    ]

    def touch(self):
        self.touched += 1


class PassiveDisk(Workload):
    name = "passive_disk"
    why = (
        "no active trigger anywhere (paper goals 3-4): posting, index, "
        "compiled tier do zero work, so trigger-layer changes must predict "
        "no change here while session, deref, decode and S-lock costs show"
    )
    engine = "disk"
    population = 1000
    warmup = 500
    ops_per_second = 6500
    #: 90 % read-only (4 derefs + attribute reads), 10 % one member call.
    DECK = (True,) + (False,) * 9

    def generate(self, rng, count, state):
        ops = []
        deck = list(self.DECK)
        while len(ops) < count:
            rng.shuffle(deck)
            for update in deck:
                ops.append(_distinct(rng, self.population, 1 if update else 4))
        return ops[:count]

    def populate(self, db, state):
        return _populate(db, self.population, lambda _index: db.pnew(PerfPassive).ptr)

    def transaction(self, db, session, ptrs, client=_identity):
        current = [None]

        @client
        def body(_txn):
            op = current[0]
            if len(op) == 1:
                session.deref(ptrs[op[0]]).touch()
            else:
                for index in op:
                    _ = session.deref(ptrs[index]).touched

        def run(op):
            current[0] = op
            session.run(body)

        return run

    def check_counters(self, state, executed, timed, delta):
        (ops,) = executed
        updates = sum(1 for op in ops[len(ops) - timed :] if len(op) == 1)
        problems = []
        _expect(problems, delta, "posting.events_posted", updates)
        _expect(problems, delta, "posting.skipped_no_triggers", updates)
        _expect(problems, delta, "posting.fsm_advances", 0)
        _expect(problems, delta, "storage.commits", timed)
        _expect(problems, delta, "storage.aborts", 0)
        return problems

    def check_state(self, db, ptrs, state, executed):
        updates = sum(1 for op in executed[0] if len(op) == 1)
        with db.transaction():
            total = sum(db.deref(ptr).obj.touched for ptr in ptrs)
        if total != updates:
            return [f"sum(touched) = {total}, expected {updates}"]
        return []


WORKLOADS = {
    w.name: w
    for w in (CanonMM(), FanoutMM(), CardsDisk(), Sessions2Disk(), PassiveDisk())
}


def seeded(seed: int, workload: Workload, stream: int) -> random.Random:
    """One independent RNG per (seed, workload, stream)."""
    return random.Random(f"{seed}/{workload.name}/{stream}")
