"""A posting touches only its object and its group (DESIGN §14, §17).

The object's header names its trigger group, so a posting reads its
object and that group and nothing else.  Under strict 2PL a group a posting advanced is
X-locked at the posting and written once, by ``Database.flush_transaction``
after every before-commit hook; MVCC merges it at commit as before.
Pinned on both engines under both trigger concurrency-control schemes,
except where a rule is one scheme's.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import weakref

import pytest

import repro
from benchmarks.common import interpreted_baseline
from repro.core import compiled, posting
from repro.core.compiled import CompiledTier
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.trigger_index import TriggerIndex
from repro.core.trigger_state import TriggerGroup
from repro.errors import StorageError
from repro.fsck import fsck_database
from repro.objects.database import Database
from repro.objects.metatype import Metatype, TypeRegistry
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_object
from repro.storage.locks import LockMode
from repro.workloads.locksim import HotObject

CELLS = [("disk", "2pl"), ("disk", "mvcc"), ("mm", "2pl"), ("mm", "mvcc")]

#: What ``Probe``'s action saw: (working statenums, stored statenums).
SEEN: list[tuple[list[int], list[int]]] = []


def _probe(self, ctx) -> None:
    working = [
        state.statenum for _, state, _ in ctx.db.trigger_system.active_triggers(self.ptr)
    ]
    raw = ctx.db.storage.read(ctx.txn.txid, ctx.trigger_id.rid)
    stored = [state.statenum for _, state in TriggerGroup.decode(raw).entries]
    SEEN.append((working, stored))


class ProbedGadget(Persistent):
    """``Count`` moves on every Tick; ``Probe`` fires on the third."""

    n = field(int, default=0)

    __events__ = ["Tick"]
    __triggers__ = [
        trigger("Count", "Tick, Tick, Tick, Tick", action=lambda s, c: None),
        trigger("Probe", "Tick, Tick, Tick", action=_probe),
    ]


@pytest.fixture(params=CELLS, ids=["-".join(cell) for cell in CELLS])
def cell(request, db_path):
    """``(open, db)``: a fresh database on one engine × cc cell, and a way
    to reopen it the same way."""
    engine, cc = request.param

    def open_db():
        return Database.open(db_path, engine=engine, trigger_cc=cc)

    db = open_db()
    yield open_db, db
    if not db.closed:
        db.close()


@pytest.fixture(params=CELLS, ids=["-".join(cell) for cell in CELLS])
def fresh(request, tmp_path):
    """Open a fresh database called *name* on one engine × cc cell (the
    caller closes it)."""
    engine, cc = request.param
    return lambda name: Database.open(str(tmp_path / name), engine=engine, trigger_cc=cc)


@pytest.fixture(params=["disk", "mm"])
def db_2pl(db_path, request):
    db = Database.open(db_path, engine=request.param, trigger_cc="2pl")
    yield db
    if not db.closed:
        db.close()


def _watched(db) -> repro.objects.oid.PersistentPtr:
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        return handle.ptr


def _canonical(db, ptr) -> None:
    with db.transaction():
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")


def _stored(db, rid):
    """The committed record at *rid* (or ``None``), read in a fresh
    transaction."""
    with db.transaction() as txn:
        if not db.storage.exists(txn.txid, rid):
            return None
        return db.storage.read(txn.txid, rid)


def _header(db, ptr) -> tuple[int, int]:
    """``(flags, group)`` of *ptr*'s stored object record."""
    return decode_object(_stored(db, ptr.rid))[2:]


def _clean(db) -> None:
    with db.transaction():
        assert db.trigger_system.verify_integrity() == []
    report = fsck_database(db)
    assert report.ok and not report.by_code("ODE130"), report.render_text()


# ---------------------------------------------------------------------------
# The footprint
# ---------------------------------------------------------------------------


def test_a_posting_reads_its_object_and_its_group_and_no_bucket(cell):
    """The ``canon_mm`` transaction.  2PL: the object and its group are
    read (3 lock acquires: S object, S and X group), and the group,
    advanced twice back to where it was loaded, is not written back.
    MVCC: the committed head serves the group, so only the object is read
    and locked; the merge writes the group once, and the shell finds the
    bytes unchanged.  Either way nothing is logged."""
    _, db = cell
    ptr = _watched(db)
    _canonical(db, ptr)  # MVCC: loads the group's chain
    before = db.metrics.snapshot()
    _canonical(db, ptr)
    after = db.metrics.snapshot()

    def delta(name):
        return after[name] - before[name]

    two_phase = db.trigger_cc == "2pl"
    assert delta("storage.reads") == (2 if two_phase else 1)
    assert delta("locks.s_acquired") + delta("locks.x_acquired") == (3 if two_phase else 1)
    assert delta("storage.log_records") == 0
    assert delta("storage.writes") == delta("storage.unchanged_writes") == (
        0 if two_phase else 1
    )
    assert delta("posting.events_posted") == delta("posting.fsm_advances") == 2
    assert delta("posting.state_writes") == (2 if two_phase else 0)
    assert delta("posting.firings") == 1


def _log_calls(db, monkeypatch) -> list[str]:
    """From now on, each ``write`` and ``fsync`` of *db*'s log file, in
    order."""
    log_fd = db.storage._wal._fd
    calls = []
    real_write, real_fsync = os.write, os.fsync

    def write(fd, data):
        if fd == log_fd:
            calls.append("write")
        return real_write(fd, data)

    def fsync(fd):
        if fd == log_fd:
            calls.append("fsync")
        return real_fsync(fd)

    monkeypatch.setattr(os, "write", write)
    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def test_a_posting_commit_writes_the_log_once_and_fsyncs_it_once(cell, monkeypatch):
    """A lone ``Ping`` moves the group (armed), so its commit logs the
    group's UPDATE and the COMMIT: two frames that reach the log file in
    one ``write`` and are made durable by one ``fsync``."""
    _, db = cell
    ptr = _watched(db)
    _canonical(db, ptr)  # MVCC: loads the group's chain
    calls = _log_calls(db, monkeypatch)
    before = db.metrics.snapshot()["storage.log_records"]
    with db.transaction():
        db.deref(ptr).post_event("Ping")
    assert db.metrics.snapshot()["storage.log_records"] - before == 2
    assert calls == ["write", "fsync"]


def test_a_posting_pair_that_ends_where_it_began_logs_nothing(cell, monkeypatch):
    """The ``canon_mm`` transaction's log bill: ``Ping`` then ``Pong``
    leaves the perpetual machine in the state it began in, so the group's
    write at commit changes no byte — no frame, no ``write``, no
    ``fsync``."""
    _, db = cell
    ptr = _watched(db)
    _canonical(db, ptr)  # MVCC: loads the group's chain
    calls = _log_calls(db, monkeypatch)
    before = db.metrics.snapshot()["storage.log_records"]
    _canonical(db, ptr)
    assert db.metrics.snapshot()["storage.log_records"] - before == 0
    assert calls == []


def test_a_group_advanced_four_times_asks_for_its_x_lock_once(db_2pl, monkeypatch):
    """Ping/Pong/Ping/Pong advances the group four times; only the first
    advance asks for its X lock, and the write at commit asks again."""
    db = db_2pl
    ptr = _watched(db)
    group_rid = _header(db, ptr)[1]
    locks = db.storage.lock_manager
    real_lock = locks.lock
    requests = []

    def lock(txid, resource, mode, *args, **kwargs):
        if resource == group_rid and mode is LockMode.X:
            requests.append(txid)
        return real_lock(txid, resource, mode, *args, **kwargs)

    monkeypatch.setattr(locks, "lock", lock)
    before = db.metrics.snapshot()["posting.state_writes"]
    with db.transaction():
        handle = db.deref(ptr)
        for event in ("Ping", "Pong", "Ping", "Pong"):
            handle.post_event(event)
        assert len(requests) == 1
    assert len(requests) == 2
    assert db.metrics.snapshot()["posting.state_writes"] - before == 4


class FanGadget(Persistent):
    """Two trigger kinds: ``Gate`` never passes its mask, ``Step`` moves."""

    n = field(int, default=0)

    __events__ = ["Tick"]
    __masks__ = {"armed": lambda self: self.n > 0}
    __triggers__ = [
        trigger("Gate", "Tick & armed", action=lambda s, c: None, perpetual=True),
        trigger("Step", "Tick, Tick, Tick", action=lambda s, c: None, perpetual=True),
    ]


class UnimportedBase(Persistent):
    """Its name is dropped from the registry to play a class a tool has
    not imported; ``UnimportedChild`` objects carry its trigger."""

    __events__ = ["Tick"]
    __triggers__ = [trigger("Watch", "Tick", action=lambda s, c: None, perpetual=True)]


class UnimportedChild(UnimportedBase):
    pass


def _count_calls(monkeypatch, calls: list, owner: type, name: str) -> None:
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_warm_posting_resolves_no_trigger(cell, monkeypatch):
    """Resolution is memoized per trigger kind and the group function per
    kinds: once both are warm, a later transaction's 16 machines
    are loaded resolved and served by the same group function with no
    registry or metatype call and no code generation — the group load asks the tier once, and that is a memo
    hit."""
    _, db = cell
    with db.transaction():
        handle = db.pnew(FanGadget)
        for _ in range(8):
            handle.Gate()
            handle.Step()
        ptr = handle.ptr
    with db.transaction() as txn:
        db.deref(ptr).post_event("Tick")  # warms the tier's memo
        served = _kernel_of(db, txn, ptr)
        # A posting served from the process-wide memo resolves nothing
        # (a kind is resolved when a view first needs it), so this
        # system's resolution memo is warmed here.
        for machine in db.trigger_system.index.lookup(txn, ptr.rid):
            db.trigger_system.resolve(machine.state)
    calls: list[str] = []
    _count_calls(monkeypatch, calls, TypeRegistry, "find")
    _count_calls(monkeypatch, calls, Metatype, "trigger_info")
    _count_calls(monkeypatch, calls, CompiledTier, "group_function")
    _count_calls(monkeypatch, calls, compiled, "generate_group_advance")
    _count_calls(monkeypatch, calls, posting, "advance_group")
    before = db.trigger_system.stats.snapshot()
    with db.transaction() as txn:
        handle = db.deref(ptr)  # a deref resolves the object's own class
        del calls[:]
        machines = db.trigger_system.index.lookup(txn, ptr.rid)
        assert all(m.info is not None for m in machines)  # resolved at load
        for _ in range(4):
            handle.post_event("Tick")
        assert _kernel_of(db, txn, ptr) is served
    stats = db.trigger_system.stats.diff(before)
    assert calls == ["group_function"] + ["advance_group"] * 4
    assert stats["fsm_advances"] == stats["compiled_hits"] == 4 * 16
    # From the 3rd Tick on (the 2nd here), each Tick completes every Step.
    assert stats["firings"] == 3 * 8


def test_a_lookup_by_rid_loads_a_group_whose_class_is_not_registered(cell, monkeypatch):
    """Loading never resolves: tooling on a database whose trigger classes
    are not imported reads the machines (unresolved) as before; only
    advancing one needs its class."""
    open_db, db = cell
    with db.transaction():
        handle = db.pnew(UnimportedChild)
        handle.Watch()
        ptr = handle.ptr
    db.close()
    db = open_db()
    try:
        monkeypatch.delitem(db.registry._by_name, "UnimportedBase")
        with db.transaction() as txn:
            (machine,) = db.trigger_system.index.lookup(txn, ptr.rid)
        assert machine.state.trigobjtype == "UnimportedBase"
        assert machine.info is None
        with pytest.raises(repro.errors.UnknownTypeError):
            with db.transaction():
                db.deref(ptr).post_event("Tick")
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Written once, at commit
# ---------------------------------------------------------------------------


def test_an_immediate_action_sees_the_advanced_state_of_an_unwritten_group(cell):
    """The action reads the working group (advanced by this transaction's
    three postings) while storage still holds the state the transaction
    started from; the commit writes exactly what the action saw."""
    _, db = cell
    with db.transaction():
        gadget = db.pnew(ProbedGadget)
        count = gadget.Count()
        gadget.Probe()
        ptr = gadget.ptr
    start = [s.statenum for _, s in TriggerGroup.decode(_stored(db, count.rid)).entries]
    SEEN.clear()
    with db.transaction():
        handle = db.deref(ptr)
        for _ in range(3):
            handle.post_event("Tick")
    ((working, stored),) = SEEN
    assert stored == start
    assert working != start
    committed = TriggerGroup.decode(_stored(db, count.rid)).entries
    assert [state.statenum for _, state in committed] == working[:1]  # Probe fired once
    _clean(db)


def test_an_abort_after_an_advance_leaves_storage_and_the_log_untouched(cell):
    _, db = cell
    ptr = _watched(db)
    with db.transaction() as txn:
        group_rid = db.trigger_system.index.group(txn, ptr.rid).rid
    group_before = _stored(db, group_rid)
    before = db.metrics.snapshot()
    with db.transaction():
        db.deref(ptr).post_event("Ping")
        raise repro.TransactionAbort("changed our mind")
    after = db.metrics.snapshot()
    assert after["storage.aborts"] - before["storage.aborts"] == 1
    assert after["storage.log_records"] == before["storage.log_records"]
    assert after["storage.writes"] == before["storage.writes"]
    assert _stored(db, group_rid) == group_before
    _clean(db)


def test_a_storage_error_at_the_flush_time_write_aborts_cleanly(db_2pl, monkeypatch):
    """The group is written after the dirty object: a failure there undoes
    the object's write too, releases the locks, and leaves nothing fsck
    can see."""
    db = db_2pl
    ptr = _watched(db)
    with db.transaction() as txn:
        group_rid = db.trigger_system.index.group(txn, ptr.rid).rid
    object_before, group_before = _stored(db, ptr.rid), _stored(db, group_rid)
    real_write = db.storage.write

    def write(txid, rid, data):
        if rid == group_rid:
            raise StorageError("injected: the flush-time group write fails")
        return real_write(txid, rid, data)

    monkeypatch.setattr(db.storage, "write", write)
    with pytest.raises(StorageError, match="injected"):
        with db.transaction():
            handle = db.deref(ptr)
            handle.value = 5
            handle.post_event("Ping")
            handle.post_event("Pong")
    monkeypatch.undo()
    assert db.storage.stats.aborts >= 1
    assert _stored(db, ptr.rid) == object_before
    assert _stored(db, group_rid) == group_before
    _clean(db)
    _canonical(db, ptr)  # the locks are gone: the next transaction commits
    _clean(db)


def test_deactivate_all_then_reactivate_names_the_new_group(cell):
    _, db = cell
    ptr = _watched(db)
    with db.transaction():
        (old, _state, _info), = db.trigger_system.active_triggers(ptr)
    with db.transaction():
        db.trigger_system.deactivate(old)
        handle = db.deref(ptr)
        assert "_p_group" not in handle.obj.__dict__
        new = handle.Watch()
        assert handle.obj.__dict__["_p_group"] == new.rid
        assert new.serial == 0
    assert _header(db, ptr) == (FLAG_HAS_TRIGGERS, new.rid)
    group = TriggerGroup.decode(_stored(db, new.rid))
    assert [serial for serial, _ in group.entries] == [0]
    if new.rid != old.rid:
        assert _stored(db, old.rid) is None
    with db.transaction() as txn:
        assert dict(db.trigger_system.index.entries(txn)) == {ptr.rid: new.rid}
    before = db.trigger_system.stats.firings
    _canonical(db, ptr)
    assert db.trigger_system.stats.firings == before + 1
    _clean(db)


def test_crash_and_reopen_leave_every_header_naming_a_live_group(cell):
    open_db, db = cell
    ptrs = [_watched(db) for _ in range(4)]
    with db.transaction():
        (tid, _state, _info), = db.trigger_system.active_triggers(ptrs[0])
        db.trigger_system.deactivate(tid)  # ptrs[0] has no trigger now
        db.deref(ptrs[1]).Watch()  # a second trigger, same group
        for ptr in ptrs[1:]:
            db.deref(ptr).post_event("Ping")
    # In flight at the crash: advances, a first activation, a last
    # deactivation — none of it committed.
    db.txn_manager.begin()
    db.deref(ptrs[0]).Watch()
    db.deref(ptrs[2]).post_event("Pong")
    (tid, _state, _info), = db.trigger_system.active_triggers(ptrs[3])
    db.trigger_system.deactivate(tid)
    db.simulate_crash()

    db = open_db()
    try:
        with db.transaction() as txn:
            indexed = dict(db.trigger_system.index.entries(txn))
            assert set(indexed) == {ptr.rid for ptr in ptrs[1:]}
            for ptr in ptrs:
                _name, _fields, flags, group_rid = decode_object(
                    db.storage.read(txn.txid, ptr.rid)
                )
                if ptr is ptrs[0]:
                    assert (flags, group_rid) == (0, -1)
                    continue
                assert flags & FLAG_HAS_TRIGGERS and group_rid == indexed[ptr.rid]
                group = TriggerGroup.decode(db.storage.read(txn.txid, group_rid))
                assert group.anchor.rid == ptr.rid
                assert len(group.entries) == (2 if ptr is ptrs[1] else 1)
        _clean(db)
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The kinds memo: the compile tier keeps a group function per kinds
# sequence (and registry), for the whole process
# ---------------------------------------------------------------------------


def _fan(db, pattern: str):
    """A new ``FanGadget`` with one trigger per letter of *pattern* (``G``
    a ``Gate``, ``S`` a ``Step``), in that order; returns its pointer."""
    with db.transaction():
        handle = db.pnew(FanGadget)
        for letter in pattern:
            (handle.Gate if letter == "G" else handle.Step)()
        return handle.ptr


def _tier_answers(monkeypatch) -> list:
    """What the compile tier answers each time it is asked for a group
    function."""
    answers = []
    real = CompiledTier.group_function

    def asked(self, key, entries):
        answers.append(real(self, key, entries))
        return answers[-1]

    monkeypatch.setattr(CompiledTier, "group_function", asked)
    return answers


def _kernel_of(db, txn, ptr):
    """The group function kept on *ptr*'s group in *txn*."""
    system = db.trigger_system
    return system.states(txn).kernel(system.index.group(txn, ptr.rid))


def test_a_group_of_kinds_already_served_asks_the_tier_nothing(cell, monkeypatch):
    """A second object whose group holds the same kinds, first loaded in
    a later transaction than the first object's, is served by the same
    function: its load asks the tier once, a memo hit, with no
    resolution and no code generation."""
    _, db = cell
    first, second = _fan(db, "GS" * 8), _fan(db, "GS" * 8)
    with db.transaction() as txn:
        db.deref(first).post_event("Tick")
        served = _kernel_of(db, txn, first)
    calls: list[str] = []
    _count_calls(monkeypatch, calls, TypeRegistry, "find")
    _count_calls(monkeypatch, calls, Metatype, "trigger_info")
    _count_calls(monkeypatch, calls, CompiledTier, "group_function")
    _count_calls(monkeypatch, calls, compiled, "generate_group_advance")
    _count_calls(monkeypatch, calls, posting, "advance_group")
    before = db.trigger_system.stats.snapshot()
    with db.transaction() as txn:
        handle = db.deref(second)
        del calls[:]  # the deref resolves the object's own class
        for _ in range(2):
            handle.post_event("Tick")
        assert _kernel_of(db, txn, second) is served
    stats = db.trigger_system.stats.diff(before)
    assert calls == ["group_function"] + ["advance_group"] * 2
    assert stats["fsm_advances"] == stats["compiled_hits"] == 2 * 16


#: What the actions below ran: (object label, trigger name), in order.
FIRED: list[tuple[str, str]] = []


def _note(self, ctx) -> None:
    FIRED.append((self.label, ctx.info.name))


def _arm_peer(self, ctx) -> None:
    """Flip the mask the peer's ``Watch`` reads."""
    _note(self, ctx)
    ctx.db.deref(self.peer).n = 1


def _extend_peer(self, ctx) -> None:
    """Activate a ``Pair`` on the peer."""
    _note(self, ctx)
    ctx.db.deref(self.peer).Pair()


def _disarm_peer(self, ctx) -> None:
    """Deactivate every trigger of the peer: its group goes."""
    _note(self, ctx)
    system = ctx.db.trigger_system
    for trigger_id, _state, _info in system.active_triggers(self.peer):
        system.deactivate(trigger_id)


class KindsGadget(Persistent):
    """``Watch`` fires on a Tick once armed, ``Pair`` on every Tick after
    its first; ``Arm``, ``Extend`` and ``Disarm`` (once-only) fire on the
    second Tick and change the peer."""

    label = field(str, default="")
    n = field(int, default=0)
    peer = field(PersistentPtr, default=NULL_PTR)

    __events__ = ["Tick"]
    __masks__ = {"armed": lambda self: self.n > 0}
    __triggers__ = [
        trigger("Watch", "Tick & armed", action=_note, perpetual=True),
        trigger("Pair", "Tick, Tick", action=_note, perpetual=True),
        trigger("Arm", "Tick, Tick", action=_arm_peer),
        trigger("Extend", "Tick, Tick", action=_extend_peer),
        trigger("Disarm", "Tick, Tick", action=_disarm_peer),
    ]


def _statenums(db, txn, ptr) -> list[tuple[int, int]]:
    """``(serial, statenum)`` of each entry of *ptr*'s group in *txn*."""
    return [
        (m.serial, m.state.statenum) for m in db.trigger_system.index.lookup(txn, ptr.rid)
    ]


def _without_tier_counters(delta: dict) -> dict:
    return {
        k: v for k, v in delta.items() if k not in ("compiled_hits", "compiled_fallbacks")
    }


def _membership_edits(db):
    """Post, activate a second ``Pair``, post, deactivate ``Watch``, post —
    all in one transaction on one loaded group."""
    with db.transaction():
        handle = db.pnew(KindsGadget, label="a", n=1)
        watch = handle.Watch()
        handle.Pair()
        ptr = handle.ptr
    FIRED.clear()
    before = db.trigger_system.stats.snapshot()
    with db.transaction() as txn:
        handle = db.deref(ptr)
        handle.post_event("Tick")  # loads the group and chooses its function
        handle.Pair()
        handle.post_event("Tick")
        db.trigger_system.deactivate(watch)
        handle.post_event("Tick")
        states = _statenums(db, txn, ptr)
    delta = _without_tier_counters(db.trigger_system.stats.diff(before))
    return list(FIRED), states, delta


def test_a_membership_change_mid_transaction_chooses_the_function_again(fresh):
    """An activation and a deactivation on a group the transaction has
    posted to: each following posting is served by the function of the
    group's new kinds, as the interpreted reference serves it."""
    with contextlib.closing(fresh("compiled")) as db:
        served = _membership_edits(db)
    with interpreted_baseline(), contextlib.closing(fresh("interpreted")) as db:
        reference = _membership_edits(db)
    assert served == reference
    fired, _states, delta = served
    # The first Pair fires from the second Tick on; the second, added
    # after the first Tick, fires on the third; Watch is gone by then.
    assert fired == [("a", "Watch")] * 2 + [("a", "Pair")] * 3
    assert delta["fsm_advances"] == 2 + 3 + 2


def test_a_schema_bump_asks_the_tier_once_for_the_new_function(cell, monkeypatch):
    """After ``bump_schema_version()`` the first group load of some kinds
    makes the tier generate their function again, once: every group of
    those kinds is served by the new function."""
    _, db = cell
    first, second = _fan(db, "GSG"), _fan(db, "GSG")
    with db.transaction() as txn:
        db.deref(first).post_event("Tick")
        old = _kernel_of(db, txn, first)
    compiled.bump_schema_version("test: the kinds memo starts afresh")
    answers = _tier_answers(monkeypatch)
    generated: list[str] = []
    _count_calls(monkeypatch, generated, compiled, "generate_group_advance")
    with db.transaction() as txn:
        for ptr in (first, second):
            db.deref(ptr).post_event("Tick")
        served = {_kernel_of(db, txn, ptr) for ptr in (first, second)}
    assert generated == ["generate_group_advance"]
    assert len(answers) == 2 and answers[0] is answers[1]
    assert served == {answers[0]} and answers[0] is not old


def test_the_kinds_memo_dies_with_its_database(fresh):
    """The memo lives on the trigger system: once its database is closed,
    nothing keeps that trigger system alive."""
    db = fresh("gone")
    ptr = _fan(db, "GS")
    with db.transaction():
        db.deref(ptr).post_event("Tick")
    system = weakref.ref(db.trigger_system)
    db.close()
    del db
    gc.collect()
    assert system() is None


def test_the_kinds_memo_stays_within_its_bound(cell, monkeypatch):
    """More distinct kinds sequences than the tier's memo holds: it never
    holds more than its bound, and every group is still served by its
    own generated function."""
    _, db = cell
    monkeypatch.setattr(compiled, "KERNEL_MEMO_MAX", 4)
    compiled.bump_schema_version("test: a small kinds memo")
    patterns = ["".join(p) for p in itertools.product("GS", repeat=3)]
    ptrs = [_fan(db, pattern) for pattern in patterns]
    system = db.trigger_system
    tier = compiled.global_compiled_tier()
    before = system.stats.snapshot()
    try:
        for ptr in ptrs:
            with db.transaction():
                db.deref(ptr).post_event("Tick")
            assert 0 < tier.cached_count() <= 4
    finally:
        monkeypatch.undo()
        compiled.bump_schema_version("test: the kinds memo bound restored")
    stats = system.stats.diff(before)
    assert stats["fsm_advances"] == stats["compiled_hits"] == 3 * len(patterns)


#: What each ``RegistryTwin`` firing saw: its registry's tag and ``n``.
TWIN_FIRED: list[tuple[str, int]] = []


def _twin_class(tag: str, mask) -> type:
    """(Re)define a class named ``RegistryTwin`` whose ``Watch`` fires on
    a Tick when *mask* holds and logs *tag* and ``n``."""
    return type(
        "RegistryTwin",
        (Persistent,),
        {
            "n": field(int, default=0),
            "__events__": ["Tick"],
            "__masks__": {"gate": mask},
            "__triggers__": [
                trigger("Watch", "Tick & gate", perpetual=True,
                        action=lambda s, c: TWIN_FIRED.append((tag, s.n))),
            ],
        },
    )


def _registry_twin(tag: str, mask) -> TypeRegistry:
    """A registry of its own in which ``RegistryTwin`` resolves to a
    fresh :func:`_twin_class`."""
    cls = _twin_class(tag, mask)
    registry = TypeRegistry()
    registry.register(cls)
    registry.register_shim("RegistryTwin", cls.__metatype__)
    return registry


def _fire_twin(db, cls) -> None:
    """Activate ``Watch`` on a new *cls* object in *db*, then post a Tick
    at ``n`` 1 and at ``n`` -1."""
    with db.transaction():
        handle = db.pnew(cls)
        handle.Watch()
        ptr = handle.ptr
    for n in (1, -1):
        with db.transaction():
            handle = db.deref(ptr)
            handle.n = n
            handle.post_event("Tick")


def test_the_kinds_memo_keys_each_registry_apart(tmp_path):
    """Two databases of one process whose registries each hold a class of
    the same name, with the same trigger under a different mask: the
    groups have the same kinds columns, and each database still fires
    by its own class."""
    registries = {
        "positive": _registry_twin("positive", lambda self: self.n > 0),
        "negative": _registry_twin("negative", lambda self: self.n < 0),
    }
    TWIN_FIRED.clear()
    for tag, registry in registries.items():
        db = Database.open(str(tmp_path / tag), engine="mm", type_registry=registry)
        try:
            _fire_twin(db, registry.find("RegistryTwin").pyclass)
        finally:
            db.close()
    assert TWIN_FIRED == [("positive", 1), ("negative", -1)]


def test_a_registry_re_pointed_between_two_databases_fires_by_its_new_class(tmp_path):
    """One registry, two databases: between them ``register`` re-points
    the registry's ``RegistryTwin`` at another class of that name (its
    metatype then filled in place, as a class definition fills its
    global one).  Re-pointing bumps the schema version, so the second
    database fires by the new class's mask, not by the function the
    first one left memoized under this registry and these kinds."""
    positive = _twin_class("positive", lambda self: self.n > 0)
    negative = _twin_class("negative", lambda self: self.n < 0)
    registry = TypeRegistry()
    registry.register(positive)
    registry.register_shim("RegistryTwin", positive.__metatype__)
    TWIN_FIRED.clear()
    db = Database.open(str(tmp_path / "first"), engine="mm", type_registry=registry)
    try:
        _fire_twin(db, positive)
    finally:
        db.close()

    before = compiled.schema_version()
    metatype = registry.register(negative)
    assert compiled.schema_version() == before + 1
    vars(metatype).update(vars(negative.__metatype__))
    assert registry.register(negative) is metatype  # idempotent: no bump
    assert compiled.schema_version() == before + 1
    db = Database.open(str(tmp_path / "second"), engine="mm", type_registry=registry)
    try:
        _fire_twin(db, negative)
    finally:
        db.close()
    assert TWIN_FIRED == [("positive", 1), ("negative", -1)]


LocalFan = type(
    "LocalFan",
    (Monitored,),
    {
        "__init__": lambda self: setattr(self, "n", 0),
        "__events__": ["Tick"],
        "__masks__": {"armed": lambda self: self.n > 0},
        "__triggers__": [
            trigger("Gate", "Tick & armed", action=lambda s, c: None, perpetual=True),
            trigger("Step", "Tick, Tick", action=lambda s, c: None, perpetual=True),
        ],
    },
)


def test_local_rules_keep_their_function_until_a_rule_is_added(monkeypatch):
    """Local rules keep their group function on their group as a
    persistent store does: warm, a posting asks the tier nothing; a rule
    added between postings gets a fresh choice."""
    system = LocalTriggerSystem()
    handle = system.monitor(LocalFan())
    handle.Gate()
    handle.Step()
    handle.post_event("Tick")  # chooses
    answers = _tier_answers(monkeypatch)
    for _ in range(3):
        handle.post_event("Tick")
    assert answers == []
    handle.Step()
    for _ in range(2):
        handle.post_event("Tick")
    assert len(answers) == 1 and answers[0] is not None
    assert system.stats.fsm_advances == system.stats.compiled_hits == 4 * 2 + 2 * 3


# ---------------------------------------------------------------------------
# The batch memo: a batch finds each object's group once
# ---------------------------------------------------------------------------


#: ``a``'s second Tick, the batch's third posting, fires its one trigger.
_BATCH = [
    ("a", "Tick"), ("b", "Tick"), ("a", "Tick"), ("b", "Tick"),
    ("b", "Tick"), ("a", "Tick"), ("b", "Tick"),
]


def _batch_run(db, case: str, batched: bool):
    """``a`` carries *case*, ``b`` an unarmed ``Watch``; post ``_BATCH``
    as one ``post_many`` or one ``post_event`` per item."""
    with db.transaction():
        b = db.pnew(KindsGadget, label="b")
        b.Watch()
        a = db.pnew(KindsGadget, label="a", peer=b.ptr)
        getattr(a, case)()
        ptrs = {"a": a.ptr, "b": b.ptr}
    FIRED.clear()
    system = db.trigger_system
    before = system.stats.snapshot()
    with db.transaction() as txn:
        if batched:
            db.post_many([(ptrs[who], event) for who, event in _BATCH])
        else:
            for who, event in _BATCH:
                db.deref(ptrs[who]).post_event(event)
        states = {who: _statenums(db, txn, ptr) for who, ptr in ptrs.items()}
    delta = _without_tier_counters(system.stats.diff(before))
    del delta["batched"]
    return list(FIRED), states, delta


@pytest.mark.parametrize(
    "case, fired",
    [
        ("Arm", [("a", "Arm")] + [("b", "Watch")] * 3),
        ("Extend", [("a", "Extend")] + [("b", "Pair")] * 2),
        ("Disarm", [("a", "Disarm")]),
    ],
)
def test_a_batch_equals_its_postings_when_an_action_changes_a_later_target(
    fresh, case, fired
):
    """The batch's third posting fires an immediate action that flips the
    mask a later posting's object reads (``Arm``), activates a trigger on
    the next posting's object (``Extend``) or deactivates its last
    trigger, dropping its group (``Disarm``): the batch advances and
    fires what one ``post_event`` per item does, compiled or
    interpreted."""
    runs = {}
    for served, batched in itertools.product((True, False), repeat=2):
        serving = contextlib.nullcontext() if served else interpreted_baseline()
        with serving, contextlib.closing(fresh(f"{case}{served:d}{batched:d}")) as db:
            runs[served, batched] = _batch_run(db, case, batched)
    reference = runs[True, False]
    assert all(run == reference for run in runs.values()), runs
    assert reference[0] == fired
    if case == "Disarm":
        assert reference[1]["b"] == []


def test_a_fanout_batch_finds_each_objects_group_once(cell, monkeypatch):
    """The ``fanout_mm`` transaction — 8 Ticks over 2 objects of 16
    gated triggers, nothing fires — makes 2 index lookups, not 8, and
    every posting still advances and masks all 16."""
    _, db = cell
    ptrs = [_fan(db, "G" * 16) for _ in range(2)]
    calls: list[str] = []
    _count_calls(monkeypatch, calls, TriggerIndex, "lookup")
    before = db.trigger_system.stats.snapshot()
    with db.transaction():
        assert db.post_many([(ptrs[0], "Tick"), (ptrs[1], "Tick")] * 4) == 0
    stats = db.trigger_system.stats.diff(before)
    assert calls == ["lookup"] * 2
    assert stats["events_posted"] == stats["batched"] == 8
    assert stats["fsm_advances"] == stats["masks_evaluated_posting"] == 8 * 16
