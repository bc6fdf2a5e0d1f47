"""A posting touches only its object and its group (DESIGN §14, §17).

The object's header names its trigger group, so a posting reads its
object and that group and nothing else.  Under strict 2PL a group a posting advanced is
X-locked at the posting and written once, by ``Database.flush_transaction``
after every before-commit hook; MVCC merges it at commit as before.
Pinned on both engines under both trigger concurrency-control schemes,
except where a rule is one scheme's.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import compiled, posting
from repro.core.compiled import CompiledTier
from repro.core.declarations import trigger
from repro.core.trigger_state import TriggerGroup
from repro.errors import StorageError
from repro.fsck import fsck_database
from repro.objects.database import Database
from repro.objects.metatype import Metatype, TypeRegistry
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_object
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
    advanced twice, is written once — one UPDATE and the COMMIT.  MVCC:
    the committed head serves the group, so only the object is read and
    locked; the merge writes the group once."""
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
    assert delta("storage.log_records") == 2
    assert delta("storage.writes") == 1
    assert delta("posting.events_posted") == delta("posting.fsm_advances") == 2
    assert delta("posting.state_writes") == (2 if two_phase else 0)
    assert delta("posting.firings") == 1


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
    signature: once a group has posted, a later transaction's 16 machines
    are loaded resolved and served by the group function with no
    registry or metatype call, no ODE4xx classification and no code
    generation — the tier is asked once, for the group's memoized
    function."""
    _, db = cell
    with db.transaction():
        handle = db.pnew(FanGadget)
        for _ in range(8):
            handle.Gate()
            handle.Step()
        ptr = handle.ptr
    with db.transaction():
        db.deref(ptr).post_event("Tick")  # warms the memos
    calls: list[str] = []
    _count_calls(monkeypatch, calls, TypeRegistry, "find")
    _count_calls(monkeypatch, calls, Metatype, "trigger_info")
    _count_calls(monkeypatch, calls, CompiledTier, "compiles")
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
