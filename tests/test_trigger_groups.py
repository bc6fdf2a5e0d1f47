"""An object's trigger states are one record: its trigger group.

Covers the group record codec (round trips, corruption, the one-entry
size bound), and — on both engines under both trigger concurrency-control
schemes — activation order and serials, group deletion with the last
trigger and with its anchor, what a posting to a 16-trigger object reads
and locks, ``TriggerId`` persistence, and a threaded MVCC run that
activates and posts on one object at once (DESIGN.md §17).
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.declarations import trigger
from repro.core.trigger_state import (
    GROUP_MARK,
    SERIAL_MAX,
    TriggerGroup,
    TriggerId,
    TriggerState,
)
from repro.errors import SerializationError, TriggerError
from repro.objects.database import Database
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import FLAG_HAS_TRIGGERS
from repro.storage.locks import LockManager


def _noop(self, ctx) -> None:
    pass


class GroupGadget(Persistent):
    """Gate never moves; Watch flips on every Ping/Pong."""

    n = field(int, default=0)

    __events__ = ["Tick", "Ping", "Pong"]
    __triggers__ = [
        trigger("Gate", "Tick", action=_noop, perpetual=True),
        trigger("Watch", "relative(Ping, Pong)", action=_noop, perpetual=True),
        trigger("Tagged", "Tick", action=_noop, perpetual=True, params=("tag",)),
    ]


class GroupChild(GroupGadget):
    """A second defining class: its group holds two type names."""

    __triggers__ = [trigger("ChildGate", "Tick", action=_noop, perpetual=True)]


class TidHolder(Persistent):
    """Keeps a TriggerId in a persistent field."""

    tid = field(PersistentPtr, default=NULL_PTR)


CELLS = [("disk", "2pl"), ("disk", "mvcc"), ("mm", "2pl"), ("mm", "mvcc")]


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


def _group_rid(db, ptr) -> int | None:
    with db.transaction() as txn:
        group = db.trigger_system.index.group(txn, ptr.rid)
        return None if group is None else group.rid


def _stored_group(db, rid) -> TriggerGroup:
    with db.transaction() as txn:
        return TriggerGroup.decode(db.storage.read(txn.txid, rid))


def _names(db, ptr) -> list[str]:
    """The active triggers' names, in the current transaction."""
    return [info.name for _, _, info in db.trigger_system.active_triggers(ptr)]


def _committed_names(db, ptr) -> list[str]:
    with db.transaction():
        return _names(db, ptr)


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------

_NAME = st.text(
    st.characters(exclude_characters="\0", exclude_categories=["Cs"]), max_size=12
)
_PARAMS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1), st.text(max_size=6)),
    max_size=3,
)


@st.composite
def _groups(draw):
    anchor = PersistentPtr(draw(_NAME), draw(st.integers(-(2**63), 2**63 - 1)))
    types = draw(st.lists(_NAME, min_size=1, max_size=3))
    count = draw(st.integers(0, 5))
    serials = draw(
        st.lists(st.integers(0, SERIAL_MAX), min_size=count, max_size=count, unique=True)
    )
    entries = [
        (
            serial,
            TriggerState(
                triggernum=draw(st.integers(0, 0xFFFF)),
                trigobj=anchor,
                statenum=draw(st.integers(-0x8000, 0x7FFF)),
                trigobjtype=draw(st.sampled_from(types)),
                params=draw(_PARAMS),
            ),
        )
        for serial in serials
    ]
    return TriggerGroup(anchor, draw(st.integers(0, SERIAL_MAX)), entries)


_CANON = TriggerGroup(
    PersistentPtr("db", 5), 1, [(0, TriggerState(0, PersistentPtr("db", 5), 1, "HotObject"))]
)


@settings(max_examples=150, deadline=None)
@given(group=_groups())
@example(group=_CANON)
def test_group_roundtrip(group):
    assert TriggerGroup.decode(group.encode()) == group


@settings(max_examples=40, deadline=None)
@given(group=_groups())
@example(group=_CANON)
def test_group_prefixes_and_byte_flips_raise_trigger_error_or_decode_validly(group):
    raw = group.encode()
    for end in range(len(raw)):
        with pytest.raises(TriggerError):
            TriggerGroup.decode(raw[:end])
    for pos in range(len(raw)):
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[pos] ^= flip
            try:
                decoded = TriggerGroup.decode(bytes(bad))
            except TriggerError:
                continue
            assert TriggerGroup.decode(decoded.encode()) == decoded


def test_other_record_kinds_are_not_groups():
    from repro.objects.serialize import encode_object, encode_value

    out = bytearray()
    encode_value({"not": "a group"}, out)
    state = TriggerState(0, PersistentPtr("db", 1), 0, "T")
    for raw in (b"", bytes(out), encode_object("HotObject", {"v": 1}), state.encode()):
        with pytest.raises(TriggerError):
            TriggerGroup.decode(raw)


@pytest.mark.parametrize(
    "entry, field_name",
    [
        ((SERIAL_MAX + 1, {}), "serial"),
        ((0, {"triggernum": 0x10000}), "triggernum"),
        ((0, {"statenum": 0x8000}), "statenum"),
        ((0, {"statenum": True}), "statenum"),
        ((0, {"params": [1]}), "params"),
    ],
)
def test_out_of_range_fields_are_refused_by_name(entry, field_name):
    serial, overrides = entry
    fields = dict(triggernum=1, trigobj=PersistentPtr("db", 7), statenum=0, trigobjtype="T")
    fields.update(overrides)
    group = TriggerGroup(PersistentPtr("db", 7), 1, [(serial, TriggerState(**fields))])
    with pytest.raises(SerializationError, match=field_name):
        group.encode()


def test_names_with_nul_or_too_many_types_are_refused():
    anchor = PersistentPtr("db", 7)
    with pytest.raises(SerializationError, match="NUL"):
        TriggerGroup(anchor, 1, [(0, TriggerState(0, anchor, 0, "A\0B"))]).encode()
    entries = [(i, TriggerState(0, anchor, 0, f"T{i}")) for i in range(256)]
    with pytest.raises(SerializationError, match="defining types"):
        TriggerGroup(anchor, 256, entries).encode()


@settings(max_examples=100, deadline=None)
@given(
    db_name=_NAME,
    type_name=_NAME,
    rid=st.integers(-(2**63), 2**63 - 1),
    triggernum=st.integers(0, 0xFFFF),
    statenum=st.integers(-0x8000, 0x7FFF),
    params=_PARAMS,
)
def test_a_one_entry_group_is_no_larger_than_a_one_state_record(
    db_name, type_name, rid, triggernum, statenum, params
):
    """So a one-trigger object's log volume does not grow (``canon_mm``)."""
    anchor = PersistentPtr(db_name, rid)
    state = TriggerState(triggernum, anchor, statenum, type_name, params)
    assert len(TriggerGroup(anchor, 1, [(0, state)]).encode()) <= len(state.encode())


# ---------------------------------------------------------------------------
# Activation order and serials
# ---------------------------------------------------------------------------


def test_activation_order_survives_deactivate_and_reactivate(cell):
    _, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        ptr = gadget.ptr
        gate, watch, tagged = gadget.Gate(), gadget.Watch(), gadget.Tagged("a")
    assert [gate.serial, watch.serial, tagged.serial] == [0, 1, 2]
    assert gate.rid == watch.rid == tagged.rid  # one group
    with db.transaction():
        db.trigger_system.deactivate(watch)
        again = db.deref(ptr).Watch()
        assert _names(db, ptr) == ["Gate", "Tagged", "Watch"]
    assert again.serial == 3  # serial 1 is never reused while the group lives
    assert _committed_names(db, ptr) == ["Gate", "Tagged", "Watch"]
    stored = _stored_group(db, gate.rid)
    assert [serial for serial, _ in stored.entries] == [0, 2, 3]
    assert stored.next_serial == 4
    with db.transaction():
        ids = [tid for tid, _, _ in db.trigger_system.active_triggers(ptr)]
        assert ids == [gate, tagged, again]
        assert all(isinstance(tid, PersistentPtr) for tid in ids)
        assert db.trigger_system.verify_integrity() == []


def test_a_group_holds_several_defining_types(cell):
    _, db = cell
    with db.transaction():
        child = db.pnew(GroupChild)
        child.Gate()
        child.ChildGate()
        ptr = child.ptr
    stored = _stored_group(db, _group_rid(db, ptr))
    assert [state.trigobjtype for _, state in stored.entries] == [
        "GroupGadget",
        "GroupChild",
    ]
    with db.transaction():
        db.deref(ptr).post_event("Tick")
        assert _names(db, ptr) == ["Gate", "ChildGate"]
        assert db.trigger_system.verify_integrity() == []


def test_deactivating_the_last_trigger_deletes_the_group(cell):
    _, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        ptr = gadget.ptr
        gate, watch = gadget.Gate(), gadget.Watch()
    with db.transaction():
        db.trigger_system.deactivate(gate)
        db.trigger_system.deactivate(watch)
        assert not db.deref(ptr).obj.__dict__["_p_flags"] & FLAG_HAS_TRIGGERS
    assert _group_rid(db, ptr) is None
    with db.transaction() as txn:
        assert not db.storage.exists(txn.txid, gate.rid)
        assert ptr.rid not in dict(db.trigger_system.index.entries(txn))
        assert not db.deref(ptr).obj.__dict__["_p_flags"] & FLAG_HAS_TRIGGERS
        assert db.trigger_system.verify_integrity() == []
        with pytest.raises(repro.errors.TriggerNotActiveError):
            db.trigger_system.deactivate(gate)


def test_a_stale_trigger_id_is_not_active_after_its_slot_is_reused(cell):
    """A deleted group's rid may be handed to a new record (the disk
    engine reuses the slot): deactivating the old id then finds no group
    record there, and says the trigger is not active."""
    _, db = cell
    with db.transaction():
        gate = db.pnew(GroupGadget).Gate()
    with db.transaction():
        db.trigger_system.deactivate(gate)
    with db.transaction():
        for _ in range(5):
            db.pnew(GroupGadget)
    with db.transaction():
        with pytest.raises(repro.errors.TriggerNotActiveError):
            db.trigger_system.deactivate(gate)
        db.trigger_system.deactivate(gate, missing_ok=True)


def test_a_trigger_id_naming_an_object_record_is_not_active(cell):
    _, db = cell
    with db.transaction():
        ptr = db.pnew(GroupGadget).ptr
    stray = TriggerId(db.name, ptr.rid, 0)
    with db.transaction():
        with pytest.raises(repro.errors.TriggerNotActiveError):
            db.trigger_system.deactivate(stray)
        db.trigger_system.deactivate(stray, missing_ok=True)
        assert db.deref(ptr).n == 0


def test_a_corrupt_group_record_still_raises_on_deactivate(cell):
    """Only a record that is no group at all means "not active": one with
    the group mark that fails to decode is reported, ``missing_ok`` or
    not."""
    open_db, db = cell
    with db.transaction():
        gate = db.pnew(GroupGadget).Gate()
    db.close()
    db = open_db()
    try:
        with db.transaction() as txn:
            db.storage.write(txn.txid, gate.rid, bytes([GROUP_MARK, 0]))
        with db.transaction():
            with pytest.raises(TriggerError, match="corrupt trigger-group record"):
                db.trigger_system.deactivate(gate, missing_ok=True)
    finally:
        db.close()


def test_pdelete_drops_the_group(cell):
    _, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        ptr = gadget.ptr
        gate = gadget.Gate()
        gadget.Watch()
    with db.transaction():
        db.pdelete(ptr)
    with db.transaction() as txn:
        assert not db.storage.exists(txn.txid, gate.rid)
        assert ptr.rid not in dict(db.trigger_system.index.entries(txn))
        assert db.trigger_system.verify_integrity() == []


def test_an_activation_rolled_back_leaves_no_group(cell):
    _, db = cell
    with db.transaction():
        ptr = db.pnew(GroupGadget).ptr
    txn = db.txn_manager.begin()
    tid = db.deref(ptr).Gate()
    db.txn_manager.abort(txn)
    assert _group_rid(db, ptr) is None
    with db.transaction() as txn:
        assert not db.storage.exists(txn.txid, tid.rid)


def test_a_group_out_of_serials_refuses_the_activation_and_changes_nothing(cell):
    """A committed group whose ``next_serial`` is ``SERIAL_MAX`` has no
    serial left that its record could store beside the next one: the
    activation call itself raises, and after the abort the stored group
    and the object's header are as they were."""
    open_db, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        ptr, gate = gadget.ptr, gadget.Gate()
    image = _stored_group(db, gate.rid)
    with db.transaction() as txn:
        image.next_serial = SERIAL_MAX
        db.storage.write(txn.txid, gate.rid, image.encode())
    db.close()
    db = open_db()  # MVCC loads the group's head from storage
    try:
        ptr = PersistentPtr(db.name, ptr.rid)

        def stored():
            with db.transaction() as txn:
                return db.storage.read(txn.txid, gate.rid), db.storage.read(txn.txid, ptr.rid)

        before = stored()
        with db.transaction():
            handle = db.deref(ptr)
            with pytest.raises(
                SerializationError, match=f"has used all {SERIAL_MAX} serials"
            ):
                handle.Watch()
            raise repro.TransactionAbort("no serial left")
        assert stored() == before
        with db.transaction():
            assert _names(db, ptr) == ["Gate"]
            assert db.trigger_system.verify_integrity() == []
    finally:
        db.close()


def test_verify_integrity_reports_each_group_defect(cell):
    _, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        other = db.pnew(GroupGadget)
        gate = gadget.Gate()
        ptr, other_ptr = gadget.ptr, other.ptr
    anchor = PersistentPtr(db.name, ptr.rid)
    state = TriggerState(0, anchor, 0, "GroupGadget")
    defects = [
        (TriggerGroup(anchor, 2, [(0, state), (0, state)]), "duplicate serial 0"),
        (TriggerGroup(anchor, 1, [(0, state), (5, state)]), "serial 5 >= next_serial 1"),
        (
            TriggerGroup(anchor, 1, [(0, TriggerState(0, anchor, 99, "GroupGadget"))]),
            "FSM state 99 out of range",
        ),
        (
            TriggerGroup(PersistentPtr(db.name, other_ptr.rid), 1, [(0, state)]),
            f"header names group {gate.rid}, anchored at {other_ptr.rid}",
        ),
        (None, "corrupt"),
    ]
    for image, expected in defects:
        with db.transaction() as txn:
            raw = b"\xa6 not a group" if image is None else image.encode()
            db.storage.write(txn.txid, gate.rid, raw)
            problems = db.trigger_system.verify_integrity()
            assert any(
                f"group {gate.rid}" in p and expected in p for p in problems
            ), (expected, problems)
            raise repro.TransactionAbort("undo the damage")
    with db.transaction() as txn:
        db.storage.delete(txn.txid, gate.rid)
        problems = db.trigger_system.verify_integrity()
        assert any("which is missing" in p for p in problems), problems
        raise repro.TransactionAbort("undo the damage")
    with db.transaction():
        assert db.trigger_system.verify_integrity() == []


# ---------------------------------------------------------------------------
# What a posting reads and locks
# ---------------------------------------------------------------------------


def test_sixteen_triggers_cost_one_group_read_and_lock(cell, monkeypatch):
    """Posting to an object with 16 triggers reads and locks its group
    once (MVCC: not at all — the committed head serves it) and reads
    nothing else, and activating the 2nd … 16th trigger inserts no record
    and leaves the object's header alone."""
    _, db = cell
    storage = db.storage
    index = db.trigger_system.index
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        ptr = gadget.ptr
        gadget.Gate()
        inserts = storage.stats.inserts
        adds = []
        real_add = index.add
        monkeypatch.setattr(index, "add", lambda *a: adds.append(a) or real_add(*a))
        for _ in range(15):
            gadget.Gate()
        assert storage.stats.inserts == inserts
        assert adds == []
    group_rid = _group_rid(db, ptr)
    with db.transaction():
        db.deref(ptr).post_event("Tick")  # load the chain

    reads, locks = [], []
    lock_stats = storage.lock_manager.stats
    real_read, real_lock = storage.read, LockManager.lock
    monkeypatch.setattr(storage, "read", lambda txid, rid: reads.append(rid) or real_read(txid, rid))

    def lock(manager, txid, resource, mode):
        locks.append(resource)
        return real_lock(manager, txid, resource, mode)

    monkeypatch.setattr(LockManager, "lock", lock)
    with db.transaction():
        handle = db.deref(ptr)
        reads_before = storage.stats.reads
        locks_before = lock_stats.s_acquired + lock_stats.x_acquired
        for _ in range(3):
            handle.post_event("Tick")
        # The group alone, whatever the number of postings: the header
        # named it.
        expected = 0 if db.trigger_cc == "mvcc" else 1
        assert storage.stats.reads - reads_before == expected
        assert lock_stats.s_acquired + lock_stats.x_acquired - locks_before == expected
        assert len(db.trigger_system.index.lookup(db.txn_manager.current(), ptr.rid)) == 16
    assert reads.count(group_rid) == expected
    assert locks.count(group_rid) == expected
    assert db.trigger_system.stats.fsm_advances >= 48


# ---------------------------------------------------------------------------
# TriggerId persistence
# ---------------------------------------------------------------------------


def test_a_stored_trigger_id_survives_reopen_and_deactivates(cell):
    open_db, db = cell
    with db.transaction():
        gadget = db.pnew(GroupGadget)
        gadget.Gate()
        watch = gadget.Watch()
        holder = db.pnew(TidHolder, tid=watch)
        ptrs = gadget.ptr, holder.ptr
    db.close()
    db = open_db()
    try:
        gadget_ptr, holder_ptr = (PersistentPtr(db.name, p.rid) for p in ptrs)
        with db.transaction():
            stored = db.deref(holder_ptr).tid
            assert type(stored) is TriggerId
            assert stored == TriggerId(db.name, watch.rid, watch.serial)
            repro.deactivate(stored)
            assert _names(db, gadget_ptr) == ["Gate"]
        assert _committed_names(db, gadget_ptr) == ["Gate"]
    finally:
        db.close()


# ---------------------------------------------------------------------------
# MVCC: activation and posting on one object from several threads
# ---------------------------------------------------------------------------


def test_threaded_mvcc_activation_and_posting_keep_storage_equal_to_heads(db_path):
    """Two sessions post Ping/Pong while two others activate (and every
    other time deactivate) triggers on the same object.  Each activator
    loads the group by posting first, so its copy is often older than the
    membership the other activator commits meanwhile."""
    db = Database.open(db_path, engine="mm", trigger_cc="mvcc")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with db.transaction():
            gadget = db.pnew(GroupGadget)
            gadget.Watch()
            ptr = gadget.ptr
        errors: list[Exception] = []
        start = threading.Barrier(4)

        def run(name, body, times):
            session = db.session(name)
            try:
                start.wait()
                for step in range(times):
                    session.run(lambda txn: body(session, step), retries=200)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                session.close()

        def post(session, step):
            handle = session.deref(ptr)
            handle.post_event("Ping")
            handle.post_event("Pong")

        def activate(session, step):
            handle = session.deref(ptr)
            handle.post_event("Tick")  # loads the group before activating
            tid = handle.Tagged(f"t{step}")
            if step % 2:
                db.trigger_system.deactivate(tid)

        threads = [
            threading.Thread(target=run, args=(f"poster-{i}", post, 25)) for i in range(2)
        ] + [
            threading.Thread(target=run, args=(f"activator-{i}", activate, 10))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        versions = db.trigger_system.versions
        (group_rid,) = versions.heads()
        head = versions.head_or_none(group_rid)
        assert TriggerGroup.decode(db.storage.peek(group_rid)) == head.image
        serials = [serial for serial, _ in head.image.entries]
        assert len(serials) == len(set(serials)) == 1 + 10
        assert head.image.next_serial == 1 + 20
        with db.transaction():
            assert db.trigger_system.verify_integrity() == []
            assert len(db.trigger_system.index.lookup(db.txn_manager.current(), ptr.rid)) == 11
    finally:
        sys.setswitchinterval(interval)
        db.close()


def test_an_activation_between_a_commit_and_its_publish_takes_a_fresh_serial(
    db_path, monkeypatch
):
    """A committer releases its locks in the storage commit and publishes
    its head after.  An activator granted the group's X lock in that
    window must not read the old head and hand the committer's serial out
    again.  The first committer's publish is held until the second
    session has activated, or for 1 s — which is what happens when the
    activation waits for the publish, as it must."""
    db = Database.open(db_path, engine="mm", trigger_cc="mvcc")
    try:
        with db.transaction():
            gadget = db.pnew(GroupGadget)
            gadget.Watch()
            ptr = gadget.ptr
        versions = db.trigger_system.versions
        real_publish = versions.publish
        publishing = threading.Event()
        activated = threading.Event()

        def held_publish(publishes):
            publishing.set()
            activated.wait(timeout=1.0)
            real_publish(publishes)

        monkeypatch.setattr(versions, "publish", held_publish)
        errors: list[Exception] = []

        def activate(session, tag):
            session.deref(ptr).Tagged(tag)

        def second():
            session = db.session("second")
            try:
                assert publishing.wait(timeout=30)
                session.run(lambda txn: activate(session, "second"))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                activated.set()
                session.close()

        thread = threading.Thread(target=second)
        thread.start()
        first = db.session("first")
        try:
            first.run(lambda txn: activate(first, "first"))
        finally:
            first.close()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not errors, errors

        (group_rid,) = versions.heads()
        head = versions.head_or_none(group_rid).image
        assert [serial for serial, _ in head.entries] == [0, 1, 2]
        assert head.next_serial == 3
        assert TriggerGroup.decode(db.storage.peek(group_rid)) == head
        with db.transaction():
            assert db.trigger_system.verify_integrity() == []
    finally:
        db.close()
