"""The object headers and the trigger groups must agree.

An object's header names its trigger group (the has-triggers flag plus
the group's rid) — that is the object's trigger-index entry — and the
group record names its anchor; both are written at the first activation
and cleared at the last.  ``verify_integrity`` — and so fsck's ODE130 —
reports each way they can disagree; a group no header names is fsck's
ODE131.  Every case is fabricated by rewriting committed records
directly, on both engines.
"""

from __future__ import annotations

import pytest

from repro.core.trigger_state import TriggerGroup
from repro.fsck import fsck_database
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_object, encode_object
from repro.workloads.locksim import HotObject

MISSING_RID = 10**12


def _watched(db):
    """A committed watched object and its group's rid."""
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    with db.transaction() as txn:
        return ptr, db.trigger_system.index.group(txn, ptr.rid).rid


def _rewrite_header(db, ptr, flags, group):
    """Overwrite *ptr*'s stored header, keeping its fields."""
    with db.transaction() as txn:
        type_name, fields, _flags, _group = decode_object(db.storage.read(txn.txid, ptr.rid))
        db.storage.write(txn.txid, ptr.rid, encode_object(type_name, fields, flags, group))


def _header_names_another_group(db, ptr, group_rid):
    other, other_group = _watched(db)
    _rewrite_header(db, ptr, FLAG_HAS_TRIGGERS, other_group)
    return [
        f"object {ptr.rid}: header names group {other_group}, anchored at {other.rid}",
        f"group {group_rid}: anchored at {ptr.rid}, whose header names group {other_group}",
    ]


def _group_anchored_at_another_object(db, ptr, group_rid):
    with db.transaction() as txn:
        other = db.pnew(HotObject).ptr
        group = TriggerGroup.decode(db.storage.read(txn.txid, group_rid))
        group.anchor = PersistentPtr(db.name, other.rid)
        db.storage.write(txn.txid, group_rid, group.encode())
    return [f"object {ptr.rid}: header names group {group_rid}, anchored at {other.rid}"]


def _header_names_a_missing_group(db, ptr, group_rid):
    _rewrite_header(db, ptr, FLAG_HAS_TRIGGERS, MISSING_RID)
    return [f"object {ptr.rid}: header names group {MISSING_RID}, which is missing"]


def _anchor_deleted(db, ptr, group_rid):
    with db.transaction() as txn:
        db.storage.delete(txn.txid, ptr.rid)
    return [f"group {group_rid}: anchor object {ptr.rid} deleted"]


CASES = [
    _header_names_another_group,
    _group_anchored_at_another_object,
    _header_names_a_missing_group,
    _anchor_deleted,
]


@pytest.mark.parametrize("damage", CASES, ids=[case.__name__.strip("_") for case in CASES])
def test_each_disagreement_is_reported_by_verify_integrity_and_fsck(any_engine_db, damage):
    db = any_engine_db
    ptr, group_rid = _watched(db)
    with db.transaction():
        assert db.trigger_system.verify_integrity() == []
    expected = damage(db, ptr, group_rid)
    with db.transaction():
        problems = db.trigger_system.verify_integrity()
    assert set(expected) <= set(problems), problems
    report = fsck_database(db)
    assert set(expected) <= {finding.message for finding in report.by_code("ODE130")}
    assert not report.ok


def test_a_group_no_header_names_is_an_orphan(any_engine_db):
    """A clear has-triggers flag leaves the group anchored at the object
    unnamed: not a disagreement ``verify_integrity`` reports, but fsck's
    orphaned group record (ODE131)."""
    db = any_engine_db
    ptr, group_rid = _watched(db)
    _rewrite_header(db, ptr, 0, -1)
    with db.transaction():
        assert db.trigger_system.verify_integrity() == []
    report = fsck_database(db)
    assert [finding.message for finding in report.by_code("ODE131")] == [
        f"rid {group_rid}: trigger group of object {ptr!r} (1 state(s)) "
        "is named by no object header"
    ]
    assert not report.by_code("ODE130")
    assert not report.ok


def test_a_deleted_group_is_reported_from_the_header_too(any_engine_db):
    db = any_engine_db
    ptr, group_rid = _watched(db)
    with db.transaction() as txn:
        db.storage.delete(txn.txid, group_rid)
    with db.transaction():
        problems = db.trigger_system.verify_integrity()
    assert problems == [f"object {ptr.rid}: header names group {group_rid}, which is missing"]


def test_a_header_naming_a_record_that_is_no_group_is_reported(any_engine_db):
    db = any_engine_db
    ptr, _group_rid = _watched(db)
    other, _other_group = _watched(db)
    _rewrite_header(db, ptr, FLAG_HAS_TRIGGERS, other.rid)
    with db.transaction():
        problems = db.trigger_system.verify_integrity()
    assert any(
        p.startswith(f"group {other.rid}: corrupt (") and p.endswith(f"named by object {ptr.rid}")
        for p in problems
    ), problems


def test_a_first_activation_is_consistent_before_its_commit(any_engine_db):
    """Mid-transaction the group is inserted and the header is not yet
    written: the object's dirty instance speaks for its header."""
    db = any_engine_db
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        assert db.trigger_system.verify_integrity() == []
