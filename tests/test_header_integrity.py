"""The object header, the trigger index and the groups must agree.

An object's header names its trigger group (the has-triggers flag plus
the group's rid) and the trigger index maps the object to the same group;
both are written at the first activation and cleared at the last.
``verify_integrity`` — and so fsck's ODE130 — reports each way they can
disagree.  Every case is fabricated by rewriting committed records
directly, on both engines.
"""

from __future__ import annotations

import pytest

from repro.fsck import fsck_database
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
    _other, other_group = _watched(db)
    _rewrite_header(db, ptr, FLAG_HAS_TRIGGERS, other_group)
    return f"object {ptr.rid}: header names group {other_group}, index entry says {group_rid}"


def _flagged_but_not_indexed(db, ptr, group_rid):
    with db.transaction() as txn:
        db.trigger_system.index._map.remove(txn, str(ptr.rid))
    return f"object {ptr.rid}: has-triggers flag set but no trigger-index entry"


def _indexed_but_flag_clear(db, ptr, group_rid):
    _rewrite_header(db, ptr, 0, -1)
    return (
        f"object {ptr.rid}: indexed under group {group_rid} but its "
        "has-triggers flag is clear"
    )


def _header_names_a_missing_group(db, ptr, group_rid):
    _rewrite_header(db, ptr, FLAG_HAS_TRIGGERS, MISSING_RID)
    return f"object {ptr.rid}: header names group {MISSING_RID}, which is missing"


CASES = [
    _header_names_another_group,
    _flagged_but_not_indexed,
    _indexed_but_flag_clear,
    _header_names_a_missing_group,
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
    assert expected in problems, problems
    report = fsck_database(db)
    assert expected in [finding.message for finding in report.by_code("ODE130")]
    assert not report.ok


def test_a_deleted_group_is_reported_from_the_header_too(any_engine_db):
    db = any_engine_db
    ptr, group_rid = _watched(db)
    with db.transaction() as txn:
        db.storage.delete(txn.txid, group_rid)
    with db.transaction():
        problems = db.trigger_system.verify_integrity()
    assert f"object {ptr.rid}: header names group {group_rid}, which is missing" in problems
    assert any("group record missing" in p for p in problems)


def test_a_first_activation_is_consistent_before_its_commit(any_engine_db):
    """Mid-transaction the index entry is written and the header is not:
    the object's dirty instance speaks for its header."""
    db = any_engine_db
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        assert db.trigger_system.verify_integrity() == []
