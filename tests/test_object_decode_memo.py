"""``decode_object`` decodes each distinct object record once.

A dereference that misses the transaction's cache reads the object's
record and decodes it; :func:`repro.objects.serialize.decode_object`
keeps what each record decoded to, keyed by the whole record's bytes
(DESIGN.md §17, "The read path").  What must hold: the memo is
invisible — every call returns what a cold decode returns, every corrupt
record still raises, each caller gets its own fields dict — and it stays
bounded.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError, TransactionAbort
from repro.fsck import fsck_database
from repro.objects import serialize
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_object, encode_object
from repro.workloads.locksim import HotObject

_I64 = st.integers(-(2**63), 2**63 - 1)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _I64,
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.builds(PersistentPtr, st.text(max_size=6), _I64),
)
#: ``True`` and ``1`` differ only in type, ``-0.0`` and ``0.0`` only in sign.
_EDGES = {"true": True, "one": 1, "neg_zero": -0.0, "zero": 0.0, "none": None, "e": ""}


@pytest.fixture(autouse=True)
def cold_memo():
    serialize._OBJECT_MEMO.clear()
    serialize._UNSHAREABLE.clear()
    yield


def _cold(raw: bytes):
    """``decode_object(raw)`` with the memo empty, or the
    ``SerializationError`` it raises."""
    memo, unshareable = dict(serialize._OBJECT_MEMO), dict(serialize._UNSHAREABLE)
    serialize._OBJECT_MEMO.clear()
    serialize._UNSHAREABLE.clear()
    try:
        return decode_object(raw)
    except SerializationError as exc:
        return exc
    finally:
        serialize._OBJECT_MEMO.update(memo)
        serialize._UNSHAREABLE.update(unshareable)


def _same(a, b) -> bool:
    """Equal, type for type, a float's sign and NaN included."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return repr(a) == repr(b) and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def _identical(got, want) -> bool:
    (got_name, got_fields, *got_head), (name, fields, *head) = got, want
    return (
        (got_name, got_head) == (name, head)
        and list(got_fields) == list(fields)
        and all(_same(got_fields[key], fields[key]) for key in fields)
    )


@settings(max_examples=80, deadline=None)
@given(
    fields=st.dictionaries(st.text(max_size=6), _SCALARS, max_size=5),
    flags=st.sampled_from([0, FLAG_HAS_TRIGGERS]),
    group=_I64,
)
@example(fields=_EDGES, flags=0, group=0)
@example(fields={}, flags=FLAG_HAS_TRIGGERS, group=-(2**63))
def test_a_warm_decode_equals_a_cold_one(fields, flags, group):
    raw = encode_object("MemoScalar", fields, flags, group)
    cold = _cold(raw)
    decode_object(raw)  # warms the memo
    assert raw in serialize._OBJECT_MEMO
    warm = decode_object(raw)
    assert _identical(warm, cold)
    assert _identical(warm, ("MemoScalar", fields, flags, group if flags else -1))


def test_each_caller_gets_its_own_fields_dict():
    raw = encode_object("MemoScalar", {"n": 3, "s": "x"})
    first = decode_object(raw)[1]
    second = decode_object(raw)[1]  # a memo hit
    (_name, memoized, _flags, _group) = serialize._OBJECT_MEMO[raw]
    assert first == second == memoized == {"n": 3, "s": "x"}
    assert len({id(first), id(second), id(memoized)}) == 3
    first["n"] = 99
    second["extra"] = True
    assert decode_object(raw)[1] == {"n": 3, "s": "x"}


@pytest.mark.parametrize(
    "value", [[1, 2], {"k": 1}, (1, 2), [], {}], ids=["list", "dict", "tuple", "empty-list", "empty-dict"]
)
def test_a_record_holding_a_container_is_never_memoized(value):
    raw = encode_object("MemoHolder", {"n": 1, "c": value})
    first = decode_object(raw)[1]
    second = decode_object(raw)[1]
    assert raw not in serialize._OBJECT_MEMO
    assert first == second == {"n": 1, "c": value}
    assert first["c"] is not second["c"]
    # The type is now unshareable: even its all-scalar records are not kept.
    assert "MemoHolder" in serialize._UNSHAREABLE
    scalar = encode_object("MemoHolder", {"n": 2})
    assert decode_object(scalar)[1] == {"n": 2}
    assert not serialize._OBJECT_MEMO


def test_a_record_over_the_size_bound_is_never_memoized():
    raw = encode_object("MemoScalar", {"s": "x" * serialize._OBJECT_MEMO_BYTES})
    assert len(raw) > serialize._OBJECT_MEMO_BYTES
    assert decode_object(raw)[1] == {"s": "x" * serialize._OBJECT_MEMO_BYTES}
    assert decode_object(raw)[1] == {"s": "x" * serialize._OBJECT_MEMO_BYTES}
    assert not serialize._OBJECT_MEMO


def test_trailing_bytes_raise_and_are_never_remembered():
    raw = encode_object("MemoScalar", {"a": 1})
    decode_object(raw)
    for tail in (b"\0", b"junk", raw):
        with pytest.raises(SerializationError, match="the fields span"):
            decode_object(raw + tail)
        assert raw + tail not in serialize._OBJECT_MEMO


@settings(max_examples=30, deadline=None)
@given(
    fields=st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
    flags=st.sampled_from([0, FLAG_HAS_TRIGGERS]),
)
@example(fields=_EDGES, flags=0)
@example(fields={"n": 7}, flags=FLAG_HAS_TRIGGERS)
def test_a_flipped_or_truncated_copy_of_a_memoized_record_decodes_as_if_cold(
    fields, flags
):
    raw = encode_object("MemoScalar", fields, flags, 5)
    decode_object(raw)
    assert raw in serialize._OBJECT_MEMO
    for end in range(len(raw)):
        with pytest.raises(SerializationError):
            decode_object(raw[:end])
    for pos in range(len(raw)):
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[pos] ^= flip
            bad = bytes(bad)
            cold = _cold(bad)
            if isinstance(cold, SerializationError):
                with pytest.raises(SerializationError):
                    decode_object(bad)
            else:
                assert _identical(decode_object(bad), cold)


def test_the_memo_stays_within_its_bound():
    bound = serialize._OBJECT_MEMO_ENTRIES
    for i in range(bound + 1):
        decode_object(encode_object("MemoScalar", {"i": i}))
        assert len(serialize._OBJECT_MEMO) <= bound
    assert len(serialize._OBJECT_MEMO) == 1  # emptied when full, then refilled


def test_the_unshareable_set_stays_within_its_bound():
    bound = serialize._UNSHAREABLE_MAX
    for i in range(bound + 1):
        decode_object(encode_object(f"MemoHolder{i}", {"c": [i]}))
        assert len(serialize._UNSHAREABLE) <= bound
    assert len(serialize._UNSHAREABLE) == 1


def test_threads_decoding_at_once_keep_the_bound_and_get_their_own_dicts():
    """Sessions dereference on several threads: more decoding threads than
    cores, switching often, over more distinct records than the memo holds
    and a shared one each thread scribbles on."""
    bound = serialize._OBJECT_MEMO_ENTRIES
    per_thread = bound // 2 + 1  # 4 threads pass the bound twice
    shared = encode_object("MemoScalar", {"floor": 3})
    problems: list[str] = []

    def work(worker: int) -> None:
        for i in range(per_thread):
            n = worker * per_thread + i
            _name, fields, _flags, _group = decode_object(
                encode_object("MemoScalar", {"n": n})
            )
            mine = decode_object(shared)[1]
            if fields != {"n": n} or mine != {"floor": 3}:
                problems.append(f"worker {worker} decoded {fields}, {mine}")
            mine["floor"] = worker
            if len(serialize._OBJECT_MEMO) > bound:
                problems.append(f"{len(serialize._OBJECT_MEMO)} records")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(serialize._OBJECT_MEMO) <= bound


# ---------------------------------------------------------------------------
# The engine reads what the bytes say, whatever the memo holds
# ---------------------------------------------------------------------------


class MemoCounter(Persistent):
    n = field(int, default=0)
    label = field(str, default="")


def _committed(db, **values):
    """A committed ``MemoCounter``, dereferenced once more so its image
    is memoized."""
    with db.transaction():
        ptr = db.pnew(MemoCounter, **values).ptr
    with db.transaction() as txn:
        db.deref(ptr)
        assert db.storage.read(txn.txid, ptr.rid) in serialize._OBJECT_MEMO
    return ptr


def _n(db, ptr) -> int:
    with db.transaction():
        return db.deref(ptr).n


def test_a_written_then_aborted_change_reads_as_before(any_engine_db):
    db = any_engine_db
    ptr = _committed(db, n=1)
    with db.transaction() as txn:
        db.deref(ptr).n = 2
        db.flush_transaction(txn)  # the change reaches storage ...
        written = db.storage.read(txn.txid, ptr.rid)
        assert decode_object(written)[1]["n"] == 2
        assert written in serialize._OBJECT_MEMO
        raise TransactionAbort("... and is undone")
    assert _n(db, ptr) == 1


def test_a_second_session_reads_a_committed_change(any_engine_db):
    db = any_engine_db
    ptr = _committed(db, n=1)
    reader, writer = db.session("reader"), db.session("writer")
    try:
        with reader.transaction():
            assert reader.deref(ptr).n == 1
        with writer.transaction():
            writer.deref(ptr).n = 7
        with reader.transaction():
            assert reader.deref(ptr).n == 7
        with writer.transaction():
            writer.deref(ptr).n = 1  # back to a memoized image
        with reader.transaction():
            assert reader.deref(ptr).n == 1
    finally:
        reader.close()
        writer.close()


def test_recovery_undo_restores_the_older_image(any_engine_db):
    db = any_engine_db
    path, engine = db.path, db.engine
    ptr = _committed(db, n=1)
    # A bare begin makes no session ambient, so the transaction the crash
    # leaves open leaves nothing on this thread's ambient stack.
    txn = db.txn_manager.begin()
    db.deref(ptr).n = 2
    db.flush_transaction(txn)
    decode_object(db.storage.read(txn.txid, ptr.rid))  # the loser's image, memoized
    db.storage._wal.force()  # the loser's update is durable: recovery must undo it
    db.simulate_crash()
    db = Database.open(path, engine=engine)
    try:
        assert db.storage.last_recovery.undo_applied >= 1
        assert _n(db, ptr) == 1
    finally:
        db.close()


def test_a_memo_hit_still_drops_a_field_the_class_no_longer_declares(any_engine_db):
    db = any_engine_db

    class MemoEvolving(Persistent):
        kept = field(int, default=0)
        dropped = field(int, default=0)

    with db.transaction():
        ptr = db.pnew(MemoEvolving, kept=1, dropped=2).ptr
    with db.transaction():
        assert db.deref(ptr).obj.__dict__["dropped"] == 2  # memoized

    class MemoEvolving(Persistent):  # noqa: F811 - the schema evolves
        kept = field(int, default=0)

    with db.transaction() as txn:
        assert db.storage.read(txn.txid, ptr.rid) in serialize._OBJECT_MEMO
        obj = db.deref(ptr).obj
        assert type(obj) is MemoEvolving
        assert obj.kept == 1
        assert "dropped" not in obj.__dict__


def test_a_record_corrupted_after_it_was_memoized(any_engine_db):
    """fsck and the next dereference both judge the stored bytes."""
    db = any_engine_db
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    with db.transaction() as txn:
        group_rid = db.deref(ptr).obj.__dict__["_p_group"]
        raw = db.storage.read(txn.txid, ptr.rid)
        assert raw in serialize._OBJECT_MEMO
    assert fsck_database(db).ok
    type_name, fields, flags, _group = decode_object(raw)
    missing = 10**12
    with db.transaction() as txn:
        db.storage.write(txn.txid, ptr.rid, encode_object(type_name, fields, flags, missing))
    report = fsck_database(db)
    assert f"object {ptr.rid}: header names group {missing}, which is missing" in {
        finding.message for finding in report.by_code("ODE130")
    }
    with db.transaction():
        assert db.deref(ptr).obj.__dict__["_p_group"] == missing
    with db.transaction() as txn:
        db.storage.write(txn.txid, ptr.rid, raw + b"junk")
    with pytest.raises(SerializationError, match="the fields span"):
        with db.transaction():
            db.deref(ptr)
    with db.transaction() as txn:
        db.storage.write(txn.txid, ptr.rid, raw)
    assert fsck_database(db).ok
    with db.transaction():
        assert db.deref(ptr).obj.__dict__["_p_group"] == group_rid
