"""What a trigger-index lookup reads, and why what it skips is safe.

A :class:`~repro.objects.pmap.PersistentMap` remembers its header rid and
its allocated bucket rids, learned only from reads made under a shared
lock.  A posting reads no index at all — the object's header names its
trigger group — so only a lookup by bare rid (tooling, fsck) and an
activation touch the map.  These tests pin the rules that make both sound
(DESIGN §17 "What a map remembers") on both engines.
"""

from __future__ import annotations

import pytest

from repro.core.declarations import trigger
from repro.errors import TransactionAbort
from repro.objects.database import Database
from repro.objects.oid import NULL_PTR, PersistentPtr, TriggerId
from repro.objects.persistent import Persistent
from repro.objects.pmap import PersistentMap
from repro.objects.schema import field
from repro.sessions.scheduler import CooperativeScheduler
from repro.workloads.locksim import HotObject

#: (object label, trigger name) per action run, in firing order.
FIRED: list[tuple[str, str]] = []


def _note(self, ctx):
    FIRED.append((self.label, ctx.info.name))


def _arm_peer(self, ctx):
    _note(self, ctx)
    ctx.db.deref(self.peer).Count()


def _disarm_peer(self, ctx):
    _note(self, ctx)
    system = ctx.db.trigger_system
    for trigger_id, _state, info in system.active_triggers(self.peer):
        if info.name == "Count":
            system.deactivate(trigger_id)


class IndexRelay(Persistent):
    """``Go`` activates ``Count`` on the peer, ``Stop`` deactivates it."""

    label = field(str, default="")
    peer = field(PersistentPtr, default=NULL_PTR)

    __events__ = ["Go", "Stop", "Tick"]
    __triggers__ = [
        trigger("ArmPeer", "Go", action=_arm_peer, perpetual=True),
        trigger("DisarmPeer", "Stop", action=_disarm_peer, perpetual=True),
        trigger("Seen", "Tick", action=_note, perpetual=True),
        trigger("Count", "Tick", action=_note, perpetual=True),
    ]


class IndexPlain(Persistent):
    """Never carries a trigger."""

    value = field(int, default=0)


def _ids(db, machines):
    """The TriggerIds of a lookup's machines."""
    return tuple(TriggerId(db.name, m.rid, m.serial) for m in machines)


def _committed_header(db):
    with db.transaction():
        return db.catalog_get("pmap:trigger_index")


def _key_in_another_slot(pmap: PersistentMap, key: str) -> str:
    taken = pmap._bucket_for(key)
    return next(
        k for k in (f"k{i}" for i in range(100)) if pmap._bucket_for(k) != taken
    )


# -- the map's memo ------------------------------------------------------------


def test_a_header_created_by_an_aborted_transaction_is_not_remembered(
    any_engine_db,
):
    db = any_engine_db
    pmap = PersistentMap(db, "aborted-header", bucket_count=4)
    with db.transaction() as txn:
        pmap.put(txn, "a", 1)
        assert pmap.get(txn, "a") == 1
        raise TransactionAbort("roll back")
    assert pmap._known_header is None and pmap._known_buckets == {}
    with db.transaction() as txn:
        assert db.catalog_get("pmap:aborted-header") is None
        assert pmap.get(txn, "a", "absent") == "absent"
        pmap.put(txn, "a", 2)  # re-creates the map
    with db.transaction() as txn:
        assert dict(pmap.items(txn)) == {"a": 2}
        assert pmap._known_header == db.catalog_get("pmap:aborted-header")
        assert set(pmap._known_buckets.values()) == pmap.rids(txn) - {
            pmap._known_header
        }


def test_a_bucket_allocated_by_an_aborted_transaction_is_not_remembered(
    any_engine_db,
):
    db = any_engine_db
    pmap = PersistentMap(db, "aborted-bucket", bucket_count=4)
    other = _key_in_another_slot(pmap, "a")
    with db.transaction() as txn:
        pmap.put(txn, "a", 1)
    with db.transaction() as txn:
        assert pmap.get(txn, "a") == 1  # learns the header and a's bucket
    known = dict(pmap._known_buckets)
    assert pmap._bucket_for(other) not in known
    with db.transaction() as txn:
        pmap.put(txn, other, 2)  # allocates a bucket: X on it and the header
        assert pmap.get(txn, other) == 2
        raise TransactionAbort("roll back")
    assert pmap._known_buckets == known
    with db.transaction() as txn:
        assert pmap.get(txn, other, "absent") == "absent"
        pmap.put(txn, other, 3)
    with db.transaction() as txn:
        assert dict(pmap.items(txn)) == {"a": 1, other: 3}
        assert pmap._bucket_for(other) in pmap._known_buckets


def test_own_catalog_set_and_bucket_allocation_do_not_populate_the_memo(
    any_engine_db,
):
    db = any_engine_db
    pmap = PersistentMap(db, "own-writes", bucket_count=4)
    with db.transaction() as txn:
        pmap.put(txn, "a", 1)  # catalog_set and bucket allocation: X held
        assert pmap.get(txn, "a") == 1
        assert pmap.rids(txn)
        assert dict(pmap.items(txn)) == {"a": 1}
        assert pmap._known_header is None and pmap._known_buckets == {}
    # A second handle on the committed map, in a transaction that has
    # already X-locked the catalog with an unrelated catalog_set: the
    # header rid came from an X-held record, the bucket rid from an
    # S-held header.
    twin = PersistentMap(db, "own-writes", bucket_count=4)
    with db.transaction() as txn:
        db.catalog_set(txn, "unrelated", 7)
        assert twin.get(txn, "a") == 1
        assert twin._known_header is None
        assert list(twin._known_buckets) == [twin._bucket_for("a")]
    with db.transaction() as txn:
        assert twin.rids(txn)
        assert twin._known_header == db.catalog_get("pmap:own-writes")


# -- the index's per-transaction memo ----------------------------------------------


def test_lookup_follows_this_transactions_add_remove_and_drop_all(any_engine_db):
    db = any_engine_db
    index = db.trigger_system.index
    with db.transaction():
        ptr = db.pnew(IndexRelay, label="x").ptr

    def stored(txn):
        return index._map.get(txn, str(ptr.rid), None)

    with db.transaction() as txn:
        assert index.lookup(txn, ptr.rid) == ()
        seen = db.deref(ptr).Seen()
        assert _ids(db, index.lookup(txn, ptr.rid)) == (seen,)
        assert stored(txn) == seen.rid
        count = db.deref(ptr).Count()
        assert _ids(db, index.lookup(txn, ptr.rid)) == (seen, count)
        assert count.rid == seen.rid == stored(txn)  # one group, written once
        db.trigger_system.deactivate(seen)
        assert _ids(db, index.lookup(txn, ptr.rid)) == (count,)
        db.pdelete(ptr)
        assert index.lookup(txn, ptr.rid) == ()
        assert stored(txn) is None
    with db.transaction() as txn:
        assert index.lookup(txn, ptr.rid) == ()
        assert db.trigger_system.verify_integrity() == []


def test_post_many_sees_machines_an_action_changes_later_in_the_batch(
    any_engine_db,
):
    """An immediate action that activates, then deactivates, a machine on
    a later object of the same batch: ``post_many`` advances and fires
    exactly what one ``post_event`` per item does."""
    db = any_engine_db
    system = db.trigger_system
    script = [
        ("b", "Tick"), ("a", "Go"), ("b", "Tick"), ("b", "Tick"),
        ("a", "Stop"), ("b", "Tick"),
    ]

    def pair():
        with db.transaction():
            b = db.pnew(IndexRelay, label="b")
            a = db.pnew(IndexRelay, label="a", peer=b.ptr)
            a.ArmPeer()
            a.DisarmPeer()
            b.Seen()
        return {"a": a.ptr, "b": b.ptr}

    def run(post):
        ptrs = pair()
        FIRED.clear()
        before = system.stats.snapshot()
        with db.transaction():
            post(ptrs)
        delta = system.stats.diff(before)
        del delta["batched"]
        return list(FIRED), delta, ptrs

    def one_by_one(ptrs):
        for who, event in script:
            db.deref(ptrs[who]).post_event(event)

    def batched(ptrs):
        assert db.post_many([(ptrs[who], event) for who, event in script]) == 8

    fired, delta, _ = run(one_by_one)
    fired_batched, delta_batched, ptrs = run(batched)
    assert fired == fired_batched == [
        ("b", "Seen"),
        ("a", "ArmPeer"),
        ("b", "Seen"), ("b", "Count"),
        ("b", "Seen"), ("b", "Count"),
        ("a", "DisarmPeer"),
        ("b", "Seen"),
    ]
    assert delta == delta_batched
    with db.transaction():
        assert [info.name for _, _, info in system.active_triggers(ptrs["b"])] == [
            "Seen"
        ]


# -- what a remembered lookup no longer waits for ------------------------------------


def _write_catalog(session):
    db = session.db
    db.catalog_set(db.txn_manager.current(), "race", 0)


def _race(db, waiter_body, writer_body=_write_catalog):
    """A writer transaction runs *writer_body* — by default it X-locks the
    catalog — and yields while holding its locks; *waiter_body* runs in a
    second session meanwhile.  Returns the event order and the scheduler."""
    order = []
    creator, waiter = db.session("creator"), db.session("waiter")
    scheduler = CooperativeScheduler()

    def create():
        with creator.transaction():
            writer_body(creator)
            order.append("created")
            scheduler.yield_now()
        order.append("committed")

    def wait():
        with waiter.transaction() as txn:
            waiter_body(waiter, txn)
        order.append("waiter done")

    scheduler.spawn(create, "creator", session=creator)
    scheduler.spawn(wait, "waiter", session=waiter)
    scheduler.run()
    creator.close()
    waiter.close()
    return order, scheduler


def test_a_remembered_lookup_does_not_wait_for_a_catalog_writer(any_engine_db):
    db = any_engine_db
    index = db.trigger_system.index
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    with db.transaction() as txn:
        # By bare rid, the object not dereferenced: reads its bucket, and
        # so learns the index's rids.
        assert len(index.lookup(txn, ptr.rid)) == 1
    assert index._map._known_header is not None
    found = []

    def look(_session, txn):
        found.append(len(index.lookup(txn, ptr.rid)))

    order, scheduler = _race(db, look)
    assert order == ["created", "waiter done", "committed"]
    assert ("block", "waiter") not in scheduler.log
    assert found == [1]


def _same_bucket(db, count):
    """*count* fresh ``HotObject`` pointers whose index entries share one
    bucket, and a watched one in that bucket too (so it is allocated)."""
    index = db.trigger_system.index
    by_bucket: dict[int, list] = {}
    with db.transaction():
        for _ in range(8 * index._map.bucket_count):
            ptr = db.pnew(HotObject).ptr
            by_bucket.setdefault(index._map._bucket_for(str(ptr.rid)), []).append(ptr)
        watched, *fresh = next(p for p in by_bucket.values() if len(p) > count)
        db.deref(watched).Watch()
    return watched, fresh[:count]


def test_a_posting_never_waits_on_an_index_writer(any_engine_db):
    """A first activation holds the bucket X until commit; a posting to
    another watched object in that bucket reads no bucket (a lookup by
    bare rid would), so it does not wait."""
    db = any_engine_db
    watched, (fresh,) = _same_bucket(db, 1)
    stats = db.trigger_system.stats
    firings = stats.firings

    def post(session, _txn):
        handle = session.deref(watched)
        handle.post_event("Ping")
        handle.post_event("Pong")

    order, scheduler = _race(db, post, lambda s: s.deref(fresh).Watch())
    assert order == ["created", "waiter done", "committed"]
    assert ("block", "waiter") not in scheduler.log
    assert stats.firings == firings + 1


def test_an_activation_still_waits_on_an_index_writer(any_engine_db):
    """Two first activations whose objects share a bucket: the second
    writes the bucket too, so it waits for the first to commit."""
    db = any_engine_db
    _watched, (first, second) = _same_bucket(db, 2)
    index = db.trigger_system.index

    def activate(session, _txn):
        session.deref(second).Watch()

    order, scheduler = _race(db, activate, lambda s: s.deref(first).Watch())
    assert order == ["created", "committed", "waiter done"]
    assert ("block", "waiter") in scheduler.log
    with db.transaction() as txn:
        assert len(index.lookup(txn, first.rid)) == len(index.lookup(txn, second.rid)) == 1
        assert db.trigger_system.verify_integrity() == []


def test_a_lookup_that_must_read_the_catalog_still_waits(any_engine_db):
    """Nothing learned yet and the object's bucket unallocated: the lookup
    reads the catalog, so it waits for the writer as it always did."""
    db = any_engine_db
    index = db.trigger_system.index
    with db.transaction():
        watched = db.pnew(HotObject)
        watched.Watch()  # creates the index map: X held, nothing learned
        taken = index._map._bucket_for(str(watched.ptr.rid))
        plain = next(
            ptr
            for ptr in (db.pnew(IndexPlain).ptr for _ in range(64))
            if index._map._bucket_for(str(ptr.rid)) != taken
        )
    assert index._map._known_header is None
    found = []

    def look(_session, txn):
        found.append(index.lookup(txn, plain.rid))

    order, scheduler = _race(db, look)
    assert order == ["created", "committed", "waiter done"]
    assert ("block", "waiter") in scheduler.log
    assert found == [()]
    assert index._map._known_header == _committed_header(db)


# -- what it costs -----------------------------------------------------------------


def test_the_canonical_transaction_reads_two_records_and_takes_three_locks(
    db_path,
):
    """Ping/Pong on one watched object (the ``canon_mm`` transaction):
    the object and the trigger group its header names — no index bucket,
    however many postings the transaction makes — and the group, advanced
    twice, is written once, at commit: one UPDATE and the COMMIT."""
    db = Database.open(db_path, engine="mm")
    try:
        with db.transaction():
            handle = db.pnew(HotObject)
            handle.Watch()
            ptr = handle.ptr

        def canonical():
            with db.transaction():
                handle = db.deref(ptr)
                handle.post_event("Ping")
                handle.post_event("Pong")

        canonical()
        before = db.metrics.snapshot()
        canonical()
        after = db.metrics.snapshot()

        def delta(name):
            return after[name] - before[name]

        assert delta("storage.reads") == 2
        assert delta("locks.s_acquired") + delta("locks.x_acquired") == 3
        assert delta("storage.log_records") == 2
        assert delta("storage.writes") == 1
        assert delta("posting.state_writes") == 2
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_a_reopened_database_starts_with_an_empty_memo(db_path, engine):
    db = Database.open(db_path, engine=engine)
    with db.transaction():
        handle = db.pnew(HotObject)
        state = handle.Watch()
        ptr = handle.ptr
    with db.transaction() as txn:
        assert _ids(db, db.trigger_system.index.lookup(txn, ptr.rid)) == (state,)
    assert db.trigger_system.index._map._known_buckets
    db.simulate_crash()

    db = Database.open(db_path, engine=engine)
    try:
        index = db.trigger_system.index
        assert index._map._known_header is None
        assert index._map._known_buckets == {}
        with db.transaction() as txn:
            assert _ids(db, index.lookup(txn, ptr.rid)) == (state,)
            db.deref(ptr).post_event("Ping")
        assert index._map._known_header == _committed_header(db)
    finally:
        db.close()
