"""What a trigger-index lookup reads, and why what it skips is safe.

The index is the objects' headers: a header names the object's trigger
group, so a lookup reads the object (or finds it in the transaction) and
then its group, and an activation writes only the object and the group.
No shared record stands between two objects any more.  These tests pin
that on both engines, plus the rules that make the
:class:`~repro.objects.pmap.PersistentMap`'s memo sound (DESIGN §17):
the map is no longer the index, but it stays.
"""

from __future__ import annotations

import zlib

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


def _ids(db, machines):
    """The TriggerIds of a lookup's machines."""
    return tuple(TriggerId(db.name, m.rid, m.serial) for m in machines)


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


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_a_reopened_database_starts_with_an_empty_memo(db_path, engine):
    db = Database.open(db_path, engine=engine)
    pmap = PersistentMap(db, "reopened", bucket_count=4)
    with db.transaction() as txn:
        pmap.put(txn, "a", 1)
    with db.transaction() as txn:
        assert pmap.get(txn, "a") == 1  # learns the header and a's bucket
    assert pmap._known_header is not None and pmap._known_buckets
    db.simulate_crash()

    db = Database.open(db_path, engine=engine)
    try:
        pmap = PersistentMap(db, "reopened", bucket_count=4)
        assert pmap._known_header is None and pmap._known_buckets == {}
        with db.transaction() as txn:
            assert pmap.get(txn, "a") == 1
        with db.transaction():
            assert pmap._known_header == db.catalog_get("pmap:reopened")
    finally:
        db.close()


# -- what a lookup sees within a transaction ----------------------------------------


def test_lookup_follows_this_transactions_add_remove_and_drop_all(any_engine_db):
    db = any_engine_db
    index = db.trigger_system.index
    with db.transaction():
        ptr = db.pnew(IndexRelay, label="x").ptr

    def stored(txn):
        """The group *ptr*'s header names in *txn* (``None``: none, or
        the object is gone)."""
        obj = txn.cache.get(ptr.rid)
        return None if obj is None else obj.__dict__.get("_p_group")

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


# -- what a lookup and an activation wait for ---------------------------------------


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
    """A lookup by bare rid reads the object's header and its group; the
    catalog is not on its path."""
    db = any_engine_db
    index = db.trigger_system.index
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    found = []

    def look(_session, txn):
        found.append(len(index.lookup(txn, ptr.rid)))

    order, scheduler = _race(db, look)
    assert order == ["created", "waiter done", "committed"]
    assert ("block", "waiter") not in scheduler.log
    assert found == [1]


#: The deleted persistent index kept its entries in this many buckets.
_INDEX_BUCKETS = 32


def _same_bucket(db, count):
    """*count* fresh ``HotObject`` pointers whose entries the deleted
    persistent index would have kept in one bucket (``crc32`` of the rid's
    decimal key), and a watched one in that bucket too."""
    by_bucket: dict[int, list] = {}
    with db.transaction():
        for _ in range(8 * _INDEX_BUCKETS):
            ptr = db.pnew(HotObject).ptr
            bucket = zlib.crc32(str(ptr.rid).encode("utf-8")) % _INDEX_BUCKETS
            by_bucket.setdefault(bucket, []).append(ptr)
        watched, *fresh = next(p for p in by_bucket.values() if len(p) > count)
        db.deref(watched).Watch()
    return watched, fresh[:count]


def test_a_posting_never_waits_on_an_index_writer(any_engine_db):
    """A posting to a watched object does not wait for a first activation
    on another object, even one whose entry shared its bucket when the
    index was a map."""
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


CELLS = [("disk", "2pl"), ("disk", "mvcc"), ("mm", "2pl"), ("mm", "mvcc")]


@pytest.mark.parametrize("engine, cc", CELLS, ids=["-".join(cell) for cell in CELLS])
def test_first_activations_that_shared_a_bucket_never_wait(db_path, engine, cc):
    """Two first activations on objects whose entries shared one bucket of
    the persistent index: each writes only its own object and group, so
    neither waits for the other, however they interleave."""
    db = Database.open(db_path, engine=engine, trigger_cc=cc)
    try:
        _watched, (first, second) = _same_bucket(db, 2)
        index = db.trigger_system.index

        def activate(session, _txn):
            session.deref(second).Watch()

        order, scheduler = _race(db, activate, lambda s: s.deref(first).Watch())
        assert order == ["created", "waiter done", "committed"]
        assert ("block", "waiter") not in scheduler.log
        with db.transaction() as txn:
            assert len(index.lookup(txn, first.rid)) == len(index.lookup(txn, second.rid)) == 1
            assert db.trigger_system.verify_integrity() == []
    finally:
        db.close()


def test_a_lookup_that_must_read_the_catalog_still_waits(any_engine_db):
    """A map that has learned nothing reads the catalog for its header, so
    its lookup waits for a catalog writer as it always did."""
    db = any_engine_db
    pmap = PersistentMap(db, "waits", bucket_count=4)
    with db.transaction() as txn:
        pmap.put(txn, "a", 1)  # creates the map: X held, nothing learned
    assert pmap._known_header is None
    found = []

    def look(_session, txn):
        found.append(pmap.get(txn, "a"))

    order, scheduler = _race(db, look)
    assert order == ["created", "committed", "waiter done"]
    assert ("block", "waiter") in scheduler.log
    assert found == [1]
    with db.transaction():
        assert pmap._known_header == db.catalog_get("pmap:waits")


# -- what it costs -----------------------------------------------------------------


def test_the_canonical_transaction_reads_two_records_and_takes_three_locks(
    db_path,
):
    """Ping/Pong on one watched object (the ``canon_mm`` transaction):
    the object and the trigger group its header names — no index bucket,
    however many postings the transaction makes.  The pair leaves the
    perpetual machine where it was loaded, so the group, advanced twice
    and X-locked at the first move, is not written back at all: no
    storage write, no UPDATE and no COMMIT."""
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
        assert delta("storage.log_records") == 0
        assert delta("storage.writes") == 0
        assert delta("storage.unchanged_writes") == 0
        assert delta("posting.state_writes") == 2
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_a_reopened_database_finds_each_group_through_its_header(db_path, engine):
    """Nothing about the index lives outside the records: after a crash,
    a lookup by bare rid and a posting find the group the header names."""
    db = Database.open(db_path, engine=engine)
    with db.transaction():
        handle = db.pnew(HotObject)
        state = handle.Watch()
        ptr = handle.ptr
    db.simulate_crash()

    db = Database.open(db_path, engine=engine)
    try:
        index = db.trigger_system.index
        with db.transaction() as txn:
            assert _ids(db, index.lookup(txn, ptr.rid)) == (state,)
            assert dict(index.entries(txn)) == {ptr.rid: state.rid}
            db.deref(ptr).post_event("Ping")
            db.deref(ptr).post_event("Pong")
        assert db.trigger_system.stats.firings == 1
    finally:
        db.close()
