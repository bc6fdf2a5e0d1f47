"""A class's extent is a scan of its object records under one extent lock.

``Database.objects(cls)`` S-locks the symbolic resource ``extent:<Class>``
for *cls* (and, by default, each registered subclass), then makes one
pass over the records and keeps those whose stored type name is listed.
``pnew`` and ``pdelete`` X-lock their own class's extent, so a scan sees
exactly the committed objects plus its own transaction's changes: a
concurrent ``pnew``/``pdelete`` of a listed class waits for the scan's
commit, and a scan waits for one in flight (DESIGN §17 "Extents").  These
tests pin that on the cooperative scheduler, on both engines, and pin
that population writes nothing but the objects themselves.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import TransactionAbort
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions.scheduler import CooperativeScheduler
from repro.tools import describe_objects
from repro.workloads.locksim import HotObject


class ExtentItem(Persistent):
    name = field(str, default="")
    qty = field(int, default=0)


class SpecialExtentItem(ExtentItem):
    rarity = field(str, default="common")


class UnrelatedRecord(Persistent):
    value = field(int, default=0)


class PopulationOne(Persistent):
    """One int: the population tests' object."""

    n = field(int, default=0)


def _names(handles) -> list[str]:
    return sorted(handle.name for handle in handles)


def _race(db, holder_body, other_body, *, abort=False):
    """The holder transaction runs *holder_body(session, pause)*, pauses
    once more holding its locks, then commits (or aborts); *other_body*
    runs in a second session meanwhile.  Returns the event order and the
    scheduler's log."""
    order = []
    holder, other = db.session("holder"), db.session("other")
    scheduler = CooperativeScheduler()

    def hold():
        with holder.transaction():
            holder_body(holder, scheduler.yield_now)
            order.append("holder done")
            scheduler.yield_now()
            if abort:
                raise TransactionAbort("roll back")
        order.append("holder ended")

    def run_other():
        with other.transaction():
            other_body(other)
        order.append("other done")

    scheduler.spawn(hold, "holder", session=holder)
    scheduler.spawn(run_other, "other", session=other)
    scheduler.run()
    holder.close()
    other.close()
    return order, scheduler.log


_WAITED = ["holder done", "holder ended", "other done"]
_DID_NOT_WAIT = ["holder done", "other done", "holder ended"]


def _stock(db):
    with db.transaction():
        db.pnew(ExtentItem, name="a")
        db.pnew(SpecialExtentItem, name="b")
        return db.pnew(ExtentItem, name="c").ptr


def test_a_scan_makes_a_concurrent_pnew_wait_for_its_commit(any_engine_db):
    db = any_engine_db
    _stock(db)
    seen = []

    def scan(session, _pause):
        seen.append(_names(session.objects(ExtentItem)))

    order, log = _race(db, scan, lambda s: s.pnew(ExtentItem, name="late"))
    assert order == _WAITED
    assert ("block", "other") in log
    assert seen == [["a", "b", "c"]]
    with db.transaction():
        assert _names(db.objects(ExtentItem)) == ["a", "b", "c", "late"]


@pytest.mark.parametrize("abort", [False, True], ids=["commit", "abort"])
def test_a_scan_waits_for_an_uncommitted_pnew_and_sees_its_outcome(
    any_engine_db, abort
):
    db = any_engine_db
    _stock(db)
    seen = []

    def scan(session):
        seen.append(_names(session.objects(ExtentItem)))

    order, log = _race(
        db, lambda s, _pause: s.pnew(ExtentItem, name="new"), scan, abort=abort
    )
    assert order == _WAITED
    assert ("block", "other") in log
    assert seen == [["a", "b", "c"] if abort else ["a", "b", "c", "new"]]


@pytest.mark.parametrize("abort", [False, True], ids=["commit", "abort"])
def test_a_scan_waits_for_an_uncommitted_pdelete_and_sees_its_outcome(
    any_engine_db, abort
):
    db = any_engine_db
    doomed = _stock(db)
    seen = []

    def scan(session):
        seen.append(_names(session.objects(ExtentItem)))

    order, log = _race(db, lambda s, _pause: s.pdelete(doomed), scan, abort=abort)
    assert order == _WAITED
    assert ("block", "other") in log
    assert seen == [["a", "b", "c"] if abort else ["a", "b"]]


@pytest.mark.parametrize("derived", [True, False], ids=["derived", "base-only"])
def test_a_scan_blocks_a_subclass_pnew_only_when_it_lists_subclasses(
    any_engine_db, derived
):
    db = any_engine_db
    _stock(db)

    def scan(session, _pause):
        list(session.objects(ExtentItem, include_derived=derived))

    order, log = _race(db, scan, lambda s: s.pnew(SpecialExtentItem, name="d"))
    assert order == (_WAITED if derived else _DID_NOT_WAIT)
    assert (("block", "other") in log) is derived


def test_a_pnew_of_an_unrelated_class_never_waits(any_engine_db):
    db = any_engine_db
    _stock(db)

    def scan(session, _pause):
        list(session.objects(ExtentItem))

    order, log = _race(db, scan, lambda s: s.pnew(UnrelatedRecord))
    assert order == _DID_NOT_WAIT
    assert ("block", "other") not in log
    # Nor does a scan wait for an unrelated pnew in flight, whose
    # uncommitted record it passes over.
    seen = []

    def scan_other(session):
        seen.append(_names(session.objects(ExtentItem)))

    order, log = _race(db, lambda s, _pause: s.pnew(UnrelatedRecord), scan_other)
    assert order == _DID_NOT_WAIT
    assert ("block", "other") not in log
    assert seen == [["a", "b", "c"]]


def test_two_scans_in_one_transaction_return_the_same_set(any_engine_db):
    db = any_engine_db
    _stock(db)
    scans = []

    def scan_twice(session, pause):
        scans.append([h.ptr for h in session.objects(ExtentItem)])
        pause()  # the other session's pnew tries to run here
        scans.append([h.ptr for h in session.objects(ExtentItem)])

    def churn(session):
        session.pnew(ExtentItem, name="late")

    order, log = _race(db, scan_twice, churn)
    assert order == _WAITED
    assert ("block", "other") in log
    assert len(scans) == 2 and scans[0] == scans[1]
    assert [p.rid for p in scans[0]] == sorted(p.rid for p in scans[0])


def test_only_object_records_are_listed_among_every_internal_record_kind(disk_db):
    """Catalog, trigger group, B-tree header and node, phoenix queue: each
    is on disk, and neither ``objects()`` nor
    the dump tool lists any of them."""
    db = disk_db
    with db.transaction() as txn:
        items = [db.pnew(ExtentItem, name=f"i{i}", qty=i).ptr for i in range(5)]
        special = db.pnew(SpecialExtentItem, name="s").ptr
        hot = db.pnew(HotObject)
        hot.Watch()  # a trigger group
        db.create_index(ExtentItem, "qty")  # a B-tree header and node
        db.phoenix.enqueue(txn, "never-handled", {"note": "stays queued"})
    with db.transaction() as txn:
        catalog = db._read_catalog(txn)
        assert {"index:ExtentItem.qty", "phoenix_queue"} <= set(catalog)
        assert [h.ptr for h in db.objects(ExtentItem)] == items + [special]
        assert [h.ptr for h in db.objects(HotObject)] == [hot.ptr]
        lines = describe_objects(db)
    created = sorted(items + [special, hot.ptr], key=lambda p: p.rid)
    assert [line.split(":")[0] for line in lines] == [
        f"rid {ptr.rid}" for ptr in created
    ]
    # The catalog, group, B-tree header and node, and the phoenix queue
    # are all there.
    assert sum(1 for _ in db.storage.peek_scan()) >= len(created) + 5


# -- population is linear ---------------------------------------------------------


def test_one_pnew_is_one_insert_and_one_log_record(any_engine_db):
    """A trigger-free object's ``pnew`` writes its record and nothing
    else: no extent bucket to read or rewrite, no catalog to read."""
    db = any_engine_db
    with db.transaction():
        db.pnew(PopulationOne)  # the transaction's one-off reads happen here
        before = db.metrics.snapshot()
        db.pnew(PopulationOne, n=1)
        after = db.metrics.snapshot()

    def delta(name):
        return after[name] - before[name]

    assert delta("storage.inserts") == 1
    assert delta("storage.log_records") == 1
    assert delta("storage.writes") == 0
    assert delta("storage.reads") == 0


#: Objects the size bound populates, and its limit.  Measured at 192 512
#: bytes (47 pages of 4 KiB); the limit leaves more than 2x headroom.
#: While each class kept a bucketed extent map, its buckets outgrew a page
#: near 5 000 objects and the same population took 4.4 MB.
POPULATION = 5_000
DATA_FILE_LIMIT = 400_000


def test_a_one_int_population_stays_under_its_data_file_bound(db_path):
    db = Database.open(db_path, engine="disk")
    try:
        for start in range(0, POPULATION, 100):
            with db.transaction():
                for n in range(start, start + 100):
                    db.pnew(PopulationOne, n=n)
    finally:
        db.close()
    assert os.path.getsize(db_path + ".data") < DATA_FILE_LIMIT
