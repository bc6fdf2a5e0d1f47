"""Database tests: pnew/deref/pdelete, caching, extents, catalog, pmap."""

import inspect

import pytest

from repro.errors import (
    DanglingPointerError,
    DatabaseClosedError,
    DatabaseError,
    NoActiveTransactionError,
    ObjectError,
    TransactionAbort,
)
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.pmap import PersistentMap
from repro.objects.schema import field
from repro.storage.disk import DiskStorageManager
from repro.storage.mainmem import MainMemoryStorageManager


class Item(Persistent):
    name = field(str, default="")
    qty = field(int, default=0)


class SpecialItem(Item):
    rarity = field(str, default="common")


class TestLifecycle:
    def test_pnew_returns_handle_with_ptr(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(Item, name="widget", qty=3)
            assert handle.ptr.db_name == db.name
            assert handle.name == "widget"

    def test_deref_roundtrip_across_transactions(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item, name="widget", qty=3).ptr
        with db.transaction():
            loaded = db.deref(ptr)
            assert loaded.name == "widget"
            assert loaded.qty == 3

    def test_deref_same_rid_shares_instance_within_txn(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item, name="x").ptr
        with db.transaction():
            a = db.deref(ptr)
            b = db.deref(ptr)
            assert a.obj is b.obj

    def test_field_write_through_handle_persists(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item, name="x", qty=1).ptr
        with db.transaction():
            db.deref(ptr).qty = 42
        with db.transaction():
            assert db.deref(ptr).qty == 42

    def test_write_undeclared_field_through_handle_raises(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(Item)
            with pytest.raises(AttributeError):
                handle.bogus = 1

    def test_method_call_through_handle_marks_dirty(self, any_engine_db):
        db = any_engine_db

        class Counter(Persistent):
            n = field(int, default=0)

            def bump(self):
                self.n += 1

        with db.transaction():
            ptr = db.pnew(Counter).ptr
        with db.transaction():
            db.deref(ptr).bump()
        with db.transaction():
            assert db.deref(ptr).n == 1

    def test_abort_discards_changes(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item, qty=1).ptr
        txn = db.txn_manager.begin()
        db.deref(ptr).qty = 99
        db.txn_manager.abort(txn)
        with db.transaction():
            assert db.deref(ptr).qty == 1

    def test_pdelete_removes_object(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item).ptr
        with db.transaction():
            db.pdelete(ptr)
        with db.transaction():
            with pytest.raises(DanglingPointerError):
                db.deref(ptr)

    def test_deref_null_raises(self, any_engine_db):
        with any_engine_db.transaction():
            with pytest.raises(DanglingPointerError):
                any_engine_db.deref(PersistentPtr("", -1))

    def test_pnew_non_persistent_class_raises(self, any_engine_db):
        with any_engine_db.transaction():
            with pytest.raises(ObjectError):
                any_engine_db.pnew(int)

    def test_operations_need_transaction(self, any_engine_db):
        with pytest.raises(NoActiveTransactionError):
            any_engine_db.pnew(Item)


class TestClusters:
    def test_objects_iterates_cluster(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            names = {db.pnew(Item, name=f"i{i}").ptr.rid: f"i{i}" for i in range(10)}
        with db.transaction():
            found = {h.ptr.rid: h.name for h in db.objects(Item)}
            assert found == names

    def test_objects_includes_derived_by_default(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            db.pnew(Item, name="base")
            db.pnew(SpecialItem, name="special")
        with db.transaction():
            all_names = sorted(h.name for h in db.objects(Item))
            assert all_names == ["base", "special"]
            only_base = [h.name for h in db.objects(Item, include_derived=False)]
            assert only_base == ["base"]

    def test_pdelete_removes_from_cluster(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            keep = db.pnew(Item, name="keep").ptr
            doomed = db.pnew(Item, name="doomed").ptr
        with db.transaction():
            db.pdelete(doomed)
        with db.transaction():
            assert [h.ptr for h in db.objects(Item)] == [keep]

    def test_cluster_persists_across_reopen(self, db_path):
        db = Database.open(db_path, engine="disk")
        with db.transaction():
            db.pnew(Item, name="persisted")
        db.close()
        db2 = Database.open(db_path, engine="disk")
        with db2.transaction():
            assert [h.name for h in db2.objects(Item)] == ["persisted"]
        db2.close()

    def test_objects_sees_own_uncommitted_pnew_and_misses_own_pdelete(
        self, any_engine_db
    ):
        db = any_engine_db
        with db.transaction():
            doomed = db.pnew(Item, name="doomed").ptr
            db.pnew(Item, name="keep")
        with db.transaction():
            mine = db.pnew(SpecialItem, name="mine").ptr
            db.pdelete(doomed)
            assert sorted(h.name for h in db.objects(Item)) == ["keep", "mine"]
            assert [h.ptr for h in db.objects(SpecialItem)] == [mine]
            raise TransactionAbort("roll back")
        with db.transaction():
            assert sorted(h.name for h in db.objects(Item)) == ["doomed", "keep"]


class TestOpenClose:
    def test_duplicate_name_raises(self, tmp_path):
        db = Database.open(str(tmp_path / "same"), engine="mm")
        with pytest.raises(DatabaseError):
            Database.open(str(tmp_path / "sub") + "/../same", engine="mm", name="same")
        db.close()

    def test_named_lookup_and_of(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Item).ptr
        assert Database.named(db.name) is db
        assert Database.of(ptr) is db

    def test_closed_database_rejects_work(self, db_path):
        db = Database.open(db_path, engine="mm")
        db.close()
        with pytest.raises(DatabaseClosedError):
            db.txn_manager.begin()

    def test_mm_without_path_needs_name(self):
        with pytest.raises(DatabaseError):
            Database.open(None, engine="mm")

    def test_mm_without_path_with_name(self):
        db = Database.open(None, engine="mm", name="pure-volatile")
        with db.transaction():
            ptr = db.pnew(Item, name="v").ptr
        with db.transaction():
            assert db.deref(ptr).name == "v"
        db.close()

    def test_open_options_are_pinned(self):
        """Every keyword option ``Database.open`` accepts, spelled out: the
        database's own plus those it forwards to the chosen engine.  Adding
        or removing a knob must edit this literal, so the option count is
        checkable from one place."""

        def options(init):
            return {
                name
                for name, param in inspect.signature(init).parameters.items()
                if name not in ("self", "path")
                and param.kind is not inspect.Parameter.VAR_KEYWORD
            }

        assert options(Database.__init__) == {
            "engine",
            "name",
            "type_registry",
            "trigger_cc",
        }
        assert options(DiskStorageManager.__init__) == {"buffer_capacity", "injector"}
        assert options(MainMemoryStorageManager.__init__) == {"injector"}


class TestCatalog:
    def test_catalog_set_get(self, any_engine_db):
        db = any_engine_db
        with db.transaction() as txn:
            db.catalog_set(txn, "mykey", 777)
            assert db.catalog_get("mykey") == 777
        with db.transaction():
            assert db.catalog_get("mykey") == 777

    def test_catalog_rolls_back_on_abort(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        db.catalog_set(txn, "temp", 1)
        db.txn_manager.abort(txn)
        with db.transaction():
            assert db.catalog_get("temp") is None


class TestPersistentMap:
    def test_put_get_remove(self, any_engine_db):
        db = any_engine_db
        pmap = PersistentMap(db, "testmap", bucket_count=4)
        with db.transaction() as txn:
            pmap.put(txn, "a", 1)
            pmap.put(txn, "b", [1, 2])
            assert pmap.get(txn, "a") == 1
            assert pmap.get(txn, "b") == [1, 2]
            assert pmap.get(txn, "missing", "dflt") == "dflt"
            assert pmap.remove(txn, "a") is True
            assert pmap.remove(txn, "a") is False

    def test_items_spans_buckets(self, any_engine_db):
        db = any_engine_db
        pmap = PersistentMap(db, "spread", bucket_count=4)
        with db.transaction() as txn:
            expected = {}
            for i in range(40):
                pmap.put(txn, f"key{i}", i)
                expected[f"key{i}"] = i
            assert dict(pmap.items(txn)) == expected
            assert pmap.count(txn) == 40

    def test_persists_across_transactions(self, any_engine_db):
        db = any_engine_db
        pmap = PersistentMap(db, "durablemap")
        with db.transaction() as txn:
            pmap.put(txn, "k", "v")
        with db.transaction() as txn:
            assert pmap.get(txn, "k") == "v"

    def test_update_rolls_back_on_abort(self, any_engine_db):
        db = any_engine_db
        pmap = PersistentMap(db, "rollbackmap")
        with db.transaction() as txn:
            pmap.put(txn, "k", "committed")
        txn = db.txn_manager.begin()
        pmap.put(txn, "k", "uncommitted")
        db.txn_manager.abort(txn)
        with db.transaction() as txn:
            assert pmap.get(txn, "k") == "committed"
