"""Tests for the inspection tool, integrity verifier, and global deactivate."""

import pytest

import repro
from repro.core.declarations import trigger
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import FLAG_HAS_TRIGGERS
from repro.tools import describe_catalog, describe_objects, describe_triggers, dump_database


class Widget(Persistent):
    size = field(int, default=1)

    __events__ = ["Poke"]
    __triggers__ = [
        trigger("OnPoke", "Poke", action=lambda s, c: None, perpetual=True)
    ]


class TestGlobalDeactivate:
    def test_deactivate_resolves_database_from_pointer(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            widget = db.pnew(Widget)
            trigger_id = widget.OnPoke()
            repro.deactivate(trigger_id)  # the paper's free function
            assert db.trigger_system.active_triggers(widget.ptr) == []


class TestVerifyIntegrity:
    def test_clean_database_is_consistent(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            widget = db.pnew(Widget)
            widget.OnPoke()
            assert db.trigger_system.verify_integrity() == []

    def test_detects_dangling_index_entry(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            widget = db.pnew(Widget)
            trigger_id = widget.OnPoke()
            # Corrupt on purpose: delete the group record (the id's rid)
            # but leave the header naming it.
            db.storage.delete(db.txn_manager.current().txid, trigger_id.rid)
            problems = db.trigger_system.verify_integrity()
            assert any("missing" in p for p in problems)

    def test_detects_deleted_anchor(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        widget = db.pnew(Widget)
        ptr = widget.ptr
        widget.OnPoke()
        # Bypass pdelete (which would clean up) to simulate damage.
        db.storage.delete(txn.txid, ptr.rid)
        problems = db.trigger_system.verify_integrity()
        assert any("anchor object" in p for p in problems)
        db.txn_manager.abort(txn)  # the damage was deliberate: discard it

    def test_detects_unresolvable_type(self, any_engine_db):
        db = any_engine_db
        from repro.core.trigger_state import TriggerGroup, TriggerState

        with db.transaction() as txn:
            widget = db.pnew(Widget)
            ghost = TriggerState(0, widget.ptr, 0, "VanishedClass", {})
            group = TriggerGroup(widget.ptr, 1, [(0, ghost)])
            rid = db.storage.insert(txn.txid, group.encode())
            widget.obj.__dict__.update(_p_flags=FLAG_HAS_TRIGGERS, _p_group=rid)
            db.mark_dirty(widget.obj)
            problems = db.trigger_system.verify_integrity()
            assert any("VanishedClass" in p for p in problems)


class TestDumpTool:
    @pytest.fixture
    def populated(self, db_path):
        db = Database.open(db_path, engine="disk")
        with db.transaction():
            widget = db.pnew(Widget, size=7)
            widget.OnPoke()
        yield db
        if not db.closed:
            db.close()

    def test_describe_objects_lists_fields_and_flag(self, populated):
        with populated.transaction() as txn:
            lines = describe_objects(populated)
            ((_, group_rid),) = populated.trigger_system.index.entries(txn)
        assert any("Widget" in line and "size=7" in line for line in lines)
        assert any(f"[triggers → group {group_rid}]" in line for line in lines)

    def test_describe_triggers_shows_state_and_mode(self, populated):
        with populated.transaction():
            lines = describe_triggers(populated)
        assert len(lines) == 1
        assert "OnPoke" in lines[0]
        assert "immediate" in lines[0]
        assert "perpetual" in lines[0]

    def test_describe_catalog_shows_internal_maps(self, populated):
        with populated.transaction():
            lines = describe_catalog(populated)
        assert lines == []  # the trigger index is the headers, extents are scans

    def test_dump_database_opens_own_transaction(self, populated):
        text = dump_database(populated)
        assert "--- objects ---" in text
        assert "--- active triggers ---" in text
        assert "ok" in text  # integrity section

    def test_cli_main(self, db_path, capsys):
        db = Database.open(db_path, engine="disk")
        with db.transaction():
            db.pnew(Widget, size=3)
        db.close()
        from repro.tools import main

        assert main([db_path, "--engine", "disk"]) == 0
        out = capsys.readouterr().out
        assert "Widget" in out
