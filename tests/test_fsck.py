"""Tests for the storage integrity checker (``python -m repro.tools fsck``).

Covers the acceptance scenarios from the fault-injection issue: fsck is
clean on healthy and crash-recovered databases, and detects a flipped
page byte, an orphaned TriggerState, a dangling phoenix intention,
interior WAL corruption, and (as info only) a torn WAL tail.
"""

import json

import pytest

from repro import tools
from repro.fsck import fsck, fsck_database
from repro.objects.database import Database
from repro.objects.serialize import decode_object, encode_object
from repro.storage.page import PAGE_SIZE
from repro.storage.wal import _FRAME
from repro.workloads.credit_card import CredCard


def _build(path, *, close=True):
    """A small db with an armed trigger and a couple of commits."""
    db = Database.open(path, engine="disk")
    with db.transaction():
        handle = db.pnew(CredCard, cred_lim=10.0)
        handle.AutoRaiseLimit(5.0)
        ptr = handle.ptr
    with db.transaction():
        db.deref(ptr).buy(None, 3.0)
    if close:
        db.close()
        return ptr, None
    return ptr, db


class TestCleanDatabases:
    def test_fresh_database_is_clean(self, db_path):
        _build(db_path)
        report = fsck(db_path)
        assert report.ok
        assert report.findings == []
        assert report.pages_scanned > 0
        assert report.records_scanned > 0
        assert report.trigger_states_scanned >= 1

    def test_crash_recovered_database_is_clean(self, db_path):
        """A crash state is *recoverable*, not corrupt: opening for the
        logical pass replays the log and the report comes out clean."""
        ptr, db = _build(db_path, close=False)
        db.txn_manager.begin()
        db.deref(ptr).buy(None, 99.0)  # in-flight at the crash
        db.simulate_crash()
        report = fsck(db_path)
        assert report.ok
        assert not report.by_code("ODE150")

    def test_mm_engine_is_checked_too(self, db_path):
        db = Database.open(db_path, engine="mm")
        with db.transaction():
            db.pnew(CredCard).AutoRaiseLimit(5.0)
        db.close()
        report = fsck(db_path, engine="mm")
        assert report.ok

    def test_missing_database_reports_ode151(self, db_path):
        report = fsck(db_path + "-nonexistent")
        assert report.by_code("ODE151")
        assert not report.ok


class TestSeededCorruption:
    def test_flipped_page_byte_is_detected(self, db_path):
        _build(db_path)
        with open(db_path + ".data", "r+b") as fh:
            fh.seek(PAGE_SIZE + 100)
            byte = fh.read(1)
            fh.seek(PAGE_SIZE + 100)
            fh.write(bytes([byte[0] ^ 0xFF]))
        report = fsck(db_path)
        assert report.by_code("ODE101")
        assert not report.ok

    def test_orphaned_trigger_state_is_detected(self, db_path):
        """Keep the trigger group record but surgically clear the
        has-triggers flag in its object's header: the reverse scan must
        flag the orphan."""
        ptr, db = _build(db_path, close=False)
        with db.txn_manager.transaction(system=True) as txn:
            type_name, fields, _flags, _group = decode_object(db.storage.read(txn.txid, ptr.rid))
            db.storage.write(txn.txid, ptr.rid, encode_object(type_name, fields))
        report = fsck_database(db)
        assert report.by_code("ODE131")
        assert not report.ok
        db.close()

    def test_dangling_phoenix_intention_is_detected(self, db_path):
        db = Database.open(db_path, engine="disk")
        with db.transaction() as txn:
            ptr = db.pnew(CredCard).ptr
            db.phoenix.enqueue(txn, "notify", {"card": ptr})
        with db.transaction():
            db.pdelete(ptr)  # the payload now points at nothing
        report = fsck_database(db)
        assert report.by_code("ODE141")
        assert report.by_code("ODE142")  # pending intentions, as info
        assert not report.ok
        db.close()

    def test_pending_intentions_alone_are_only_info(self, db_path):
        db = Database.open(db_path, engine="disk")
        with db.transaction() as txn:
            ptr = db.pnew(CredCard).ptr
            db.phoenix.enqueue(txn, "notify", {"card": ptr})
        report = fsck_database(db)
        assert report.by_code("ODE142")
        assert report.ok  # info findings do not fail the check
        db.close()

    def test_interior_wal_corruption_is_detected(self, db_path):
        """Corrupt an *interior* WAL record (valid frames follow it):
        unlike a torn tail, this is unrecoverable and must be an error."""
        _, db = _build(db_path, close=False)
        db.simulate_crash()  # leaves the synced log on disk
        with open(db_path + ".wal", "r+b") as fh:
            buf = fh.read()
            assert len(buf) > 3 * _FRAME.size, "need several records"
            fh.seek(_FRAME.size + 1)  # inside the first payload
            byte = buf[_FRAME.size + 1]
            fh.seek(_FRAME.size + 1)
            fh.write(bytes([byte ^ 0xFF]))
        report = fsck(db_path)
        assert report.by_code("ODE150")
        salvage_msg = report.by_code("ODE150")[0].message
        assert "salvage" in salvage_msg
        assert not report.ok

    def test_torn_wal_tail_is_info_only(self, db_path):
        _, db = _build(db_path, close=False)
        db.simulate_crash()
        with open(db_path + ".wal", "r+b") as fh:
            fh.seek(0, 2)
            size = fh.tell()
            fh.truncate(size - 3)  # chop mid-frame: a torn tail
        report = fsck(db_path)
        assert report.by_code("ODE152")
        assert report.ok  # recoverable, so the db is still clean


class TestCli:
    def test_cli_exit_codes(self, db_path, capsys):
        _build(db_path)
        assert tools.main(["fsck", db_path]) == 0
        assert "clean" in capsys.readouterr().out
        with open(db_path + ".data", "r+b") as fh:
            fh.seek(PAGE_SIZE + 100)
            byte = fh.read(1)
            fh.seek(PAGE_SIZE + 100)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert tools.main(["fsck", db_path]) == 1
        out = capsys.readouterr().out
        assert "ODE101" in out
        assert "NOT CLEAN" in out

    def test_cli_json_output(self, db_path, capsys):
        _build(db_path)
        assert tools.main(["fsck", db_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["pages_scanned"] > 0

    def test_cli_import_flag_loads_trigger_types(self, db_path, capsys):
        """Without the workload module imported, trigger-type checks are
        skipped (info); ``--import`` restores the full check."""
        _build(db_path)
        rc = tools.main(
            ["fsck", db_path, "--import", "repro.workloads.credit_card"]
        )
        assert rc == 0
        assert "ODE132" not in capsys.readouterr().out
