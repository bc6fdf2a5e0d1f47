"""The experiment harness (``benchmarks/common.py``): its result files,
``percentile`` and the threaded-session driver."""

from __future__ import annotations

import pytest

from repro import Database, Persistent, field
from repro.errors import ReadOnlyStorageError

common = pytest.importorskip("benchmarks.common")


def test_an_empty_table_never_replaces_recorded_results(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    common.emit_table("EX", "demo", ["a", "b"], [[1, 2]])
    recorded = (tmp_path / "EX.txt").read_text()
    assert "1 | 2" in recorded

    common.emit_table("EX", "demo", ["a", "b"], [])  # e.g. a -k run
    assert (tmp_path / "EX.txt").read_text() == recorded
    common.emit_table("EY", "demo", ["a"], [])
    assert not (tmp_path / "EY.txt").exists()


def test_percentile_reads_the_rank_below():
    values = [float(v) for v in range(1, 11)]
    assert common.percentile(values, 0.0) == 1.0
    assert common.percentile(values, 0.5) == 6.0
    assert common.percentile(values, 0.99) == 10.0
    assert common.percentile(values, 1.0) == 10.0
    assert common.percentile([], 0.5) == 0.0


# -- the threaded-session driver --------------------------------------------

TXNS = 4


class DriverSlot(Persistent):
    value = field(int, default=0)


@pytest.fixture
def pool(tmp_path):
    db = Database.open(str(tmp_path / "driver"), engine="mm")
    with db.transaction():
        ptrs = [db.pnew(DriverSlot).ptr for _ in range(3)]
    before = len(db.sessions())
    yield db, ptrs
    assert len(db.sessions()) == before  # every driver session closed
    db.close()


def _increments(ptrs, refuse=None, fail=None):
    """Bodies that each add 1 to one slot; the transaction whose
    ``(session index, txn index)`` is *refuse* raises a typed refusal,
    the one that is *fail* raises ``ValueError``."""

    def bodies(session, index):
        for txn_index in range(TXNS):
            ptr = ptrs[(index + txn_index) % len(ptrs)]

            def body(txn, ptr=ptr, at=(index, txn_index)):
                handle = session.deref(ptr)
                handle.value = handle.value + 1
                if at == refuse:
                    raise ReadOnlyStorageError("refused")
                if at == fail:
                    raise ValueError("unexpected")

            yield body

    return bodies


def _total(db, ptrs):
    with db.transaction():
        return sum(db.deref(p).value for p in ptrs)


def test_driver_conserves_committed_increments(pool):
    db, ptrs = pool
    figures = common.drive_sessions(db, 2, _increments(ptrs), retries=50)
    assert figures["outcomes"] == {"committed": 2 * TXNS}
    assert _total(db, ptrs) == 2 * TXNS
    assert figures["throughput"] > 0
    assert 0 < figures["p50"] <= figures["p99"]


def test_driver_counts_a_listed_error_as_a_refusal(pool):
    db, ptrs = pool
    figures = common.drive_sessions(
        db,
        2,
        _increments(ptrs, refuse=(1, 2)),
        retries=50,
        refusals=(ReadOnlyStorageError,),
    )
    assert figures["outcomes"] == {
        "committed": 2 * TXNS - 1,
        "ReadOnlyStorageError": 1,
    }
    assert _total(db, ptrs) == 2 * TXNS - 1  # the refused one rolled back


def test_driver_reraises_an_unlisted_error(pool):
    db, ptrs = pool
    with pytest.raises(ValueError, match="unexpected"):
        common.drive_sessions(
            db,
            2,
            _increments(ptrs, fail=(0, 1)),
            retries=50,
            refusals=(ReadOnlyStorageError,),
        )
