"""Write-ahead log tests: framing, torn tails, inverses."""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransientIOError, WALError
from repro.storage.interface import StorageStats
from repro.storage.wal import TAIL_BOUND, LogRecord, LogRecordKind, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(str(tmp_path / "test.wal"))
    yield log
    log.close()


def test_append_assigns_increasing_lsns(wal):
    r1 = wal.append(1, LogRecordKind.BEGIN)
    r2 = wal.append(1, LogRecordKind.INSERT, 7, b"", b"data")
    assert r2.lsn == r1.lsn + 1


def test_replay_returns_appended_records(wal):
    wal.append(1, LogRecordKind.BEGIN)
    wal.append(1, LogRecordKind.UPDATE, 5, b"old", b"new")
    wal.append(1, LogRecordKind.COMMIT)
    records = list(wal.replay())
    assert [r.kind for r in records] == [
        LogRecordKind.BEGIN,
        LogRecordKind.UPDATE,
        LogRecordKind.COMMIT,
    ]
    assert records[1].rid == 5
    assert records[1].before == b"old"
    assert records[1].after == b"new"


def test_lsn_continues_after_reopen(tmp_path):
    path = str(tmp_path / "reopen.wal")
    log = WriteAheadLog(path)
    last = log.append(1, LogRecordKind.BEGIN).lsn
    log.close()
    log2 = WriteAheadLog(path)
    assert log2.append(2, LogRecordKind.BEGIN).lsn == last + 1
    log2.close()


def test_torn_tail_is_ignored(tmp_path):
    path = str(tmp_path / "torn.wal")
    log = WriteAheadLog(path)
    log.append(1, LogRecordKind.BEGIN)
    log.append(1, LogRecordKind.INSERT, 3, b"", b"payload")
    log.close()
    # Simulate a crash mid-append: chop bytes off the end.
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - 4)
    log2 = WriteAheadLog(path)
    records = list(log2.replay())
    assert [r.kind for r in records] == [LogRecordKind.BEGIN]
    log2.close()


def test_corrupt_crc_stops_replay(tmp_path):
    path = str(tmp_path / "corrupt.wal")
    log = WriteAheadLog(path)
    log.append(1, LogRecordKind.BEGIN)
    log.append(1, LogRecordKind.INSERT, 3, b"", b"payload")
    log.close()
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 0xFF]))
    log2 = WriteAheadLog(path)
    assert [r.kind for r in log2.replay()] == [LogRecordKind.BEGIN]
    log2.close()


def test_truncate_empties_log(wal):
    wal.append(1, LogRecordKind.BEGIN)
    wal.truncate()
    assert list(wal.replay()) == []
    assert wal.append(2, LogRecordKind.BEGIN).lsn == 1


def test_append_after_close_raises(tmp_path):
    log = WriteAheadLog(str(tmp_path / "closed.wal"))
    log.close()
    with pytest.raises(WALError):
        log.append(1, LogRecordKind.BEGIN)


class TestInverse:
    def test_update_inverse_swaps_images(self):
        record = LogRecord(1, 9, LogRecordKind.UPDATE, 4, b"old", b"new")
        inverse = record.inverse()
        assert inverse.kind is LogRecordKind.UPDATE
        assert inverse.before == b"new"
        assert inverse.after == b"old"

    def test_insert_inverse_is_delete(self):
        record = LogRecord(1, 9, LogRecordKind.INSERT, 4, b"", b"data")
        inverse = record.inverse()
        assert inverse.kind is LogRecordKind.DELETE
        assert inverse.before == b"data"

    def test_delete_inverse_is_insert(self):
        record = LogRecord(1, 9, LogRecordKind.DELETE, 4, b"data", b"")
        inverse = record.inverse()
        assert inverse.kind is LogRecordKind.INSERT
        assert inverse.after == b"data"

    def test_commit_has_no_inverse(self):
        with pytest.raises(WALError):
            LogRecord(1, 9, LogRecordKind.COMMIT).inverse()

    def test_double_inverse_is_identity_on_images(self):
        record = LogRecord(1, 9, LogRecordKind.UPDATE, 4, b"a", b"b")
        twice = record.inverse().inverse()
        assert (twice.kind, twice.rid, twice.before, twice.after) == (
            record.kind,
            record.rid,
            record.before,
            record.after,
        )


@settings(max_examples=50, deadline=None)
@given(
    txid=st.integers(0, 2**32),
    rid=st.integers(-1, 2**40),
    before=st.binary(max_size=500),
    after=st.binary(max_size=500),
    kind=st.sampled_from(list(LogRecordKind)),
)
def test_record_encode_decode_roundtrip(txid, rid, before, after, kind):
    record = LogRecord(17, txid, kind, rid, before, after)
    encoded = record.encode()
    # Strip the frame header (length + crc) before decoding the payload.
    decoded = LogRecord.decode(encoded[8:])
    assert decoded == record


class TestGoldenBytes:
    """The frame of every record kind, byte for byte: any change to how a
    record is built or encoded must leave the log format as it is."""

    K = LogRecordKind
    GOLDEN = [
        (
            LogRecord(1, 7, K.BEGIN),
            "21000000af1016920100000000000000070000000000000001ffffffffffffffff"
            "0000000000000000",
        ),
        (
            LogRecord(2, 7, K.INSERT, 65537, b"", b"new"),
            "24000000b054efa0020000000000000007000000000000000201000100000000"
            "0000000000030000006e6577",
        ),
        (
            LogRecord(3, 7, K.UPDATE, 65537, b"new", b"newer!"),
            "2a000000be2eb5a8030000000000000007000000000000000301000100000000"
            "00030000006e6577060000006e6577657221",
        ),
        (
            LogRecord(4, 7, K.DELETE, 65537, b"newer!", b""),
            "27000000cc524bdf040000000000000007000000000000000401000100000000"
            "00060000006e657765722100000000",
        ),
        (
            LogRecord(5, 7, K.SET_ROOT, -1, bytes(8), b"\x01\x00\x01" + bytes(5)),
            "310000002b5aa35e0500000000000000070000000000000008ffffffffffffffff"
            "080000000000000000000000080000000100010000000000",
        ),
        (
            LogRecord(6, 7, K.COMMIT),
            "21000000b9c5c3610600000000000000070000000000000005ffffffffffffffff"
            "0000000000000000",
        ),
        (
            LogRecord(2**40, 2**33, K.ABORT, -1),
            "21000000dffc57af0000000000010000000000000200000006ffffffffffffffff"
            "0000000000000000",
        ),
    ]

    def test_every_kind_is_covered(self):
        assert {record.kind for record, _ in self.GOLDEN} == set(LogRecordKind)

    @pytest.mark.parametrize("record, frame", GOLDEN)
    def test_encode_matches_the_golden_frame(self, record, frame):
        assert record.encode().hex() == frame
        assert LogRecord.decode(bytes.fromhex(frame)[8:]) == record

    def test_append_writes_the_golden_frames(self, tmp_path):
        path = str(tmp_path / "golden.wal")
        log = WriteAheadLog(path)
        for record, _ in self.GOLDEN[:6]:
            # Images that are not bytes are copied; the frame is the same.
            appended = log.append(
                record.txid,
                record.kind,
                record.rid,
                bytearray(record.before),
                memoryview(record.after),
            )
            assert appended == record
            assert type(appended.before) is bytes and type(appended.after) is bytes
        log.close()
        with open(path, "rb") as fh:
            assert fh.read().hex() == "".join(frame for _, frame in self.GOLDEN[:6])

    def test_fields_cannot_be_assigned(self):
        record = LogRecord(1, 7, LogRecordKind.UPDATE, 3, b"a", b"b")
        with pytest.raises(AttributeError):
            record.lsn = 2
        with pytest.raises(AttributeError):
            record.after = b"c"
        assert record == LogRecord(1, 7, LogRecordKind.UPDATE, 3, b"a", b"b")


def test_interior_corruption_raises_with_salvage_info(tmp_path):
    """A bad frame with valid frames after it means committed history was
    damaged in place — replay must refuse, not silently drop the rest."""
    path = str(tmp_path / "interior.wal")
    log = WriteAheadLog(path)
    log.append(1, LogRecordKind.BEGIN)
    log.append(1, LogRecordKind.INSERT, 3, b"", b"payload")
    log.append(1, LogRecordKind.COMMIT)
    log.close()
    from repro.storage.wal import _FRAME

    with open(path, "r+b") as fh:
        fh.seek(_FRAME.size + 1)  # inside the first record's payload
        byte = fh.read(1)
        fh.seek(_FRAME.size + 1)
        fh.write(bytes([byte[0] ^ 0xFF]))

    # The scan runs as soon as the log is opened (to restore the LSN),
    # so even opening the damaged log refuses.
    with pytest.raises(WALError) as excinfo:
        WriteAheadLog(path)
    salvage = excinfo.value.salvage
    assert salvage["records_before"] == 0
    assert salvage["records_after"] == 2  # INSERT + COMMIT still decodable
    assert salvage["corrupt_offset"] == 0
    assert salvage["resync_offset"] > 0


def test_wal_crash_drops_everything_after_the_last_force(tmp_path):
    path = str(tmp_path / "crash.wal")
    log = WriteAheadLog(path)
    log.append(1, LogRecordKind.BEGIN)
    log.append(1, LogRecordKind.COMMIT)
    log.force()
    log.append(2, LogRecordKind.BEGIN)  # never forced: dies with the cache
    log.crash()

    log2 = WriteAheadLog(path)
    assert [r.kind for r in log2.replay()] == [
        LogRecordKind.BEGIN,
        LogRecordKind.COMMIT,
    ]
    log2.close()


class TestOneForcePath:
    """``force()`` is the only fsync: it skips work already durable,
    fsyncs outside the mutex, and never lets a goal outlive a truncate."""

    def test_force_with_nothing_new_issues_no_fsync(self, tmp_path, monkeypatch):
        stats = StorageStats()
        log = WriteAheadLog(str(tmp_path / "skip.wal"), stats=stats)
        log.append(1, LogRecordKind.COMMIT)
        log.force()
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        log.force()
        assert fsyncs == []
        assert (stats.log_forces, stats.group_piggybacks) == (1, 1)
        log.close()

    @staticmethod
    def _two_committers(log, monkeypatch, rounds=40):
        """Two threads append+force concurrently while a third samples
        ``synced_bytes()``; returns (short forces, samples)."""
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.0005)  # widen the window where forces overlap
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        short: list[tuple[int, int]] = []
        samples: list[int] = []
        done = threading.Event()
        start = threading.Barrier(2)

        def committer(txid):
            start.wait()
            for _ in range(rounds):
                log.append(txid, LogRecordKind.COMMIT)
                end = log.size_bytes()  # >= the end of this caller's append
                log.force()
                if log.synced_bytes() < end:
                    short.append((log.synced_bytes(), end))

        def sampler():
            while not done.is_set():
                samples.append(log.synced_bytes())

        threads = [threading.Thread(target=committer, args=(t,)) for t in (1, 2)]
        watcher = threading.Thread(target=sampler)
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        done.set()
        watcher.join(timeout=30)
        assert not any(t.is_alive() for t in [*threads, watcher])
        return short, samples

    def test_concurrent_forces_cover_each_callers_append(self, wal, monkeypatch):
        short, _ = self._two_committers(wal, monkeypatch)
        assert short == []
        assert wal.synced_bytes() == wal.size_bytes()

    def test_synced_bytes_never_decreases(self, wal, monkeypatch):
        _, samples = self._two_committers(wal, monkeypatch)
        assert samples == sorted(samples)

    def test_force_straddling_a_truncate_keeps_nothing_synced(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "straddle.wal")
        log = WriteAheadLog(path)
        log.append(1, LogRecordKind.BEGIN)
        log.append(1, LogRecordKind.COMMIT)
        real_fsync = os.fsync
        truncated = []

        def fsync_then_truncate(fd):
            real_fsync(fd)
            if not truncated:  # a checkpoint lands while the fsync is in flight
                truncated.append(fd)
                log.truncate()

        monkeypatch.setattr(os, "fsync", fsync_then_truncate)
        log.force()
        assert truncated
        assert log.synced_bytes() == 0
        log.crash()
        assert os.path.getsize(path) == 0  # crash() must not grow the file


class TestStagedTail:
    """An append stages its frame; the tail reaches the file in one write
    at a force or a close, or once it passes ``TAIL_BOUND``."""

    def test_staged_frames_reach_the_file_at_the_force(self, tmp_path):
        path = str(tmp_path / "staged.wal")
        log = WriteAheadLog(path)
        log.append(1, LogRecordKind.UPDATE, 3, b"old", b"new")
        log.append(1, LogRecordKind.COMMIT)
        assert os.path.getsize(path) == 0
        assert log.size_bytes() > 0
        log.force()
        assert os.path.getsize(path) == log.size_bytes() == log.synced_bytes()
        log.close()

    def test_a_crash_loses_the_staged_frames(self, tmp_path):
        path = str(tmp_path / "lost.wal")
        log = WriteAheadLog(path)
        log.append(1, LogRecordKind.COMMIT)
        log.force()
        log.append(2, LogRecordKind.UPDATE, 3, b"old", b"new")  # staged only
        log.crash()
        log2 = WriteAheadLog(path)
        assert [(r.txid, r.kind) for r in log2.replay()] == [(1, LogRecordKind.COMMIT)]
        log2.close()

    def test_replay_of_an_open_log_sees_the_staged_frames(self, tmp_path):
        path = str(tmp_path / "open.wal")
        log = WriteAheadLog(path)
        log.append(1, LogRecordKind.INSERT, 3, b"", b"a")
        log.force()
        log.append(1, LogRecordKind.UPDATE, 3, b"a", b"b")
        assert os.path.getsize(path) < log.size_bytes()
        assert [r.lsn for r in log.replay()] == [1, 2]
        log.close()

    def test_close_writes_the_staged_frames(self, tmp_path):
        path = str(tmp_path / "closed.wal")
        log = WriteAheadLog(path)
        log.append(1, LogRecordKind.INSERT, 3, b"", b"a")
        log.append(1, LogRecordKind.COMMIT)
        size = log.size_bytes()
        log.close()
        assert os.path.getsize(path) == size
        log2 = WriteAheadLog(path)
        assert [r.kind for r in log2.replay()] == [
            LogRecordKind.INSERT,
            LogRecordKind.COMMIT,
        ]
        log2.close()

    def test_a_tail_past_the_bound_is_written_but_not_fsynced(
        self, tmp_path, monkeypatch
    ):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        path = str(tmp_path / "bound.wal")
        log = WriteAheadLog(path)
        image = bytes(1024)
        while os.path.getsize(path) == 0:
            log.append(1, LogRecordKind.UPDATE, 3, image, image)
            assert log.size_bytes() <= TAIL_BOUND + 2 * len(image) + 64
        assert os.path.getsize(path) == log.size_bytes() > TAIL_BOUND
        assert fsyncs == [] and log.synced_bytes() == 0
        log.crash()  # never forced: the written frames die too
        assert os.path.getsize(path) == 0

    def test_a_transient_write_failure_inside_the_force_is_retried(
        self, tmp_path, monkeypatch
    ):
        stats = StorageStats()
        path = str(tmp_path / "retry.wal")
        log = WriteAheadLog(path, stats=stats)
        log.append(1, LogRecordKind.UPDATE, 3, b"old", b"new")
        log.append(1, LogRecordKind.COMMIT)
        real_write = os.write
        calls = []

        def flaky_write(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                raise TransientIOError(5, "transient")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", flaky_write)
        log.force()
        monkeypatch.undo()
        assert calls == [log.size_bytes()] * 2
        assert stats.io_retries == 1
        assert os.path.getsize(path) == log.synced_bytes() == log.size_bytes()
        log.close()
        log2 = WriteAheadLog(path)
        assert [r.kind for r in log2.replay()] == [
            LogRecordKind.UPDATE,
            LogRecordKind.COMMIT,
        ]
        log2.close()

    @pytest.mark.concurrency
    def test_threaded_appenders_and_forcers_replay_every_forced_record(
        self, tmp_path
    ):
        """Four threads append; two of them force after every append, the
        others only now and then.  After a crash, replay holds every
        record a force returned after, in LSN order with no gap."""
        path = str(tmp_path / "threads.wal")
        log = WriteAheadLog(path)
        forced: list[int] = []  # lsns a completed force covered
        forced_lock = threading.Lock()
        start = threading.Barrier(4)

        def worker(txid, every):
            start.wait()
            for i in range(200):
                record = log.append(txid, LogRecordKind.UPDATE, i, b"x" * 40, b"y" * 40)
                if i % every == 0:
                    log.force()
                    with forced_lock:
                        forced.append(record.lsn)

        threads = [
            threading.Thread(target=worker, args=(txid, every))
            for txid, every in ((1, 1), (2, 1), (3, 7), (4, 13))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        log.crash()
        log2 = WriteAheadLog(path)
        lsns = [record.lsn for record in log2.replay()]
        log2.close()
        assert lsns == list(range(1, len(lsns) + 1))
        assert max(forced) <= len(lsns)
