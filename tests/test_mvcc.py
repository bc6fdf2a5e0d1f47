"""The versioned trigger-group scheme (DESIGN.md §15) and its satellites.

Covers:

* the advance buffer: zero X locks / zero in-place state writes for
  posting transactions, read-your-writes visibility, abort discards;
* the version chain: lazy load, publish-after-commit, immutability;
* commit-time merge: first-committer fast path, lost-update detection,
  deterministic replay;
* cross-scheme equivalence: under any cooperative interleaving, each
  scheme's final committed state equals a serial replay of the same
  transactions in its observed commit order (hypothesis), and with
  transaction-boundary-only yields MVCC and 2PL agree *directly*;
* the `TriggerState.decode` field validation satellite;
* the `LockStats` snapshot/reset synchronization satellite;
* the review fixes: failed merges roll back *inside* the commit mutex,
  replay uses posting-time mask outcomes, and `MvccStats` increments are
  exactly-once under real threads.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.declarations import trigger
from repro.core.versioned import MvccStats
from repro.errors import (
    DatabaseError,
    SerializationError,
    StorageError,
    TriggerError,
)
from repro.core.trigger_state import TriggerGroup, TriggerState
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions.scheduler import CooperativeScheduler
from repro.storage.locks import LockManager, LockMode, LockStats
from repro.workloads.locksim import HotObject


def _noop_action(self, ctx) -> None:
    pass


class GatedHot(Persistent):
    """``Guard`` arms on ``Trip & hot`` — the mask outcome decides whether
    the machine leaves its start state, so posting-time vs commit-time
    mask evaluation is observable in the committed statenum."""

    temp = field(float, default=0.0)

    __events__ = ["Trip", "Reset"]
    __masks__ = {"hot": lambda self: self.temp > 100.0}
    __triggers__ = [
        trigger(
            "Guard",
            "relative((Trip & hot), Reset)",
            action=_noop_action,
            perpetual=True,
        ),
    ]

_ids = iter(range(10_000))


def _open(engine="mm", path=None, **kwargs):
    return Database.open(
        path, engine=engine, name=f"mvcc-{next(_ids)}", **kwargs
    )


def _setup_watched(db, n_triggers=1):
    with db.transaction():
        handle = db.pnew(HotObject)
        for _ in range(n_triggers):
            handle.Watch()
        return handle.ptr


def _statenums(db, ptr):
    with db.transaction():
        return [s.statenum for _, s, _ in db.trigger_system.active_triggers(ptr)]


# ---------------------------------------------------------------------------
# Opening / configuration
# ---------------------------------------------------------------------------


def test_open_rejects_unknown_scheme_and_policy(tmp_path):
    with pytest.raises(DatabaseError, match="trigger_cc"):
        Database.open(None, engine="mm", name="bad-cc", trigger_cc="occ")
    # Lost updates always replay: no conflict-policy option exists.
    with pytest.raises(TypeError):
        Database.open(
            None, engine="mm", name="bad-pol",
            trigger_cc="mvcc", mvcc_conflict="replay",
        )
    # Neither failed open may leak its name registration.
    db = Database.open(None, engine="mm", name="bad-cc", trigger_cc="mvcc")
    db.close()


def test_2pl_baseline_has_no_version_manager():
    db = _open()
    try:
        assert db.trigger_cc == "2pl"
        assert db.trigger_system.versions is None
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The advance buffer
# ---------------------------------------------------------------------------


def test_posting_takes_no_x_locks_and_writes_no_state():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        lock_before = db.storage.lock_manager.stats.snapshot()
        with db.transaction():
            h = db.deref(ptr)
            h.post_event("Ping")
            h.post_event("Pong")
        lock_after = db.storage.lock_manager.stats.snapshot()
        assert lock_after["x_acquired"] == lock_before["x_acquired"]
        assert lock_after["upgrades"] == lock_before["upgrades"]
        assert db.trigger_system.stats.state_writes == 0
        mvcc = db.trigger_system.versions.stats
        assert mvcc.buffered_advances == 2
        assert mvcc.clean_merges == 1
        assert mvcc.conflicts == 0
    finally:
        db.close()


def test_buffered_advance_is_visible_to_own_transaction():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        with db.transaction():
            h = db.deref(ptr)
            before = [
                s.statenum for _, s, _ in db.trigger_system.active_triggers(ptr)
            ]
            h.post_event("Ping")
            during = [
                s.statenum for _, s, _ in db.trigger_system.active_triggers(ptr)
            ]
        assert during != before  # read-your-writes through the buffer
    finally:
        db.close()


def test_abort_discards_the_buffer():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        committed = _statenums(db, ptr)
        txn = db.txn_manager.begin()
        h = db.deref(ptr)
        h.post_event("Ping")
        db.txn_manager.abort(txn)
        assert _statenums(db, ptr) == committed
        assert db.trigger_system.versions.stats.merges == 0
    finally:
        db.close()


def test_committed_states_match_2pl_semantics():
    final = {}
    for cc in ("2pl", "mvcc"):
        db = _open(trigger_cc=cc)
        try:
            ptr = _setup_watched(db, n_triggers=2)
            for _ in range(3):
                with db.transaction():
                    h = db.deref(ptr)
                    h.post_event("Ping")
                    h.post_event("Pong")
            final[cc] = _statenums(db, ptr)
        finally:
            db.close()
    assert final["mvcc"] == final["2pl"]


def test_fresh_activation_and_advance_in_one_transaction():
    db = _open(trigger_cc="mvcc")
    try:
        with db.transaction():
            h = db.pnew(HotObject)
            h.Watch()
            h.post_event("Ping")  # advances the machine it just activated
            ptr = h.ptr
        states = _statenums(db, ptr)
        assert len(states) == 1
        # The Ping survived the commit of the fresh entry.
        db2 = _open(trigger_cc="2pl")
        try:
            p2 = _setup_watched(db2)
            with db2.transaction():
                db2.deref(p2).post_event("Ping")
            assert states == _statenums(db2, p2)
        finally:
            db2.close()
    finally:
        db.close()


def test_deactivate_with_buffered_advances_drops_entry_and_chain():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        with db.transaction():
            db.deref(ptr).post_event("Ping")  # materialize the chain
        versions = db.trigger_system.versions
        assert versions.heads()
        with db.transaction():
            h = db.deref(ptr)
            h.post_event("Ping")
            (tid, _, _), = db.trigger_system.active_triggers(ptr)
            db.trigger_system.deactivate(tid)
        assert versions.heads() == {}
        assert _statenums(db, ptr) == []
    finally:
        db.close()


def test_mvcc_durability_across_reopen(tmp_path):
    path = str(tmp_path / "mvccdisk")
    db = _open(engine="disk", path=path, trigger_cc="mvcc")
    ptr = None
    try:
        ptr = _setup_watched(db)
        with db.transaction():
            db.deref(ptr).post_event("Ping")
        expected = _statenums(db, ptr)
    finally:
        db.close()
    db = _open(engine="disk", path=path, trigger_cc="mvcc")
    try:
        assert _statenums(db, PersistentPtr(db.name, ptr.rid)) == expected
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Commit-time merge: conflicts
# ---------------------------------------------------------------------------


def _conflicting_pair(db, ptr, scheduler):
    """Two cooperative sessions that both buffer against the same base
    version before either commits — a guaranteed lost update."""
    outcomes = []

    def make(idx, session):
        def program():
            def body(txn):
                db_h = session.deref(ptr)
                db_h.post_event("Ping")
                scheduler.yield_now()  # both buffer before either commits
                db_h.post_event("Pong")

            try:
                session.run(body)
                outcomes.append((idx, "committed"))
            finally:
                session.close()

        return program

    for i in range(2):
        session = db.session(f"racer-{i}")
        scheduler.spawn(make(i, session), name=f"racer-{i}", session=session)
    scheduler.run()
    return outcomes


def test_conflict_replay_merges_both_transactions():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        scheduler = CooperativeScheduler()
        outcomes = _conflicting_pair(db, ptr, scheduler)
        assert sorted(outcomes) == [(0, "committed"), (1, "committed")]
        mvcc = db.trigger_system.versions.stats
        assert mvcc.conflicts >= 1
        assert mvcc.replays == mvcc.conflicts
        # Serial oracle: 4 events in commit order on a fresh 2PL database.
        db2 = _open()
        try:
            p2 = _setup_watched(db2)
            for _ in range(2):
                with db2.transaction():
                    h = db2.deref(p2)
                    h.post_event("Ping")
                    h.post_event("Pong")
            assert _statenums(db, ptr) == _statenums(db2, p2)
        finally:
            db2.close()
    finally:
        db.close()


def test_replay_uses_posting_time_mask_outcomes():
    """A conflict replay must re-advance with the mask outcomes observed
    when each event was posted — not re-evaluate the masks against the
    anchor object's commit-time attribute values, which the transaction
    may have mutated after posting."""
    db = _open(trigger_cc="mvcc")
    try:
        with db.transaction():
            h = db.pnew(GatedHot)
            h.Guard()
            ptr = h.ptr
        versions = db.trigger_system.versions
        idle = _statenums(db, ptr)

        txn = db.txn_manager.begin()
        h = db.deref(ptr)
        h.temp = 150.0
        h.post_event("Trip")  # hot == True, captured at posting time
        armed = [
            s.statenum for _, s, _ in db.trigger_system.active_triggers(ptr)
        ]
        assert armed != idle  # the mask outcome is visible in the statenum
        h.temp = 0.0  # a commit-time evaluation would now say hot == False

        # Simulate a concurrent committer: republish the head (same state,
        # new vid) so this transaction's merge takes the replay path.
        (group_rid,) = versions.heads()
        head = versions.head_or_none(group_rid)
        versions.publish([(group_rid, head.heads)])
        db.txn_manager.commit(txn)

        assert versions.stats.replays == 1
        assert _statenums(db, ptr) == armed
    finally:
        db.close()


def test_failed_merge_rolls_back_under_the_commit_mutex():
    """When the storage commit fails after write_merged calls succeeded,
    the WAL undo must run while the commit mutex is still held: merged
    writes carry no record locks, so a concurrent committer's
    write_merged could otherwise capture the aborting transaction's
    uncommitted bytes as its before-image and then lose its own committed
    merge to the undo."""
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        with db.transaction():
            db.deref(ptr).post_event("Ping")  # materialize the chain
        versions = db.trigger_system.versions
        storage = db.storage
        real_commit = storage.commit_transaction
        real_abort = storage.abort_transaction
        owned_at_abort = []

        def failing_commit(txid):
            raise StorageError("injected commit failure")

        def recording_abort(txid):
            owned_at_abort.append(versions.commit_mutex._is_owned())
            return real_abort(txid)

        storage.commit_transaction = failing_commit
        storage.abort_transaction = recording_abort
        try:
            txn = db.txn_manager.begin()
            db.deref(ptr).post_event("Ping")
            with pytest.raises(StorageError, match="injected"):
                db.txn_manager.commit(txn)
        finally:
            storage.commit_transaction = real_commit
            storage.abort_transaction = real_abort

        assert owned_at_abort == [True]
        # The rollback restored the committed bytes: storage agrees with
        # the published head, and the failed merge left no trace.
        (group_rid,) = versions.heads()
        head = versions.head_or_none(group_rid)
        assert TriggerGroup.decode(storage.peek(group_rid)) == head.image
        # The engine is healthy: the next transaction merges normally
        # (Pong fires and re-arms the machine, flipping the statenum).
        before = _statenums(db, ptr)
        with db.transaction():
            db.deref(ptr).post_event("Pong")
        assert _statenums(db, ptr) != before
    finally:
        db.close()


def _setup_storm_machines(db, count=12):
    ptrs = [_setup_watched(db) for _ in range(count)]
    with db.transaction():
        for ptr in ptrs:
            db.deref(ptr).post_event("Ping")  # materialize every chain
    return ptrs


def _run_pair_storm(db, ptrs, workers=6, steps=12):
    """Run ``workers`` real threads of ``steps`` transactions each, every
    one touching two machines; return the indices of workers whose
    transaction raised :class:`StorageError`."""
    errors: list[Exception] = []
    failed: list[int] = []
    start = threading.Barrier(workers)

    def worker(index):
        session = db.session(f"storm-{index}")
        try:
            start.wait()
            for step in range(steps):
                # The pairing varies per worker/step so footprints
                # overlap sometimes and are disjoint sometimes.
                a = ptrs[(index + step) % len(ptrs)]
                b = ptrs[(index * 3 + step * 5) % len(ptrs)]

                def body(txn):
                    session.deref(a).post_event("Ping")
                    session.deref(b).post_event("Pong")

                try:
                    session.run(body)
                except StorageError:
                    failed.append(index)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return failed


def _assert_storage_matches_heads(db):
    versions = db.trigger_system.versions
    for group_rid in versions.heads():
        head = versions.head_or_none(group_rid)
        assert (
            TriggerGroup.decode(db.storage.peek(group_rid)) == head.image
        ), "storage bytes diverged from the published head"


def test_conflict_abort_storm_keeps_storage_consistent_with_heads():
    """Real threads over 12 machines: overlapping committers replay any
    lost updates, and every 5th storage commit fails, so its merged writes
    roll back under the commit mutex.  For every state rid the committed
    storage bytes must still equal the published chain head — a rollback
    outside the mutex could capture another committer's merge as a
    before-image and undo it."""
    db = _open(trigger_cc="mvcc")
    try:
        ptrs = _setup_storm_machines(db)
        storage = db.storage
        real_commit = storage.commit_transaction
        real_abort = storage.abort_transaction
        commits = 0
        commits_lock = threading.Lock()

        def flaky_commit(txid):
            nonlocal commits
            with commits_lock:
                commits += 1
                fail = commits % 5 == 0
            if fail:
                raise StorageError("injected commit failure")
            return real_commit(txid)

        def slow_abort(txid):
            # Widens the window a rollback outside the mutex would open.
            time.sleep(0.002)
            return real_abort(txid)

        workers, steps = 6, 12
        storage.commit_transaction = flaky_commit
        storage.abort_transaction = slow_abort
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            failed = _run_pair_storm(db, ptrs, workers, steps)
        finally:
            sys.setswitchinterval(interval)
            storage.commit_transaction = real_commit
            storage.abort_transaction = real_abort
        assert len(failed) == workers * steps // 5
        _assert_storage_matches_heads(db)
    finally:
        db.close()


def test_sharded_commit_storm_keeps_storage_consistent_with_heads():
    """Real threads, many machines, no injected failures: committers with
    disjoint rid footprints merge cleanly and overlapping ones replay
    under the one commit mutex.  Every transaction commits, and for every
    state rid the committed storage bytes equal the published chain head."""
    db = _open(trigger_cc="mvcc")
    try:
        ptrs = _setup_storm_machines(db)
        assert len(db.trigger_system.versions.heads()) == len(ptrs)
        assert _run_pair_storm(db, ptrs) == []
        _assert_storage_matches_heads(db)
    finally:
        db.close()


def test_version_chain_grows_one_head_per_publishing_commit():
    db = _open(trigger_cc="mvcc")
    try:
        ptr = _setup_watched(db)
        versions = db.trigger_system.versions
        seen = []
        # Ping arms Watch and Pong fires and re-arms it: each commit moves
        # the machine, so each changes the group's bytes and publishes.
        for event in ("Ping", "Pong", "Ping"):
            with db.transaction():
                db.deref(ptr).post_event(event)
            (vid,) = versions.heads().values()
            seen.append(vid)
        assert seen == sorted(set(seen))  # a new head per commit
    finally:
        db.close()


def test_ten_thousand_commits_retain_one_version_per_rid():
    """Publishing replaces the head: nothing links a superseded version,
    so however many commits advance a machine, one version stays live."""
    import gc

    from repro.core.versioned import GroupVersion

    db = _open(trigger_cc="mvcc")
    try:
        ptrs = [_setup_watched(db) for _ in range(2)]
        versions = db.trigger_system.versions
        for i in range(10_000):
            # Each object alternates Ping and Pong, so every commit moves it.
            with db.transaction():
                db.deref(ptrs[i % 2]).post_event(("Ping", "Pong")[i // 2 % 2])
        assert versions.stats.versions_published >= 10_000
        assert len(versions.heads()) == 2
        gc.collect()
        live = sum(isinstance(obj, GroupVersion) for obj in gc.get_objects())
        assert live == 2
    finally:
        db.close()


# ---------------------------------------------------------------------------
# E6 in miniature: the §6 pathology and its absence under MVCC
# ---------------------------------------------------------------------------


def test_hot_set_mvcc_zero_deadlocks_zero_x_locks():
    from repro.workloads.locksim import run_hot_set

    result = run_hot_set(
        4, 1, n_sessions=8, transactions=40, trigger_cc="mvcc"
    )
    assert result.committed == 40
    assert result.x_locks == 0
    assert result.lock_waits == 0
    assert result.deadlock_aborts == 0
    assert result.state_writes == 0
    assert result.buffered_advances > 0
    assert result.merges > 0

    baseline = run_hot_set(4, 1, n_sessions=8, transactions=40)
    assert baseline.x_locks > 0 and baseline.lock_waits > 0


# ---------------------------------------------------------------------------
# Cross-scheme equivalence (hypothesis)
# ---------------------------------------------------------------------------

_EVENTS = st.lists(st.sampled_from(["Ping", "Pong"]), min_size=1, max_size=3)
_SESSION_SCRIPT = st.lists(_EVENTS, min_size=1, max_size=3)
_SCRIPT = st.lists(_SESSION_SCRIPT, min_size=2, max_size=3)


def _run_script(script, trigger_cc):
    """Run one transaction per event-list per session under a cooperative
    scheduler; returns (final statenums, transactions in commit order)."""
    db = _open(trigger_cc=trigger_cc)
    try:
        ptr = _setup_watched(db)
        scheduler = CooperativeScheduler()
        commit_order = []

        def make(idx, txns):
            session = db.session(f"s{idx}")

            def program():
                for t, events in enumerate(txns):

                    def body(txn, events=events):
                        h = session.deref(ptr)
                        for ev in events:
                            h.post_event(ev)
                            scheduler.yield_now()

                    session.run(body, retries=50)
                    # No yield between the commit inside run() and this
                    # append, so the log is the commit completion order.
                    commit_order.append((idx, t))
                    scheduler.yield_now()
                session.close()

            return program

        for idx, txns in enumerate(script):
            scheduler.spawn(make(idx, txns), name=f"s{idx}")
        scheduler.run()
        return _statenums(db, ptr), commit_order
    finally:
        db.close()


def _serial_oracle(script, commit_order):
    """The same transactions applied serially, in observed commit order."""
    db = _open()  # plain 2PL, single session — trivially serial
    try:
        ptr = _setup_watched(db)
        for idx, t in commit_order:
            with db.transaction():
                h = db.deref(ptr)
                for ev in script[idx][t]:
                    h.post_event(ev)
        return _statenums(db, ptr)
    finally:
        db.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_SCRIPT)
def test_both_schemes_serialize_under_any_interleaving(script):
    for cc in ("mvcc", "2pl"):
        final, commit_order = _run_script(script, cc)
        assert sorted(commit_order) == [
            (idx, t) for idx in range(len(script))
            for t in range(len(script[idx]))
        ]
        assert final == _serial_oracle(script, commit_order), (
            f"{cc}: final state diverges from its own commit-order serial "
            f"replay (order {commit_order})"
        )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_SCRIPT)
def test_schemes_agree_directly_with_txn_boundary_yields(script):
    """With no yields inside transaction bodies both schemes see the same
    interleaving, so the committed states must be *identical*."""

    def run(trigger_cc):
        db = _open(trigger_cc=trigger_cc)
        try:
            ptr = _setup_watched(db)
            scheduler = CooperativeScheduler()

            def make(idx, txns):
                session = db.session(f"s{idx}")

                def program():
                    for events in txns:

                        def body(txn, events=events):
                            h = session.deref(ptr)
                            for ev in events:
                                h.post_event(ev)

                        session.run(body, retries=50)
                        scheduler.yield_now()
                    session.close()

                return program

            for idx, txns in enumerate(script):
                scheduler.spawn(make(idx, txns), name=f"s{idx}")
            scheduler.run()
            return _statenums(db, ptr)
        finally:
            db.close()

    assert run("mvcc") == run("2pl")


# ---------------------------------------------------------------------------
# Satellite: TriggerState.decode field validation
# ---------------------------------------------------------------------------


def _state(**overrides):
    fields = {
        "triggernum": 0,
        "trigobj": PersistentPtr("db", 7),
        "statenum": 1,
        "trigobjtype": "HotObject",
        "params": {},
    }
    fields.update(overrides)
    return TriggerState(**fields)


class TestDecodeValidation:
    """The fixed record layout stores no per-field types: a wrong-typed
    field is refused when the record is written, and decode rejects any
    bytes that are not a well-formed state record."""

    def test_roundtrip_still_works(self):
        decoded = TriggerState.decode(_state().encode())
        assert decoded == _state()
        assert decoded.trigobjtype == "HotObject"

    @pytest.mark.parametrize(
        "field_name, bad",
        [
            ("statenum", "one"),
            ("statenum", True),  # bool is an int subclass: still refused
            ("triggernum", 1.5),
            ("trigobjtype", 42),
            ("trigobj", "not-a-pointer"),
            ("params", [1, 2]),
        ],
    )
    def test_wrong_field_type_names_the_field(self, field_name, bad):
        with pytest.raises(SerializationError, match=field_name):
            _state(**{field_name: bad}).encode()

    def test_non_mapping_payload_rejected(self):
        from repro.objects.serialize import encode_value

        empty = bytearray()
        encode_value({}, empty)
        out = bytearray(_state().encode()[: -len(empty)])
        encode_value([1, 2, 3], out)  # a well-formed head, list params
        with pytest.raises(TriggerError, match="mapping"):
            TriggerState.decode(bytes(out))

    def test_verify_integrity_reports_corrupt_record_instead_of_crashing(self):
        db = _open()
        try:
            ptr = _setup_watched(db)
            with db.transaction() as txn:
                group_rid = db.trigger_system.index.group(txn, ptr.rid).rid
                truncated = db.storage.read(txn.txid, group_rid)[:-1]
                db.storage.write(txn.txid, group_rid, truncated)
            with db.transaction():
                problems = db.trigger_system.verify_integrity()
            assert any(
                f"group {group_rid}: corrupt" in p for p in problems
            ), problems
        finally:
            db.close()


# ---------------------------------------------------------------------------
# Satellite: LockStats snapshot/reset synchronization
# ---------------------------------------------------------------------------


class TestLockStatsSynchronization:
    N_THREADS = 8
    ITERATIONS = 50

    def test_exactly_once_counts_under_threads(self):
        """8 threads do S-then-upgrade-to-X on private resources; every
        counter must land exactly once per acquisition (the PR-7
        ``FaultInjector.hits`` discipline applied to LockStats)."""
        manager = LockManager()
        manager.blocking = True
        start = threading.Barrier(self.N_THREADS)
        torn: list[dict] = []
        stop = threading.Event()

        def snapshotter():
            # Concurrent observer: under the shared mutex a snapshot can
            # never see x_acquired without its paired upgrades increment.
            while not stop.is_set():
                snap = manager.stats.snapshot()
                if snap["upgrades"] != snap["x_acquired"]:
                    torn.append(snap)

        def worker(tid):
            start.wait()
            for i in range(self.ITERATIONS):
                resource = f"r-{tid}-{i}"
                txid = tid * 10_000 + i
                manager.lock(txid, resource, LockMode.S)
                manager.lock(txid, resource, LockMode.X)  # upgrade
                manager.release_all(txid)

        observer = threading.Thread(target=snapshotter)
        observer.start()
        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        observer.join()

        total = self.N_THREADS * self.ITERATIONS
        snap = manager.stats.snapshot()
        assert snap["s_acquired"] == total
        assert snap["x_acquired"] == total
        assert snap["upgrades"] == total
        assert torn == [], f"torn snapshot(s) observed: {torn[:3]}"

    def test_reset_is_atomic_against_increments(self):
        manager = LockManager()
        manager.blocking = True
        start = threading.Barrier(2)
        done = threading.Event()

        def worker():
            start.wait()
            for i in range(500):
                txid = 1_000 + i
                manager.lock(txid, f"rr-{i}", LockMode.S)
                manager.lock(txid, f"rr-{i}", LockMode.X)
                manager.release_all(txid)
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        start.wait()
        while not done.is_set():
            manager.stats.reset()
            snap = manager.stats.snapshot()
            # snapshot and the paired x/upgrade increments share the
            # manager mutex, so the two counters can never be seen apart.
            assert snap["x_acquired"] == snap["upgrades"]
        t.join()

    def test_standalone_stats_have_their_own_lock(self):
        stats = LockStats()
        stats.s_acquired = 3
        assert stats.snapshot()["s_acquired"] == 3
        stats.reset()
        assert stats.snapshot()["s_acquired"] == 0


# ---------------------------------------------------------------------------
# Satellite: MvccStats synchronization (same discipline as LockStats)
# ---------------------------------------------------------------------------


class TestMvccStatsSynchronization:
    N_THREADS = 8
    TXNS_EACH = 15

    def test_buffered_advances_exactly_once_under_threads(self):
        """8 threaded sessions post concurrently; ``buffered_advances``
        must land exactly once per advance (posting increments it from
        session threads, so an unguarded ``+=`` would lose counts), and a
        concurrent snapshot must never see the merge counters torn apart
        (``merges`` is incremented in the same critical section as its
        ``clean_merges``/``conflicts`` breakdown)."""
        db = _open(trigger_cc="mvcc")
        try:
            ptr = _setup_watched(db)
            mvcc = db.trigger_system.versions.stats
            errors: list[Exception] = []
            torn: list[dict] = []
            stop = threading.Event()
            start = threading.Barrier(self.N_THREADS)

            def snapshotter():
                while not stop.is_set():
                    snap = mvcc.snapshot()
                    if snap["merges"] != snap["clean_merges"] + snap["conflicts"]:
                        torn.append(snap)

            def worker(index):
                session = db.session(f"stats-{index}")
                try:
                    start.wait()
                    for _ in range(self.TXNS_EACH):

                        def body(txn):
                            h = session.deref(ptr)
                            h.post_event("Ping")
                            h.post_event("Pong")

                        session.run(body, retries=500)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    session.close()

            observer = threading.Thread(target=snapshotter)
            observer.start()
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            observer.join()

            assert not errors, errors
            # Replay policy: conflicts merge without re-running the body,
            # so every transaction posted its two events exactly once.
            expected = self.N_THREADS * self.TXNS_EACH * 2
            assert mvcc.buffered_advances == expected
            assert torn == [], f"torn snapshot(s) observed: {torn[:3]}"
        finally:
            db.close()

    def test_standalone_stats_have_their_own_lock(self):
        stats = MvccStats()
        stats.buffered_advances = 3
        assert stats.snapshot()["buffered_advances"] == 3
        stats.reset()
        assert stats.snapshot()["buffered_advances"] == 0


# ---------------------------------------------------------------------------
# Crash matrix under MVCC (quick subsets; full matrices in
# tests/test_crash_matrix.py behind the crash_matrix marker)
# ---------------------------------------------------------------------------


def test_mvcc_crash_quick_subset_mm(tmp_path):
    from repro.faults.harness import Cards, explore

    result = explore(
        str(tmp_path / "mvcc-mm"), Cards(), engine="mm", limit=10, trigger_cc="mvcc"
    )
    assert len(result.explored) >= 10
    assert {"wal", "checkpoint"} <= result.families_explored


def test_mvcc_crash_quick_subset_disk(tmp_path):
    from repro.faults.harness import Cards, explore

    result = explore(
        str(tmp_path / "mvcc-disk"), Cards(), engine="disk", limit=12, trigger_cc="mvcc"
    )
    assert len(result.explored) >= 12
    assert {"wal", "page", "txn"} <= result.families_explored


@pytest.mark.parametrize("engine,limit", [("disk", 8), ("mm", 6)])
def test_mvcc_crash_quick_subset_chaos(tmp_path, engine, limit):
    """Four cooperative sessions under mvcc: concurrent merges of the hubs'
    Watch groups must recover like any other WAL record."""
    from repro.faults.harness import Chaos, explore

    result = explore(
        str(tmp_path / f"mvcc-chaos-{engine}"),
        Chaos(),
        engine=engine,
        limit=limit,
        trigger_cc="mvcc",
    )
    assert len(result.explored) >= 10
    assert {"wal", "txn", "phoenix", "checkpoint"} <= result.families_explored
