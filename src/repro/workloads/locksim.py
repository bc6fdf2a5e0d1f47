"""Multi-session lock-contention workload for the E6 study.

Section 6: "triggers turn read access into write access, increasing both
the amount of time the transactions spend waiting for locks and the
likelihood of deadlock."

Earlier revisions replayed synthetic lock *traces* against a bare
:class:`~repro.storage.locks.LockManager`.  Now that the engine supports
concurrent sessions, the workload drives the real system end to end: N
sessions over one shared database, interleaved deterministically by a
:class:`~repro.sessions.scheduler.CooperativeScheduler`, each running
read-only transactions over a small hot set of :class:`HotObject`\\ s.

The client code is *identical* in both configurations — dereference an
object, read a field, post its observation events.  The only difference is
whether ``Watch`` triggers were activated on the hot set:

* no triggers: each posting short-circuits on the control-information flag
  (footnote 3), so a transaction acquires only S locks — share-everything,
  zero waits, zero deadlocks;
* with triggers: ``Watch`` detects ``relative(Ping, Pong)``, whose FSM
  changes state on **every** posting, so every posting writes the
  persistent TriggerState back — the read-only transaction now takes X
  locks (one per active trigger per posting), and waiting and deadlock
  follow.  Deadlock victims abort and retry through
  :meth:`~repro.sessions.session.Session.run`.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import shutil
import tempfile
from typing import TYPE_CHECKING

from repro import obs
from repro.core.declarations import trigger
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions.scheduler import CooperativeScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.oid import PersistentPtr


def _observe(self, ctx) -> None:
    """Watch's action: pure observation — the amplification under study is
    the TriggerState writes, so the action itself must not write."""


class HotObject(Persistent):
    """One member of the hot set.

    ``Watch`` detects ``relative(Ping, Pong)``: its two-state FSM flips on
    every posting (armed by ``Ping``, fired and re-armed by ``Pong``), so a
    transaction that posts the ``Ping``/``Pong`` pair X-locks each active
    TriggerState at its first move — deterministic per-posting lock
    amplification regardless of how sessions interleave.  The pair ends
    where it began, so the state is written only if it changed (an
    object's first pair moves it from its activation state).
    """

    value = field(int, default=0)

    __events__ = ["Ping", "Pong"]
    __triggers__ = [
        trigger("Watch", "relative(Ping, Pong)", action=_observe, perpetual=True),
    ]


def setup_hot_set(
    db: "Database", n_objects: int, triggers_per_object: int
) -> list["PersistentPtr"]:
    """Create the hot set and activate *triggers_per_object* Watches each."""
    with db.transaction():
        ptrs = []
        for _ in range(n_objects):
            handle = db.pnew(HotObject)
            for _ in range(triggers_per_object):
                handle.Watch()
            ptrs.append(handle.ptr)
    return ptrs


@dataclasses.dataclass
class WorkloadResult:
    """Aggregate outcome of one multi-session run (all figures are deltas
    measured across the run, excluding setup)."""

    committed: int = 0
    deadlock_aborts: int = 0
    s_locks: int = 0
    x_locks: int = 0
    upgrades: int = 0
    lock_waits: int = 0
    state_writes: int = 0
    switches: int = 0
    # MVCC-only figures (zero under the 2PL baseline):
    buffered_advances: int = 0
    merges: int = 0
    conflicts: int = 0
    replays: int = 0

    @property
    def wait_fraction(self) -> float:
        total = self.s_locks + self.x_locks
        return self.lock_waits / total if total else 0.0

    def key(self) -> tuple:
        """Everything, as a tuple — for determinism assertions."""
        return dataclasses.astuple(self)


_run_ids = itertools.count(1)


def run_hot_set(
    n_objects: int,
    triggers_per_object: int,
    *,
    n_sessions: int,
    transactions: int,
    ops_per_txn: int = 4,
    seed: int = 1996,
    retries: int = 50,
    engine: str = "mm",
    path: str | None = None,
    trace_out: list | None = None,
    trigger_cc: str = "2pl",
) -> WorkloadResult:
    """Run the hot-set workload on a fresh database; returns the result.

    *transactions* are divided round-robin over *n_sessions* session tasks
    under a cooperative scheduler, so a given parameter set always produces
    the same interleaving, the same lock schedule, and the same result.

    *trigger_cc* selects the TriggerState concurrency-control scheme
    (DESIGN.md §15): ``"2pl"`` is the paper's baseline — every FSM advance
    X-locks and rewrites the state record; ``"mvcc"`` buffers advances
    against copy-on-write versions and merges them at commit, so the same
    client code takes zero X locks on trigger state.

    When *trace_out* is a list, :mod:`repro.obs` tracing is enabled for the
    measured phase only (setup transactions predict nothing the per-posting
    footprints model) and the captured records are appended to it — the
    input of the ODE310 dynamic lockset checker
    (:func:`repro.analysis.check_lock_trace`).
    """
    workdir = None
    if path is None:
        # The engines persist durability files beside the database path, so
        # an anonymous run gets a temporary directory of its own.
        workdir = tempfile.mkdtemp(prefix="locksim-")
        path = os.path.join(workdir, f"hotset-{next(_run_ids)}")
    db = Database.open(path, engine=engine, trigger_cc=trigger_cc)
    tracing = False
    try:
        ptrs = setup_hot_set(db, n_objects, triggers_per_object)
        if trace_out is not None:
            obs.enable()
            tracing = True

        lock_stats = db.storage.lock_manager.stats
        post_stats = db.trigger_system.stats
        mvcc_stats = getattr(db.trigger_system.versions, "stats", None)
        locks_before = lock_stats.snapshot()
        posts_before = post_stats.snapshot()
        mvcc_before = mvcc_stats.snapshot() if mvcc_stats is not None else {}
        retries_before = db.session_stats.deadlock_retries

        scheduler = CooperativeScheduler()
        result = WorkloadResult()

        def make_program(session, task_index: int, n_txns: int):
            rng = random.Random(seed * 31 + task_index)

            def program():
                for _ in range(n_txns):
                    picks = [rng.randrange(n_objects) for _ in range(ops_per_txn)]

                    def body(txn, picks=picks):
                        for obj_index in picks:
                            handle = session.deref(ptrs[obj_index])
                            _ = handle.value  # the ostensibly read-only access
                            handle.post_event("Ping")
                            handle.post_event("Pong")
                            scheduler.yield_now()

                    session.run(body, retries=retries)
                    result.committed += 1
                    scheduler.yield_now()
                session.close()

            return program

        base = transactions // n_sessions
        extra = transactions % n_sessions
        for i in range(n_sessions):
            n_txns = base + (1 if i < extra else 0)
            session = db.session(f"client-{i}")
            scheduler.spawn(
                make_program(session, i, n_txns),
                name=f"client-{i}",
                session=session,
            )
        scheduler.run()

        result.deadlock_aborts = lock_stats.deadlocks - locks_before["deadlocks"]
        result.s_locks = lock_stats.s_acquired - locks_before["s_acquired"]
        result.x_locks = lock_stats.x_acquired - locks_before["x_acquired"]
        result.upgrades = lock_stats.upgrades - locks_before["upgrades"]
        result.lock_waits = lock_stats.waits - locks_before["waits"]
        result.state_writes = post_stats.snapshot()["state_writes"] - posts_before[
            "state_writes"
        ]
        result.switches = scheduler.switches
        if mvcc_stats is not None:
            after = mvcc_stats.snapshot()
            result.buffered_advances = (
                after["buffered_advances"] - mvcc_before["buffered_advances"]
            )
            result.merges = after["merges"] - mvcc_before["merges"]
            result.conflicts = after["conflicts"] - mvcc_before["conflicts"]
            result.replays = after["replays"] - mvcc_before["replays"]
        assert (
            db.session_stats.deadlock_retries - retries_before
            == result.deadlock_aborts
        ), "every deadlock abort must be retried (none exhausted its budget)"
        if tracing:
            recorder = obs.disable()
            tracing = False
            if recorder is not None:
                trace_out.extend(recorder.records())
        return result
    finally:
        if tracing:
            obs.disable()
        db.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
