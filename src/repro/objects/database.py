"""The database: ``pnew`` / ``pdelete`` / ``deref``, catalog, extents.

A :class:`Database` ties together a storage manager (disk or main-memory),
a transaction manager, the phoenix intention queue, and — attached at open
time — the trigger system.  Objects are cached per transaction: ``deref``
returns the same instance for the same rid within a transaction, mutation
marks it dirty, and the transaction manager writes dirty objects back right
before the storage commit — and, under strict 2PL, the trigger groups
postings advanced, each once.  Aborts simply drop the cache; everything
that *was* written through the storage manager (new objects, trigger
groups, secondary-index nodes, catalog updates) is rolled back by the engine,
which is exactly how the paper gets event roll-back "using standard
transaction roll-back of the triggers' states" (Section 5.5).

An object's header is its control information (paper footnote 3): the
has-triggers flag and, while it is set, the rid of the object's trigger
group, kept on the instance as ``_p_flags`` and ``_p_group``.

A class's extent — the "clusters of persistent objects" O++ iterates
(paper Section 1) — is stored nowhere: each object record names its type,
so :meth:`Database.objects` is one pass over the records under the
symbolic lock ``extent:<Class>`` that ``pnew`` and ``pdelete`` take
exclusively (DESIGN §17 "Extents").
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from typing import Any

from repro import obs
from repro.errors import (
    DanglingPointerError,
    DatabaseClosedError,
    DatabaseError,
    ObjectError,
    RecordNotFoundError,
    SessionError,
    TriggerError,
)
from repro.objects.handle import PersistentHandle
from repro.objects.metatype import TypeRegistry, global_type_registry
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.serialize import (
    FLAG_HAS_TRIGGERS,
    decode_object,
    decode_value,
    encode_object,
    encode_value,
    peek_object,
)
from repro.sessions.session import Session, SessionStats, current_ambient_session
from repro.storage import open_storage
from repro.storage.locks import LockMode
from repro.transactions.manager import TransactionBlock, TransactionManager
from repro.transactions.phoenix import PhoenixQueue
from repro.transactions.txn import Transaction


class Database:
    """One open Ode database."""

    _open_databases: dict[str, "Database"] = {}
    _open_lock = threading.Lock()

    #: Valid values for the trigger-state concurrency-control A/B switch.
    TRIGGER_CC_SCHEMES = ("2pl", "mvcc")

    def __init__(
        self,
        path: str | None,
        engine: str = "disk",
        name: str | None = None,
        type_registry: TypeRegistry | None = None,
        trigger_cc: str = "2pl",
        **engine_kwargs: Any,
    ):
        if trigger_cc not in Database.TRIGGER_CC_SCHEMES:
            raise DatabaseError(
                f"unknown trigger_cc {trigger_cc!r}; "
                f"expected one of {Database.TRIGGER_CC_SCHEMES}"
            )
        self.trigger_cc = trigger_cc
        if name is None:
            if path is None:
                raise DatabaseError("a database without a path needs an explicit name")
            name = os.path.basename(str(path))
        with Database._open_lock:
            if name in Database._open_databases:
                raise DatabaseError(f"a database named {name!r} is already open")
        self.name = name
        self.path = str(path) if path is not None else None
        self.engine = engine
        self.registry = type_registry or global_type_registry()
        self.storage = open_storage(path, engine=engine, **engine_kwargs)
        try:
            # One metrics namespace per database: the per-layer stats
            # dataclasses mount here (posting.* joins when the trigger
            # system attaches, timers.* when a TimerService is created).
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
            self.metrics.register_source("storage", self.storage.stats)
            self.metrics.register_source("locks", self.storage.lock_manager.stats)
            from repro.storage.wal import WalStatsView

            self.metrics.register_source("wal", WalStatsView(self.storage.stats))
            self.storage.degrade_listener = self._on_degraded
            self.txn_manager = TransactionManager(self)
            self.phoenix = PhoenixQueue(self)
            self._catalog_rid: int | None = None
            self._closed = False
            # Sessions: the default one carries the serial API; Database.
            # session() opens more, flipping the lock manager to blocking.
            self.session_stats = SessionStats()
            self.session_stats.opened = 1
            self.session_stats.peak_concurrent = 1
            self._sessions_lock = threading.Lock()
            self._default_session = Session(self, "main", default=True)
            self._sessions: list[Session] = [self._default_session]
            self.metrics.register_source("sessions", self.session_stats)
            from repro.core.registry import global_event_registry

            self.metrics.register_source("events", global_event_registry())
            # Attached below; kept as an attribute so the object layer has no
            # import-time dependency on the trigger system.
            self.trigger_system = None
            self._bootstrap()
            self._attach_trigger_system()
            with Database._open_lock:
                if name in Database._open_databases:
                    raise DatabaseError(
                        f"a database named {name!r} is already open"
                    )
                Database._open_databases[name] = self
            # Crash-restart semantics: finish any phoenix intentions left
            # over.  Non-strict: kinds whose handlers are registered later
            # stay queued.
            self.phoenix.drain(strict=False)
        except BaseException:
            # The open-time drain (or bootstrap) died — possibly an
            # injected crash.  Release the name and the storage fds so the
            # process can reopen this path; on-disk state is left exactly
            # as the failure left it.
            Database._open_databases.pop(name, None)
            self.storage.simulate_crash()
            raise

    # -- class-level lookup -----------------------------------------------------

    @classmethod
    def open(cls, path: str | None, engine: str = "disk", **kwargs: Any) -> "Database":
        """Open (creating if absent) the database at *path*."""
        return cls(path, engine=engine, **kwargs)

    @classmethod
    def named(cls, name: str) -> "Database":
        """The open database called *name* (used to resolve pointers)."""
        try:
            return cls._open_databases[name]
        except KeyError:
            raise DatabaseError(f"no open database named {name!r}") from None

    @classmethod
    def of(cls, ptr: PersistentPtr) -> "Database":
        """``database::ofdatabase(ptr)`` — the database *ptr* points into."""
        return cls.named(ptr.db_name)

    # -- bootstrap -----------------------------------------------------------------

    def _bootstrap(self) -> None:
        if self.storage.get_root() == self.storage.NO_ROOT:
            txn = self.txn_manager.begin(system=True)
            out = bytearray()
            encode_value({}, out)
            rid = self.storage.insert(txn.txid, bytes(out))
            self.storage.set_root(txn.txid, rid)
            self.txn_manager.commit(txn)
        self._catalog_rid = self.storage.get_root()

    def _attach_trigger_system(self) -> None:
        from repro.core.manager import TriggerSystem

        self.trigger_system = TriggerSystem(self)

    # -- catalog ------------------------------------------------------------------------

    @property
    def catalog_rid(self) -> int:
        """The catalog record's rid (fixed for the life of the database)."""
        return self._catalog_rid

    def _read_catalog(self, txn: Transaction) -> dict[str, int]:
        raw = self.storage.read(txn.txid, self._catalog_rid)
        value, _ = decode_value(raw, 0)
        return dict(value)

    def catalog_get(self, key: str) -> int | None:
        """Look up *key* in the catalog within the current transaction."""
        txn = self.txn_manager.current()
        return self._read_catalog(txn).get(key)

    def catalog_set(self, txn: Transaction, key: str, rid: int) -> None:
        catalog = self._read_catalog(txn)
        catalog[key] = rid
        out = bytearray()
        encode_value(catalog, out)
        self.storage.write(txn.txid, self._catalog_rid, bytes(out))

    # -- object operations ---------------------------------------------------------------

    def pnew(self, cls: type, *args: Any, **kwargs: Any) -> PersistentHandle:
        """Allocate a persistent object (O++ ``pnew``); returns its handle."""
        self._check_open()
        if not (isinstance(cls, type) and issubclass(cls, Persistent)):
            raise ObjectError(f"{cls!r} is not a Persistent subclass")
        txn = self.txn_manager.current()
        instance = cls(*args, **kwargs)
        data = encode_object(cls.__name__, instance.to_fields(), flags=0)
        self.storage.lock_manager.lock(txn.txid, _extent(cls.__name__), LockMode.X)
        rid = self.storage.insert(txn.txid, data)
        ptr = PersistentPtr(self.name, rid)
        instance.__dict__["_p_ptr"] = ptr
        instance.__dict__["_p_flags"] = 0
        txn.cache[rid] = instance
        for index in self._indexes_for(txn, cls):
            index.on_insert(txn, rid, instance.__dict__.get(index.field_name))
        handle = PersistentHandle(self, ptr, instance, self.current_session())
        if self.trigger_system is not None:
            self.trigger_system.on_access(txn, ptr, instance)
            from repro.core.constraints import activate_constraints, constraint_infos

            if constraint_infos(cls):
                activate_constraints(self, handle)
        return handle

    def deref(self, ptr: PersistentPtr) -> PersistentHandle:
        """Dereference a persistent pointer within the current transaction."""
        self._check_open()
        if ptr.is_null():
            raise DanglingPointerError("cannot dereference the null pointer")
        if ptr.db_name != self.name:
            return Database.named(ptr.db_name).deref(ptr)
        session = self.current_session()
        txn = session.current_txn_or_raise()
        instance = txn.cache.get(ptr.rid)
        if instance is None:
            try:
                raw = self.storage.read(txn.txid, ptr.rid)
            except RecordNotFoundError:
                raise DanglingPointerError(f"{ptr!r} points to no object") from None
            type_name, fields, flags, group = decode_object(raw)
            cls = self.registry.find(type_name).pyclass
            instance = cls.from_fields(fields)
            instance.__dict__["_p_ptr"] = ptr
            instance.__dict__["_p_flags"] = flags
            if flags & FLAG_HAS_TRIGGERS:
                instance.__dict__["_p_group"] = group
            txn.cache[ptr.rid] = instance
            if self.trigger_system is not None:
                self.trigger_system.on_access(txn, ptr, instance)
        return PersistentHandle(self, ptr, instance, session)

    def post_many(self, items) -> int:
        """Post a batch of user-defined events in the current transaction.

        *items* is an iterable of ``(target, event_name)`` pairs where
        *target* is a :class:`PersistentHandle` or a
        :class:`~repro.objects.oid.PersistentPtr`.  Equivalent to
        ``handle.post_event(name)`` per pair — same order, same firing
        semantics — but the per-posting fixed costs (transaction
        resolution, compiled-tier cache probes) are amortized across the
        batch; see
        :func:`repro.core.posting.post_many`.  Returns total firings.
        """
        self._check_open()
        if self.trigger_system is None:
            raise TriggerError("this database has no trigger system attached")
        resolved = []
        for target, name in items:
            handle = (
                target
                if isinstance(target, PersistentHandle)
                else self.deref(target)
            )
            resolved.append((handle.ptr, handle.obj, name))
        return self.trigger_system.post_many(self, resolved)

    def pdelete(self, ptr: PersistentPtr) -> None:
        """Free a persistent object (O++ ``pdelete``)."""
        self._check_open()
        txn = self.txn_manager.current()
        handle = self.deref(ptr)  # also validates the pointer
        cls = type(handle.obj)
        self.storage.lock_manager.lock(txn.txid, _extent(cls.__name__), LockMode.X)
        for index in self._indexes_for(txn, cls):
            index.on_delete(
                txn, ptr.rid, handle.obj.__dict__.get(index.field_name)
            )
        if self.trigger_system is not None:
            self.trigger_system.on_pdelete(self, ptr)
        self.storage.delete(txn.txid, ptr.rid)
        txn.cache.pop(ptr.rid, None)
        txn.dirty.discard(ptr.rid)

    # -- secondary indexes (disk Ode only; see repro.objects.index) -------------

    def create_index(self, cls: type, field_name: str):
        """Build and register a B-tree index on ``cls.field_name``."""
        from repro.objects.index import create_index

        index = create_index(self, cls, field_name)
        txn = self.txn_manager.current()
        txn.attachments.pop("db:indexes", None)  # refresh the per-txn cache
        return index

    def _active_indexes(self, txn: Transaction) -> list:
        """All registered indexes, cached per transaction."""
        from repro.objects.index import FieldIndex
        from repro.storage.btree import BTree

        def load():
            indexes = []
            for key, header_rid in self._read_catalog(txn).items():
                if not key.startswith("index:"):
                    continue
                class_name, field_name = key[len("index:") :].rsplit(".", 1)
                indexes.append(
                    FieldIndex(
                        self, class_name, field_name, BTree(self.storage, header_rid)
                    )
                )
            return indexes

        return txn.attachment("db:indexes", load)

    def _indexes_for(self, txn: Transaction, cls: type) -> list:
        return [idx for idx in self._active_indexes(txn) if idx.applies_to(cls)]

    def find(self, cls: type, field_name: str, value) -> list[PersistentHandle]:
        """Exact-match index lookup; returns handles."""
        from repro.objects.index import load_index

        txn = self.txn_manager.current()
        index = load_index(self, cls.__name__, field_name)
        if index is None:
            raise ObjectError(
                f"no index on {cls.__name__}.{field_name}; create_index first"
            )
        return [
            self.deref(PersistentPtr(self.name, rid))
            for rid in index.lookup(txn, value)
        ]

    def find_range(self, cls: type, field_name: str, lo, hi) -> Iterator[PersistentHandle]:
        """Range index scan (inclusive bounds; None = open end)."""
        from repro.objects.index import load_index

        txn = self.txn_manager.current()
        index = load_index(self, cls.__name__, field_name)
        if index is None:
            raise ObjectError(
                f"no index on {cls.__name__}.{field_name}; create_index first"
            )
        for rid in index.lookup_range(txn, lo, hi):
            yield self.deref(PersistentPtr(self.name, rid))

    def mark_dirty(self, instance: Persistent) -> None:
        """Record a mutation of a cached persistent object (acquires X lock)."""
        ptr: PersistentPtr | None = instance.__dict__.get("_p_ptr")
        if ptr is None:
            return  # volatile object: nothing to do
        txn = self.txn_manager.current()
        self.storage.lock_manager.lock(txn.txid, ptr.rid, LockMode.X)
        txn.cache.setdefault(ptr.rid, instance)
        txn.mark_dirty(ptr.rid)

    def flush_transaction(self, txn: Transaction) -> None:
        """Write every dirty cached object back to storage, then the
        trigger groups the transaction changed but has not written yet
        (pre-commit, after every before-commit hook)."""
        for rid in sorted(txn.dirty):
            instance = txn.cache.get(rid)
            if instance is None:
                continue  # deleted after being dirtied
            indexes = self._indexes_for(txn, type(instance))
            if indexes:
                old_fields = decode_object(self.storage.read(txn.txid, rid))[1]
                for index in indexes:
                    index.on_update(
                        txn,
                        rid,
                        old_fields.get(index.field_name),
                        instance.__dict__.get(index.field_name),
                    )
            header = instance.__dict__
            data = encode_object(
                type(instance).__name__,
                instance.to_fields(),
                header.get("_p_flags", 0),
                header.get("_p_group", -1),
            )
            self.storage.write(txn.txid, rid, data)
        txn.dirty.clear()
        if self.trigger_system is not None:
            self.trigger_system.write_back(txn)

    # -- extents -------------------------------------------------------------------------

    def objects(self, cls: type, include_derived: bool = True) -> Iterator[PersistentHandle]:
        """Iterate the persistent objects of *cls* (and, by default, of its
        registered subclasses) as handles, in ascending rid order.

        One pass over the records for those whose stored type name is
        listed, after S-locking ``extent:<Class>`` for each listed class.
        ``pnew`` and ``pdelete`` X-lock their class's extent, so the pass
        sees exactly the committed objects plus this transaction's own
        creations and deletions."""
        self._check_open()
        txn = self.txn_manager.current()
        metatype = self.registry.require_by_class(cls)
        metatypes = (
            self.registry.subclasses_of(metatype) if include_derived else [metatype]
        )
        names = {mt.name for mt in metatypes}
        for name in sorted(names):
            self.storage.lock_manager.lock(txn.txid, _extent(name), LockMode.S)
        for rid, raw in self.storage.peek_scan():
            header = peek_object(raw)
            if header is not None and header[0] in names:
                yield self.deref(PersistentPtr(self.name, rid))

    # -- sessions (DESIGN.md §11) -------------------------------------------------

    def session(self, name: str | None = None) -> Session:
        """Open a new concurrent session (one more "application").

        Opening a second live session switches the lock manager to
        *blocking* mode: an incompatible lock request now waits (cooperative
        yield or condition variable) for the holder's commit instead of
        raising.  The serial API keeps using the built-in default session.
        """
        self._check_open()
        with self._sessions_lock:
            if name is None:
                name = f"session-{self.session_stats.opened}"
            if any(s.name == name and not s.closed for s in self._sessions):
                raise SessionError(
                    f"a session named {name!r} is already open on {self.name!r}"
                )
            sess = Session(self, name)
            self._sessions.append(sess)
            self.session_stats.opened += 1
            live = sum(1 for s in self._sessions if not s.closed)
            if live > self.session_stats.peak_concurrent:
                self.session_stats.peak_concurrent = live
            if live > 1:
                # Sticky: stays blocking for the rest of this open — a
                # closed session's handles may still be in flight.
                self.storage.lock_manager.blocking = True
        return sess

    def current_session(self) -> Session:
        """The calling thread's ambient session, or the default one."""
        ambient = current_ambient_session()
        if ambient is not None and ambient.db is self:
            return ambient
        return self._default_session

    def default_session(self) -> Session:
        return self._default_session

    def sessions(self) -> list[Session]:
        """The sessions currently open on this database."""
        with self._sessions_lock:
            return [s for s in self._sessions if not s.closed]

    def _session_closed(self, session: Session) -> None:
        with self._sessions_lock:
            if session in self._sessions and session is not self._default_session:
                self._sessions.remove(session)
            self.session_stats.closed += 1

    # -- transactions -----------------------------------------------------------------------

    def transaction(self) -> TransactionBlock:
        """O++ transaction block: commit on success, ``tabort`` aborts quietly."""
        return self.txn_manager.transaction()

    # -- static analysis ----------------------------------------------------------------------

    def check_triggers(
        self,
        targets=None,
        *,
        strict: bool = False,
        concurrency: bool = False,
        confirm_witnesses: bool = False,
        compilability: bool = False,
    ):
        """Run the static trigger analyzer against this database.

        *targets* restricts the declaration-level passes to an iterable of
        persistent classes (or metatypes); by default every registered
        active class is analyzed, plus the ODE050/ODE051 pass over this
        database's persistent trigger states.  Returns the
        :class:`repro.analysis.AnalysisReport`.

        With ``strict=True``, any unsuppressed *termination* finding
        (ODE030/ODE031/ODE200/ODE201 — a trigger set the analyzer cannot
        prove terminating) raises :class:`TriggerDeclarationError` instead
        of being returned, turning non-termination into a declaration-time
        error for deployments that want the guarantee.

        ``concurrency=True`` adds the ODE3xx lock-footprint pass (Section
        6 read→write amplification, predicted deadlock cycles);
        ``confirm_witnesses=True`` additionally replays synthesized
        interleavings on a scratch database to tag predictions
        CONFIRMED/POSSIBLE.

        ``compilability=True`` adds the ODE4xx pass: which triggers may
        the generated-code posting tier specialize, with a diagnostic
        naming the reason for every refusal (advisory — flagged triggers
        post through the interpreter).
        """
        from repro.analysis import analyze_classes, analyze_database, analyze_registry
        from repro.analysis.cascade import TERMINATION_CODES
        from repro.errors import TriggerDeclarationError

        self._check_open()
        if targets is None:
            report = analyze_registry(
                self.registry,
                concurrency=concurrency,
                confirm_witnesses=confirm_witnesses,
                compilability=compilability,
            )
        else:
            report = analyze_classes(
                targets,
                concurrency=concurrency,
                confirm_witnesses=confirm_witnesses,
                compilability=compilability,
            )
        report.extend(analyze_database(self).diagnostics)
        if strict:
            unresolved = [
                d for d in report.diagnostics if d.code in TERMINATION_CODES
            ]
            if unresolved:
                from repro.analysis import render_text

                raise TriggerDeclarationError(
                    "check_triggers(strict=True): the analyzer cannot prove "
                    "this trigger set terminates:\n" + render_text(unresolved)
                )
        return report

    # -- lifecycle ----------------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError(f"database {self.name!r} is closed")

    def close(self) -> None:
        if self._closed:
            return
        self.storage.close()
        self._closed = True
        with Database._open_lock:
            Database._open_databases.pop(self.name, None)

    def simulate_crash(self) -> None:
        """Kill the process's view of this database without flushing."""
        if self._closed:
            return
        # A dead process never releases its locks: wake every parked
        # session with an error instead of leaving it to hang.
        self.storage.lock_manager.poison(f"database {self.name!r} crashed")
        self.storage.simulate_crash()
        self._closed = True
        Database._open_databases.pop(self.name, None)

    # -- degradation (active → read-only; DESIGN §13) ---------------------------

    @property
    def read_only(self) -> bool:
        """Whether the database has degraded to read-only after media death."""
        return self.storage.degraded

    def _on_degraded(self) -> None:
        """Storage's active → read-only transition: count it and tell obs.

        In-flight writers abort with :class:`ReadOnlyStorageError` on their
        next mutation or commit (their aborts release locks, which wakes
        their waiters); readers keep working against committed state.
        """
        self.metrics.counter("faults.degraded").inc()
        if obs.ENABLED:
            obs.emit("storage.degraded", db=self.name, engine=self.engine)


def _extent(class_name: str) -> str:
    """The symbolic lock resource standing for *class_name*'s extent."""
    return f"extent:{class_name}"
