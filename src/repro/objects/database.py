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
from itertools import groupby
from operator import itemgetter
from typing import Any

from repro import obs
from repro.errors import (
    DanglingPointerError,
    DatabaseClosedError,
    DatabaseError,
    ObjectError,
    RecordNotFoundError,
    SessionError,
)
from repro.objects.handle import PersistentHandle
from repro.objects.index import FieldIndex, load_index
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
from repro.sessions.session import (
    Session,
    SessionStats,
    TransactionBlock,
    current_ambient_session,
)
from repro.storage import open_storage
from repro.storage.btree import BTree
from repro.storage.locks import LockMode
from repro.transactions.manager import TransactionManager
from repro.transactions.phoenix import PhoenixQueue
from repro.transactions.txn import CURRENT_STATES, Transaction


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
            # dataclasses mount here (timers.* when a TimerService is
            # created).
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
            #: the committed secondary indexes (DESIGN §17 "The index
            #: set"), read from the catalog at open
            self._indexes: list[FieldIndex] = []
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
            # Imported here so the object layer has no import-time
            # dependency on the trigger system.
            from repro.core.manager import TriggerSystem

            self.trigger_system = TriggerSystem(self)
            self._bootstrap()
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
        # Nothing else runs yet, so the stored catalog is the committed one.
        catalog, _ = decode_value(self.storage.peek(self._catalog_rid), 0)
        self._indexes = [
            FieldIndex(
                self, *key[len("index:") :].rsplit(".", 1), BTree(self.storage, rid)
            )
            for key, rid in catalog.items()
            if key.startswith("index:")
        ]

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
        for index in self._indexes_for_extent(txn, cls):
            index.on_insert(txn, rid, instance.__dict__.get(index.field_name))
        handle = PersistentHandle(self, ptr, instance, self.current_session())
        self.trigger_system.on_access(txn, ptr, instance)
        from repro.core.constraints import activate_constraints, constraint_infos

        if constraint_infos(cls):
            activate_constraints(self, handle)
        return handle

    def deref(
        self, ptr: PersistentPtr, session: Session | None = None
    ) -> PersistentHandle:
        """Dereference a persistent pointer within *session*'s transaction
        (by default the calling thread's current session's).

        The one dereference function: ``Session.deref`` passes itself in,
        so a cache miss resolves its session once.  Each check is one
        inline test whose failure raises through the check that owns its
        error (DESIGN §17 "The read path")."""
        if self._closed:
            self._check_open()
        if ptr.rid < 0:
            raise DanglingPointerError("cannot dereference the null pointer")
        if ptr.db_name != self.name:
            return Database.named(ptr.db_name).deref(ptr)
        if session is None:
            session = self.current_session()
        txn = session.current_txn
        if txn is None or txn.state not in CURRENT_STATES:
            session.current_txn_or_raise()
        instance = txn.cache.get(ptr.rid)
        if instance is None:
            try:
                raw = self.storage.read(txn.txid, ptr.rid)
            except RecordNotFoundError:
                raise DanglingPointerError(f"{ptr!r} points to no object") from None
            type_name, fields, flags, group = decode_object(raw)
            instance = self.registry.find(type_name).pyclass.from_fields(fields)
            header = instance.__dict__
            header["_p_ptr"] = ptr
            header["_p_flags"] = flags
            if flags & FLAG_HAS_TRIGGERS:
                header["_p_group"] = group
            txn.cache[ptr.rid] = instance
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

        A pointer into this database whose object the transaction has
        already loaded is resolved from ``txn.cache`` as it is.  A handle
        is used as it is, and any other pointer (null, foreign, not yet
        loaded, dangling) goes through :meth:`deref`, errors included.

        A target in another database is posted through that database's
        trigger system, as its handle's ``post_event`` would post it: such
        a batch is split into maximal runs of one database, in order, and
        each run is one ``post_many`` of its own database.
        """
        self._check_open()
        resolved = []
        foreign = None  # index in *resolved* -> its database, if not this one
        cache = None
        for target, name in items:
            instance = None
            if (
                type(target) is PersistentPtr
                and target.db_name == self.name
                and not target.is_null()
            ):
                if cache is None:
                    cache = self.current_session().current_txn_or_raise().cache
                instance = cache.get(target.rid)
            if instance is not None:
                resolved.append((target, instance, name))
                continue
            handle = (
                target
                if isinstance(target, PersistentHandle)
                else self.deref(target)
            )
            if handle.database is not self:
                if foreign is None:
                    foreign = {}
                foreign[len(resolved)] = handle.database
            resolved.append((handle.ptr, handle.obj, name))
        if foreign is None:
            return self.trigger_system.post_many(self, resolved)
        firings = 0
        keyed = [(foreign.get(i, self), item) for i, item in enumerate(resolved)]
        for db, run in groupby(keyed, key=itemgetter(0)):
            firings += db.trigger_system.post_many(db, [item for _, item in run])
        return firings

    def pdelete(self, ptr: PersistentPtr) -> None:
        """Free a persistent object (O++ ``pdelete``)."""
        self._check_open()
        txn = self.txn_manager.current()
        handle = self.deref(ptr)  # also validates the pointer
        cls = type(handle.obj)
        self.storage.lock_manager.lock(txn.txid, _extent(cls.__name__), LockMode.X)
        for index in self._indexes_for_extent(txn, cls):
            index.on_delete(
                txn, ptr.rid, handle.obj.__dict__.get(index.field_name)
            )
        self.trigger_system.on_pdelete(self, ptr)
        self.storage.delete(txn.txid, ptr.rid)
        txn.cache.pop(ptr.rid, None)
        txn.dirty.discard(ptr.rid)

    # -- secondary indexes (disk Ode only; see repro.objects.index) -------------

    def create_index(self, cls: type, field_name: str):
        """Build and register a B-tree index on ``cls.field_name``."""
        from repro.objects.index import create_index

        index = create_index(self, cls, field_name)
        # The creator holds the catalog's X lock to commit, so the
        # committed list cannot change under its copy.
        txn = self.txn_manager.current()
        own = txn.attachments.get(INDEXES)
        if own is None:
            own = txn.attachments[INDEXES] = list(self._indexes)
        own.append(index)
        return index

    def _active_indexes(self, txn: Transaction) -> list:
        """The indexes *txn* maintains: its own list if it created an
        index, else the committed one (DESIGN §17 "The index set")."""
        return txn.attachments.get(INDEXES) or self._indexes

    def _indexes_for(self, txn: Transaction, cls: type) -> list:
        return [idx for idx in self._active_indexes(txn) if idx.applies_to(cls)]

    def _indexes_for_extent(self, txn: Transaction, cls: type) -> list:
        """:meth:`_indexes_for` for ``pnew``/``pdelete``, which hold their
        extent's X lock and S-lock the catalog (no read), so an index
        build in flight finishes before they ask."""
        self.storage.lock_manager.lock(txn.txid, self._catalog_rid, LockMode.S)
        return self._indexes_for(txn, cls)

    def withdraw_indexes(self, txn: Transaction) -> None:
        """Give back the committed index list an aborting *txn* replaced
        in its ``flush_transaction`` (called before its locks are
        released)."""
        replaced = txn.attachments.pop(REPLACED_INDEXES, None)
        if replaced is not None:
            self._indexes = replaced

    def find(self, cls: type, field_name: str, value) -> list[PersistentHandle]:
        """Exact-match index lookup; returns handles."""
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
        dirty = txn.dirty
        if dirty:
            for rid in sorted(dirty):
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
            dirty.clear()
        # A transaction that posted keeps its state store among its
        # attachments, and one that created an index its index list; one
        # with none (every read-only commit, every plain writer) has no
        # group to write and nothing to publish.
        if txn.attachments:
            own = txn.attachments.get(INDEXES)
            if own is not None:
                # Published while the locks its backfill took are held
                # (DESIGN §17 "The index set").
                txn.attachments[REPLACED_INDEXES] = self._indexes
                self._indexes = own
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
        """O++ transaction block in the current session, which is ambient
        for the block: commit on success, ``tabort`` aborts quietly."""
        return self.current_session().transaction()

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


#: ``txn.attachments`` key: the index list of a transaction that created
#: an index (the committed list plus its own)
INDEXES = "db:indexes"
#: ``txn.attachments`` key: the committed list that publishing it replaced
REPLACED_INDEXES = "db:indexes:replaced"


def _extent(class_name: str) -> str:
    """The symbolic lock resource standing for *class_name*'s extent."""
    return f"extent:{class_name}"
