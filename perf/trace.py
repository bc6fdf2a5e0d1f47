"""Outside-in tracer: spans at every layer boundary, recorded from here.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public functions at each layer boundary (the table in
:func:`_targets`) with timing wrappers and :meth:`Tracer.uninstall` puts
the original objects back.  A wrapper records one span
``(layer, start, end, parent, txn_id)`` into a pre-allocated list; nothing
is written out or summed until the timed loop has finished.

Rules that make the account add up:

* Spans exist only inside a *root* span, which the runner opens around
  each client transaction (:meth:`Tracer.run_root`).  Setup, warm-up and
  oracle reads are never traced.
* A call into the layer that is already innermost on this thread records
  no new span (``Session.run`` -> ``Session.transaction``, ``force`` ->
  ``force_now``, the recursion of ``decode_value``): the outer span
  already covers it, so per-layer call counts are counts of *entries into
  the layer*.
* A span's **self time** is its duration minus the durations of its direct
  children.  Self times of all spans under a root sum to the root's
  duration exactly, so nothing is counted twice.
* The benchmark's own transaction body is the ``client`` span.  Its self
  time (the body's own Python and whatever it calls that is not in the
  table) and the root's self time are what ``trace.unattributed_frac``
  reports: time in no named layer of the system.

``repro.obs`` stays disabled: enabling it swaps the compiled posting tier
for the interpreter, which is not the configuration being measured.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter

ROOT = "txn"
CLIENT = "client"

SESSIONS = "sessions.run"
TXN_BEGIN = "transactions.begin"
TXN_COMMIT = "transactions.commit"
TXN_ABORT = "transactions.abort"
DEREF = "objects.deref"
HANDLE = "objects.handle"
FLUSH = "objects.flush"
DECODE = "serialize.decode"
ENCODE = "serialize.encode"
PMAP_GET = "pmap.get"
PMAP_PUT = "pmap.put"
INDEX_LOOKUP = "trigger_index.lookup"
INDEX_UPDATE = "trigger_index.update"
POST = "posting.post"
ACTION = "posting.action"
MERGE = "versioned.merge"
LOCK = "locks.lock"
LOCK_WAIT = "locks.wait"
LOCK_RELEASE = "locks.release"
WAL_APPEND = "wal.append"
WAL_FORCE = "wal.force"
BUFFER = "buffer.fetch"
STORAGE_READ = "storage.read"
STORAGE_WRITE = "storage.write"
STORAGE_COMMIT = "storage.commit"

#: Spans pre-allocated per transaction; a run that needs more drops spans and
#: is reported as failed (fanout_mm records 144 per transaction at this
#: commit, cards_disk 66 on average).
SPANS_PER_TXN_CAP = 512


CALL, CONTEXT, RECURSIVE = "call", "context", "recursive"


def _targets():
    """``(layer, owner, attribute, kind)`` for every wrapped public call.

    *kind* is ``CALL`` for a function or method, ``CONTEXT`` for one that
    returns a context manager (the span lasts from ``__enter__`` to
    ``__exit__``), and ``RECURSIVE`` for a module-level function that calls
    itself: it is wrapped only where other modules imported it by name, so
    the recursion inside its own module does not pass through the tracer.

    Imported here, not at module load, so importing :mod:`perf.trace` never
    imports the system under test."""
    from repro.core import posting
    from repro.core.manager import TriggerSystem
    from repro.core.trigger_index import TriggerIndex
    from repro.core.trigger_state import TriggerState
    from repro.core.versioned import TriggerVersionManager
    from repro.objects import serialize
    from repro.objects.database import Database
    from repro.objects.handle import PersistentHandle
    from repro.objects.pmap import PersistentMap
    from repro.sessions.session import Session
    from repro.storage.buffer import BufferPool, PagedFile
    from repro.storage.disk import DiskStorageManager
    from repro.storage.locks import LockManager
    from repro.storage.mainmem import MainMemoryStorageManager
    from repro.storage.wal import WriteAheadLog
    from repro.transactions.manager import TransactionManager

    table = [
        (SESSIONS, Session, "run", CALL),
        (SESSIONS, Session, "transaction", CONTEXT),
        (SESSIONS, Database, "transaction", CONTEXT),
        # The data plane's delegates: their own time is ``ambient_session``.
        (SESSIONS, Session, "deref", CALL),
        (SESSIONS, Session, "post_many", CALL),
        (TXN_BEGIN, TransactionManager, "begin", CALL),
        (TXN_COMMIT, TransactionManager, "commit", CALL),
        (TXN_ABORT, TransactionManager, "abort", CALL),
        (DEREF, Database, "deref", CALL),
        # The proxy a client holds: attribute reads and writes, member
        # calls and explicit postings all pass through these.
        (HANDLE, PersistentHandle, "__getattr__", CALL),
        (HANDLE, PersistentHandle, "__setattr__", CALL),
        (HANDLE, PersistentHandle, "_scoped", CALL),
        (HANDLE, PersistentHandle, "post_event", CALL),
        (FLUSH, Database, "flush_transaction", CALL),
        (FLUSH, Database, "mark_dirty", CALL),
        (DECODE, serialize, "decode_object", CALL),
        (DECODE, serialize, "decode_value", RECURSIVE),
        (DECODE, TriggerState, "decode", CALL),
        (ENCODE, serialize, "encode_object", CALL),
        (ENCODE, serialize, "encode_value", RECURSIVE),
        (ENCODE, TriggerState, "encode", CALL),
        (PMAP_GET, PersistentMap, "get", CALL),
        (PMAP_PUT, PersistentMap, "put", CALL),
        (PMAP_PUT, PersistentMap, "remove", CALL),
        (INDEX_LOOKUP, TriggerIndex, "lookup", CALL),
        (INDEX_UPDATE, TriggerIndex, "add", CALL),
        (INDEX_UPDATE, TriggerIndex, "remove", CALL),
        (POST, TriggerSystem, "post_event", CALL),
        (POST, TriggerSystem, "post_user_event", CALL),
        (POST, TriggerSystem, "post_many", CALL),
        (ACTION, posting, "run_action", CALL),
        (MERGE, TriggerVersionManager, "commit_merge", CALL),
        (MERGE, TriggerVersionManager, "publish", CALL),
        (LOCK, LockManager, "lock", CALL),
        (LOCK, LockManager, "acquire_blocking", CALL),
        # The only place a session sleeps for a lock: the stripe's
        # condition variable.  Group commit (which also waits on one) is
        # off in the default configuration.
        (LOCK_WAIT, threading.Condition, "wait", CALL),
        (LOCK_RELEASE, LockManager, "release_all", CALL),
        (WAL_APPEND, WriteAheadLog, "append", CALL),
        (WAL_FORCE, WriteAheadLog, "force", CALL),
        (WAL_FORCE, WriteAheadLog, "force_now", CALL),
        (BUFFER, BufferPool, "fetch", CALL),
        (BUFFER, BufferPool, "unpin", CALL),
        (BUFFER, PagedFile, "read_page", CALL),
        (BUFFER, PagedFile, "write_page", CALL),
    ]
    for engine in (DiskStorageManager, MainMemoryStorageManager):
        table += [
            (STORAGE_READ, engine, "read", CALL),
            (STORAGE_WRITE, engine, "write", CALL),
            (STORAGE_WRITE, engine, "insert", CALL),
            (STORAGE_WRITE, engine, "delete", CALL),
            (STORAGE_COMMIT, engine, "commit_transaction", CALL),
            (STORAGE_COMMIT, engine, "abort_transaction", CALL),
        ]
    return table


class _SpanContext:
    """A context manager that is one span from ``__enter__`` to ``__exit__``."""

    __slots__ = ("_tracer", "_layer", "_inner", "_open")

    def __init__(self, tracer, layer, inner):
        self._tracer = tracer
        self._layer = layer
        self._inner = inner
        self._open = None

    def __enter__(self):
        self._open = self._tracer._open_span(self._layer)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._tracer._close_span(self._open)
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer._close_span(self._open)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, transactions: int):
        self.capacity = transactions * SPANS_PER_TXN_CAP
        self.spans: list = [None] * self.capacity
        self.dropped = 0
        #: Spans recorded; set by :meth:`uninstall`, which ends recording.
        self.used = 0
        self._next = itertools.count().__next__  # atomic under the GIL
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for layer, owner, attr, kind in _targets():
            original = vars(owner)[attr]
            wrap = self._wrap_context if kind is CONTEXT else self._wrap_call
            if isinstance(original, classmethod):
                replacement = classmethod(wrap(layer, original.__func__))
            else:
                replacement = wrap(layer, original)
            if isinstance(owner, type):
                self._set(owner, attr, original, replacement)
                continue
            # A module-level function: callers that did
            # ``from module import name`` hold their own reference.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith("repro") or vars(module).get(attr) is not original:
                    continue
                if module is owner and kind is RECURSIVE:
                    continue
                self._set(module, attr, original, replacement)

    def _set(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back and freeze the span count."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.used = min(self._next(), self.capacity)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` for everything now replaced."""
        return list(self._patched)

    # -- recording ---------------------------------------------------------

    def _wrap_call(self, layer, fn):
        spans = self.spans
        local = self._local
        next_index = self._next

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                return fn(*args, **kwargs)  # a thread that never opened a root
            if not stack:
                return fn(*args, **kwargs)  # outside any root
            top = stack[-1]
            if top[0] is layer:
                return fn(*args, **kwargs)  # already inside this layer
            index = next_index()
            stack.append((layer, index))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                try:
                    spans[index] = (layer, start, end, top[1], local.txn)
                except IndexError:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _wrap_context(self, layer, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if not stack or stack[-1][0] is layer:
                return inner
            return _SpanContext(self, layer, inner)

        traced.__wrapped__ = fn
        return traced

    def _open_span(self, layer):
        stack = self._local.stack
        frame = (layer, self._next(), stack[-1][1], perf_counter())
        stack.append(frame)
        return frame

    def _close_span(self, frame) -> None:
        end = perf_counter()
        layer, index, parent, start = frame
        self._local.stack.pop()
        self._record(index, (layer, start, end, parent, self._local.txn))

    def _record(self, index, span) -> None:
        # _wrap_call inlines this: one call less on the hottest path.
        try:
            self.spans[index] = span
        except IndexError:
            self.dropped += 1

    def run_root(self, txn_id: int, fn, arg) -> None:
        """Run ``fn(arg)`` as the root span of client transaction *txn_id*."""
        local = self._local
        index = self._next()
        local.stack = [(ROOT, index)]
        local.txn = txn_id
        start = perf_counter()
        try:
            fn(arg)
        finally:
            end = perf_counter()
            local.stack = []
            self._record(index, (ROOT, start, end, -1, txn_id))

    def client(self, body):
        """Wrap the benchmark's own transaction body as a ``client`` span."""
        return self._wrap_call(CLIENT, body)

    # -- the account -------------------------------------------------------

    def account(self) -> dict:
        """Sum self time and entries per layer (call after :meth:`uninstall`).

        Returns ``{"self_s": {layer: seconds}, "calls": {layer: n},
        "root_s": seconds, "spans": n, "decodes_under_lookup": n}``.
        """
        used = self.used
        spans = self.spans
        child_time = [0.0] * used
        # A span's index is assigned on entry, so a parent always has a
        # smaller index than its children: one forward pass suffices.
        under_lookup = [False] * used
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        decodes_under_lookup = 0
        root_s = 0.0
        for index in range(used):
            span = spans[index]
            if span is None:
                continue
            layer, start, end, parent, _txn = span
            if parent < 0:
                root_s += end - start
            else:
                child_time[parent] += end - start
                under_lookup[index] = (
                    under_lookup[parent] or spans[parent][0] is INDEX_LOOKUP
                )
                if layer is DECODE and under_lookup[index]:
                    decodes_under_lookup += 1
            calls[layer] = calls.get(layer, 0) + 1
        for index in range(used):
            span = spans[index]
            if span is None:
                continue
            layer, start, end, _parent, _txn = span
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[index]
        return {
            "self_s": self_s,
            "calls": calls,
            "root_s": root_s,
            "spans": sum(calls.values()),
            "decodes_under_lookup": decodes_under_lookup,
        }

    def write_jsonl(self, path: str) -> None:
        used = self.used
        with open(path, "w", encoding="utf-8") as out:
            for index in range(used):
                span = self.spans[index]
                if span is None:
                    continue
                layer, start, end, parent, txn = span
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "txn": txn,
                        }
                    )
                    + "\n"
                )
