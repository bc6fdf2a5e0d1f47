"""Named failpoints and a deterministic fault injector.

The storage stack calls :meth:`FaultInjector.fire` at *control* points
("about to fsync the WAL") and :meth:`FaultInjector.fire_write` at *write*
points, where the fault can also mangle the bytes about to hit the disk
(torn/partial appends, bit flips).  With no injector armed both calls are
no-ops, so production code pays one attribute lookup per failpoint.

Determinism is the design center: every fire increments a global hit
counter, a recording run captures the full trace, and the crash matrix
re-runs the same workload with a crash armed at hit *k* for every *k* the
recording saw.  Nothing here consults the clock or a PRNG — bit flips use
a fixed XOR mask, torn writes a fixed fraction — so a failing point
replays exactly.

Fault kinds
-----------

``CRASH``
    Raise :class:`~repro.errors.InjectedCrashError` *before* the guarded
    operation runs.  Once a crash fires the injector is poisoned: every
    later fire also raises, modelling a dead process that cannot touch the
    disk again.  The harness then calls ``simulate_crash()`` which drops
    all un-fsynced state (see ``WriteAheadLog.crash``).
``TORN_WRITE``
    At a write point: persist only a prefix of the payload, then crash.
    Models a power cut mid-``write(2)``.
``BIT_FLIP``
    At a write point: flip one bit of the payload (after any checksum was
    stamped, so the corruption is *detectable*) and carry on silently.
    Models firmware/cable corruption; ``fsck`` and CRC checks must catch it.
``IO_ERROR``
    Raise :class:`~repro.errors.TransientIOError` for the armed number of
    hits; the engine's bounded retry loop (:func:`with_retry`) absorbs it.
``MEDIA_ERROR``
    Raise :class:`~repro.errors.UnrecoverableMediaError`, *sticky*: every
    later hit of the same point fails too.  The engine degrades the store
    to read-only instead of corrupting it.
``STALL``
    Sleep for ``delay`` seconds, then carry on — a slow disk, not a dead
    one.  The one kind that consults the clock, so it is reserved for the
    threaded chaos scenarios (E18, bounded-wait tests); deterministic
    matrices never arm it.

Thread safety: all the injector's mutable state — the global hit counter,
the recording trace, per-fault ``_seen``/``_fired`` progress, and the
poisoned-after-crash flag — is guarded by one internal mutex, because a
database shared by threaded sessions funnels every failpoint through one
injector.  Without the lock two racing ``hits += 1`` can observe the same
index and a fault armed ``after=k`` can silently never fire.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from collections.abc import Callable

from repro.errors import (
    InjectedCrashError,
    TransientIOError,
    UnrecoverableMediaError,
)


class FaultKind(enum.Enum):
    CRASH = "crash"
    TORN_WRITE = "torn_write"
    BIT_FLIP = "bit_flip"
    IO_ERROR = "io_error"
    MEDIA_ERROR = "media_error"
    STALL = "stall"


@dataclasses.dataclass
class Fault:
    """One armed fault: fire *kind* at failpoint *point*.

    ``after`` skips that many matching hits first; ``count`` limits how
    many times the fault fires (ignored for sticky media errors, which
    never heal).  ``fraction`` is the kept prefix for torn writes;
    ``delay`` is the stall duration for :attr:`FaultKind.STALL`.
    """

    point: str
    kind: FaultKind
    after: int = 0
    count: int = 1
    fraction: float = 0.5
    delay: float = 0.01

    # runtime state
    _seen: int = dataclasses.field(default=0, repr=False)
    _fired: int = dataclasses.field(default=0, repr=False)

    def should_fire(self) -> bool:
        self._seen += 1
        if self._seen <= self.after:
            return False
        if self.kind is FaultKind.MEDIA_ERROR:
            return True  # sticky: the medium never heals
        if self._fired >= self.count:
            return False
        self._fired += 1
        return True


@dataclasses.dataclass(frozen=True)
class HitRecord:
    """One failpoint hit observed during a recording run."""

    index: int  # global hit number (0-based)
    point: str
    writes: bool  # True for fire_write points


class FaultInjector:
    """Deterministic failpoint dispatcher.

    Modes (combinable):

    * **recording** — count every hit into :attr:`trace`, never fault.
    * **crash_at** — raise an injected crash at global hit index *k*
      (the crash-matrix workhorse).
    * **faults** — arm :class:`Fault` plans per failpoint name.
    """

    def __init__(
        self,
        faults: list[Fault] | None = None,
        *,
        recording: bool = False,
        crash_at: int | None = None,
    ):
        self.recording = recording
        self.crash_at = crash_at
        self.trace: list[HitRecord] = []
        self.hits = 0
        self.crashed = False
        #: Where the *first* crash fired.  Once poisoned, every later
        #: failpoint raises too (often from inside the abort path the
        #: original crash triggered), and that re-raise can shadow the
        #: original exception — so harnesses read the true point here.
        self.crash_point: str | None = None
        self.crash_index: int | None = None
        self._faults: dict[str, list[Fault]] = {}
        # One mutex for all mutable injector state; every failpoint of a
        # threaded multi-session database dispatches through here.
        self._lock = threading.Lock()
        for fault in faults or []:
            self.add(fault)

    def add(self, fault: Fault) -> "FaultInjector":
        with self._lock:
            self._faults.setdefault(fault.point, []).append(fault)
        return self

    def crash_on(self, point: str, after: int = 0) -> "FaultInjector":
        return self.add(Fault(point, FaultKind.CRASH, after=after))

    # -- firing ----------------------------------------------------------------

    def fire(self, point: str, **context) -> None:
        """A control failpoint: may raise or stall, never alters data."""
        fault = self._dispatch(point, writes=False)
        if fault is None:
            return
        if fault.kind is FaultKind.STALL:
            time.sleep(fault.delay)  # outside the mutex: a slow disk, not a held lock
            return
        self._raise_for(fault, point)

    def fire_write(
        self, point: str, data: bytes, **context
    ) -> tuple[bytes, bool]:
        """A write failpoint guarding *data* about to be written.

        Returns ``(data_to_write, crash_after_write)``.  Torn writes hand
        back a prefix with ``crash_after_write=True``: the caller must
        write the prefix, make it durable, and then re-raise the pending
        crash via :meth:`crash_pending`.  Bit flips return mangled bytes
        and no crash.  Other kinds raise like :meth:`fire`.
        """
        fault = self._dispatch(point, writes=True)
        if fault is None:
            return data, False
        if fault.kind is FaultKind.STALL:
            time.sleep(fault.delay)
            return data, False
        if fault.kind is FaultKind.TORN_WRITE:
            keep = max(1, min(len(data) - 1, int(len(data) * fault.fraction)))
            with self._lock:
                self._mark_crashed_locked(point, self.hits - 1)
            return data[:keep], True
        if fault.kind is FaultKind.BIT_FLIP:
            if not data:
                return data, False
            mangled = bytearray(data)
            mangled[len(mangled) // 2] ^= 0x40  # deterministic single-bit flip
            return bytes(mangled), False
        self._raise_for(fault, point)
        raise AssertionError("unreachable")  # pragma: no cover

    def crash_pending(self, point: str) -> None:
        """Raise the crash a torn write deferred until after its prefix."""
        raise InjectedCrashError(point, self.hits)

    # -- internals ------------------------------------------------------------

    def _dispatch(self, point: str, writes: bool) -> Fault | None:
        """Count the hit; return the fault to apply, if any."""
        with self._lock:
            if self.crashed:
                # A dead process cannot reach another failpoint: every guarded
                # operation after the crash must fail before touching the disk.
                raise InjectedCrashError(point, self.hits)
            index = self.hits
            self.hits += 1
            if self.recording:
                self.trace.append(HitRecord(index, point, writes))
                return None
            if self.crash_at is not None and index == self.crash_at:
                self._mark_crashed_locked(point, index)
                raise InjectedCrashError(point, index)
            for fault in self._faults.get(point, ()):
                if fault.should_fire():
                    return fault
            return None

    def _mark_crashed_locked(self, point: str, index: int) -> None:
        self.crashed = True
        if self.crash_point is None:
            self.crash_point = point
            self.crash_index = index

    def _raise_for(self, fault: Fault, point: str) -> None:
        if fault.kind is FaultKind.CRASH:
            with self._lock:
                self._mark_crashed_locked(point, self.hits - 1)
            raise InjectedCrashError(point, self.hits - 1)
        if fault.kind is FaultKind.IO_ERROR:
            raise TransientIOError(5, f"injected transient I/O error at {point}")
        if fault.kind is FaultKind.MEDIA_ERROR:
            raise UnrecoverableMediaError(
                f"injected unrecoverable media error at failpoint {point!r}"
            )
        raise AssertionError(
            f"fault kind {fault.kind} is only valid at write failpoints"
        )


class _NullInjector(FaultInjector):
    """The default injector: every fire is a no-op (and stays one)."""

    def __init__(self):
        super().__init__()

    def fire(self, point: str, **context) -> None:
        return None

    def fire_write(self, point: str, data: bytes, **context):
        return data, False

    def add(self, fault: Fault) -> FaultInjector:  # pragma: no cover - misuse
        raise ValueError("cannot arm faults on the shared NULL_INJECTOR")


NULL_INJECTOR: FaultInjector = _NullInjector()


# ---------------------------------------------------------------------------
# Transient-error retry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient ``OSError``."""

    attempts: int = 4
    backoff: float = 0.0005  # seconds before the first retry
    multiplier: float = 2.0


DEFAULT_RETRY = RetryPolicy()


def with_retry(
    op: Callable[..., object],
    policy: RetryPolicy = DEFAULT_RETRY,
    on_retry: Callable[[], None] | None = None,
):
    """Run *op*, retrying transient ``OSError``s per *policy*.

    :class:`~repro.errors.UnrecoverableMediaError` and injected crashes are
    *not* ``OSError`` subclasses and pass straight through — retrying a
    dead medium or a dead process is meaningless.  The last ``OSError`` is
    re-raised once the attempt budget is exhausted.
    """
    try:
        return op()
    except OSError as error:
        return retry_failed(error, op, policy=policy, on_retry=on_retry)


def retry_failed(
    error: OSError,
    op: Callable[..., object],
    *args: object,
    policy: RetryPolicy = DEFAULT_RETRY,
    on_retry: Callable[[], None] | None = None,
):
    """Continue :func:`with_retry` after ``op(*args)``'s first attempt
    raised *error*: the remaining attempts of *policy*'s budget, each after
    one *on_retry* call and the backoff.

    The I/O paths make their first attempt inline and call this only from
    their ``except OSError`` — the common, successful path builds no
    closure and enters no retry loop.
    """
    delay = policy.backoff
    for _ in range(policy.attempts - 1):
        if on_retry is not None:
            on_retry()
        if delay > 0:
            time.sleep(delay)
        delay *= policy.multiplier
        try:
            return op(*args)
        except OSError as again:
            error = again
    raise error
