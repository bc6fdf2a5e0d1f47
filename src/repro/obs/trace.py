"""Bounded-ring trace recorder with JSONL export and a span pretty-printer.

A :class:`TraceRecorder` collects :class:`TraceRecord` entries from the
instrumentation hooks threaded through the trigger pipeline (post → index
lookup → FSM advance → mask eval → pseudo-event quiesce → fire, plus
transaction, WAL, buffer-pool, lock, and timer events).  The buffer is a
fixed-capacity ring: a long benchmark keeps the most recent window and
counts what it dropped instead of growing without bound.

Records are flat — no in-memory tree.  Nesting is carried by the ``span``
field: posting emits ``post.begin`` with a fresh span id, every record the
posting produces carries that id, and ``post.end`` closes it.  The
pretty-printer (:func:`render_trace`) reconstructs the per-posting blocks,
which keeps the hot-path cost of a record at "append one tuple".

Export is JSONL, one record per line; :func:`records_from_jsonl` inverts
:func:`records_to_jsonl` exactly (values are coerced to JSON-safe forms at
*emit* time, so a round trip is identity — the cross-feature suite checks
this against a traced crash-recovery run).
"""

from __future__ import annotations

import collections
import dataclasses
import io
import json
import threading
import time
from typing import Any, Iterable

from repro.obs.metrics import ObsStats

#: Span id meaning "not inside any posting span".
NO_SPAN = 0


def _jsonable(value: Any) -> Any:
    """Coerce *value* to a JSON-round-trippable form (at emit time)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One structured trace entry.

    ``data`` is a tuple of ``(key, value)`` pairs — immutable, so a record
    can never alias live posting state (the ``EventOccurrence.kwargs``
    lesson applies here too).
    """

    seq: int
    ts: float
    kind: str
    span: int = NO_SPAN
    data: tuple = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.data:
            if k == key:
                return v
        return default

    def to_json_obj(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "span": self.span,
            "data": dict(self.data),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceRecord":
        return cls(
            seq=int(obj["seq"]),
            ts=float(obj["ts"]),
            kind=str(obj["kind"]),
            span=int(obj.get("span", NO_SPAN)),
            data=tuple(obj.get("data", {}).items()),
        )


class TraceRecorder:
    """Fixed-capacity ring of trace records.

    Sessions trace on several threads: sequence numbers, span ids and
    the :class:`ObsStats` counts are allocated under one lock, so each
    record's ``seq`` and each span id is unique and the counts are exact.
    """

    def __init__(self, capacity: int = 65536, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._epoch = clock()
        self._ring: collections.deque[TraceRecord] = collections.deque(
            maxlen=capacity
        )
        self._next_seq = 1
        self._next_span = 1
        self._lock = threading.Lock()
        self.stats = ObsStats()

    # -- emitting -------------------------------------------------------------

    def emit(self, kind: str, span: int = NO_SPAN, **data: Any) -> TraceRecord:
        """Append one record; drops the oldest when the ring is full."""
        data = tuple((k, _jsonable(v)) for k, v in data.items())
        with self._lock:
            record = TraceRecord(
                seq=self._next_seq,
                ts=round(self._clock() - self._epoch, 9),
                kind=kind,
                span=span,
                data=data,
            )
            self._next_seq += 1
            if len(self._ring) == self.capacity:
                self.stats.records_dropped += 1
            self._ring.append(record)
            self.stats.records_emitted += 1
        return record

    def begin_span(self, kind: str, **data: Any) -> int:
        """Emit ``<kind>.begin`` under a fresh span id; returns the id."""
        with self._lock:
            span = self._next_span
            self._next_span += 1
            self.stats.spans_opened += 1
        self.emit(kind + ".begin", span, **data)
        return span

    def end_span(self, span: int, kind: str, **data: Any) -> None:
        self.emit(kind + ".end", span, **data)

    # -- reading ---------------------------------------------------------------

    def records(self) -> list[TraceRecord]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    # -- JSONL ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        return records_to_jsonl(self.records())

    def export(self, path: str) -> int:
        """Write the buffer to *path* as JSONL; returns the record count."""
        records = self.records()
        with open(path, "w") as fh:
            fh.write(records_to_jsonl(records))
        return len(records)


def records_to_jsonl(records: Iterable[TraceRecord]) -> str:
    out = io.StringIO()
    for record in records:
        out.write(json.dumps(record.to_json_obj(), sort_keys=False))
        out.write("\n")
    return out.getvalue()


def records_from_jsonl(text: str) -> list[TraceRecord]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(TraceRecord.from_json_obj(json.loads(line)))
    return records


def load_jsonl(path: str) -> list[TraceRecord]:
    with open(path) as fh:
        return records_from_jsonl(fh.read())


# -- pretty-printing ----------------------------------------------------------

#: kinds that open/close a rendered block.
_BEGIN_SUFFIX = ".begin"
_END_SUFFIX = ".end"


def _fmt_data(record: TraceRecord, skip: tuple[str, ...] = ()) -> str:
    parts = [f"{k}={v!r}" for k, v in record.data if k not in skip]
    return " ".join(parts)


def render_record(record: TraceRecord) -> str:
    """One human line for one record (used for non-span records)."""
    return f"[{record.seq:>6}] {record.ts:>10.6f}s {record.kind} {_fmt_data(record)}".rstrip()


def render_trace(records: Iterable[TraceRecord]) -> list[str]:
    """Render a record stream as per-posting blocks.

    Records inside a span (``span != 0``) are indented under their
    ``*.begin`` line; ``fire`` records are numbered so the firing order of
    a multi-trigger posting is explicit.  Records outside any span print
    flat.  A span whose ``begin`` was dropped by the ring still renders
    (indented, labelled with its span id).
    """
    lines: list[str] = []
    fire_order: dict[int, int] = {}
    for record in records:
        if record.kind.endswith(_BEGIN_SUFFIX) and record.span != NO_SPAN:
            head = record.kind[: -len(_BEGIN_SUFFIX)]
            lines.append(
                f"[{record.seq:>6}] {record.ts:>10.6f}s {head} span={record.span} "
                f"{_fmt_data(record)}".rstrip()
            )
        elif record.kind.endswith(_END_SUFFIX) and record.span != NO_SPAN:
            head = record.kind[: -len(_END_SUFFIX)]
            lines.append(
                f"    [{record.seq:>6}] end {head} {_fmt_data(record)}".rstrip()
            )
            fire_order.pop(record.span, None)
        elif record.span != NO_SPAN:
            prefix = "    "
            label = record.kind
            if record.kind == "fire":
                order = fire_order.get(record.span, 0) + 1
                fire_order[record.span] = order
                label = f"fire #{order}"
            lines.append(
                f"{prefix}[{record.seq:>6}] {label} {_fmt_data(record)}".rstrip()
            )
        else:
            lines.append(render_record(record))
    return lines


def summarize_trace(records: Iterable[TraceRecord]) -> dict[str, int]:
    """Record counts per kind — the quick shape of a session."""
    counts: dict[str, int] = {}
    for record in records:
        counts[record.kind] = counts.get(record.kind, 0) + 1
    return counts
