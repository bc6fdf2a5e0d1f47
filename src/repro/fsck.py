"""Storage integrity checker — ``python -m repro.tools fsck``.

Two passes, modelled on a filesystem fsck:

* **physical** — reads the disk engine's ``.data`` file directly (read-only,
  no engine involved): per-page CRC32, slotted-page structure, record flag
  validity, and the forward/body-segment graph (broken chains, orphaned
  bodies).  The ``.wal`` file is frame-scanned for interior corruption
  (a torn *tail* is normal after a crash and only reported as info).
* **logical** — opens the database normally, which runs crash recovery
  first (exactly like an fsck replaying the journal), then checks: catalog
  referential integrity, B-tree invariants for every registered index,
  trigger group ↔ object-header consistency (both directions: a header
  naming a missing group or another object's, a group whose anchor is
  gone or names another group, and orphaned group records no header
  names), and the phoenix intention queue (well-formedness plus dangling
  persistent pointers inside payloads).

Every finding carries a *stable* ``ODE1xx`` code in the style of the
static trigger analyzer (:mod:`repro.analysis.diagnostics`, codes
``ODE0xx``) so tests and CI gates match on codes, not message text.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib

from repro.analysis.diagnostics import Severity
from repro.core.trigger_state import TriggerGroup
from repro.errors import OdeError, WALError
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_value, peek_object
from repro.storage.buffer import checksum_ok
from repro.storage.disk import (
    FLAG_FORWARD,
    FLAG_MOVED,
    FLAG_SEGMENT,
    FWD,
    MAGIC,
    RECORD_FLAGS,
    pack_rid,
)
from repro.storage.page import (
    CHECKSUM,
    PAGE_HEADER,
    PAGE_SIZE,
    SLOT,
    TOMBSTONE,
    USABLE_END,
)

#: The stable fsck catalogue: code -> (default severity, title).
#: Grouped by pass: 10x physical pages, 11x catalog, 12x B-trees,
#: 13x trigger states, 14x phoenix queue, 15x WAL/open.
CODES: dict[str, tuple[Severity, str]] = {
    "ODE100": (Severity.ERROR, "data file truncated mid-page"),
    "ODE101": (Severity.ERROR, "page checksum mismatch"),
    "ODE102": (Severity.ERROR, "slotted page structure corrupt"),
    "ODE103": (Severity.ERROR, "invalid record flag"),
    "ODE104": (Severity.ERROR, "broken forward/body chain"),
    "ODE105": (Severity.WARNING, "orphaned record body"),
    "ODE106": (Severity.ERROR, "data file header corrupt"),
    "ODE110": (Severity.ERROR, "catalog entry references a missing record"),
    "ODE120": (Severity.ERROR, "B-tree invariant violated"),
    "ODE121": (Severity.ERROR, "B-tree unreadable"),
    "ODE130": (Severity.ERROR, "trigger-state referential integrity violated"),
    "ODE131": (Severity.WARNING, "trigger group record that no header names"),
    "ODE132": (Severity.INFO, "trigger type not importable here (check skipped)"),
    "ODE140": (Severity.ERROR, "malformed phoenix queue"),
    "ODE141": (Severity.WARNING, "phoenix intention references a missing object"),
    "ODE142": (Severity.INFO, "phoenix intentions pending"),
    "ODE150": (Severity.ERROR, "interior WAL corruption"),
    "ODE151": (Severity.ERROR, "database cannot be opened"),
    "ODE152": (Severity.INFO, "torn WAL tail (recoverable)"),
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One fsck finding with a stable code."""

    code: str
    message: str
    severity: Severity | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown fsck code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODES[self.code][0])

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def render(self) -> str:
        return f"{self.code} {self.severity}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "title": self.title,
            "message": self.message,
        }


@dataclasses.dataclass
class FsckReport:
    """Findings plus the coverage counters of one fsck run."""

    path: str
    findings: list[Finding] = dataclasses.field(default_factory=list)
    pages_scanned: int = 0
    records_scanned: int = 0
    trigger_states_scanned: int = 0
    intentions_scanned: int = 0

    def add(self, code: str, message: str) -> None:
        self.findings.append(Finding(code, message))

    def by_code(self, code: str) -> list[Finding]:
        return [f for f in self.findings if f.code == code]

    @property
    def ok(self) -> bool:
        """Clean = nothing at warning severity or above."""
        return all(f.severity < Severity.WARNING for f in self.findings)

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        errors = sum(1 for f in self.findings if f.severity >= Severity.ERROR)
        warnings = sum(1 for f in self.findings if f.severity == Severity.WARNING)
        lines.append(
            f"{self.path}: {self.pages_scanned} page(s), "
            f"{self.records_scanned} record(s), "
            f"{self.trigger_states_scanned} trigger state(s), "
            f"{self.intentions_scanned} intention(s) checked — "
            f"{errors} error(s), {warnings} warning(s)"
        )
        lines.append("clean" if self.ok else "NOT CLEAN")
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "ok": self.ok,
                "pages_scanned": self.pages_scanned,
                "records_scanned": self.records_scanned,
                "trigger_states_scanned": self.trigger_states_scanned,
                "intentions_scanned": self.intentions_scanned,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# Physical pass (disk engine files, read-only)
# ---------------------------------------------------------------------------
# The page format is imported from its owners (storage.page for the slotted
# page, storage.disk for record flags, forwarding and the header magic).


def _scan_page_records(
    report: FsckReport, page_no: int, raw: bytes
) -> dict[int, bytes]:
    """Structural checks on one slotted page; returns rid -> payload."""
    records: dict[int, bytes] = {}
    slot_count, free_end = PAGE_HEADER.unpack_from(raw, 0)
    directory_end = PAGE_HEADER.size + slot_count * SLOT.size
    if free_end > USABLE_END or directory_end > free_end:
        report.add(
            "ODE102",
            f"page {page_no}: header out of bounds "
            f"(slots={slot_count}, free_end={free_end})",
        )
        return records
    for slot_no in range(slot_count):
        offset, length = SLOT.unpack_from(raw, PAGE_HEADER.size + slot_no * SLOT.size)
        if offset == TOMBSTONE:
            continue
        rid = pack_rid(page_no, slot_no)
        if offset < directory_end or offset + length > USABLE_END:
            report.add(
                "ODE102",
                f"page {page_no} slot {slot_no}: record "
                f"[{offset}, {offset + length}) outside the heap",
            )
            continue
        payload = raw[offset : offset + length]
        if not payload or payload[0] not in RECORD_FLAGS:
            flag = payload[0] if payload else None
            report.add("ODE103", f"rid {rid}: flag byte {flag!r}")
            continue
        records[rid] = payload
        report.records_scanned += 1
    return records


def _check_record_graph(report: FsckReport, records: dict[int, bytes]) -> None:
    """Forward pointers and body-segment chains must form a clean graph."""
    referenced: set[int] = set()
    for rid, payload in records.items():
        if payload[0] != FLAG_FORWARD:
            continue
        if len(payload) < 1 + FWD.size:
            report.add("ODE104", f"rid {rid}: truncated forward pointer")
            continue
        (target,) = FWD.unpack_from(payload, 1)
        # Walk the body chain to its terminal segment.
        seen: set[int] = set()
        while True:
            if target in seen:
                report.add("ODE104", f"rid {rid}: body chain loops at {target}")
                break
            seen.add(target)
            body = records.get(target)
            if body is None:
                report.add(
                    "ODE104", f"rid {rid}: body chain dangles at rid {target}"
                )
                break
            if body[0] == FLAG_MOVED:
                break
            if body[0] != FLAG_SEGMENT or len(body) < 1 + FWD.size:
                report.add(
                    "ODE104",
                    f"rid {rid}: body chain hits non-body rid {target}",
                )
                break
            (target,) = FWD.unpack_from(body, 1)
        referenced.update(seen)
    for rid, payload in records.items():
        if payload[0] in (FLAG_MOVED, FLAG_SEGMENT) and rid not in referenced:
            report.add("ODE105", f"rid {rid}: body record has no referrer")


def fsck_physical(path: str, report: FsckReport) -> None:
    """Read-only scan of the disk engine's ``.data`` and ``.wal`` files."""
    data_path = path + ".data"
    try:
        with open(data_path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        report.add("ODE151", f"{data_path}: no such file")
        return
    if len(raw) % PAGE_SIZE:
        report.add(
            "ODE100",
            f"{data_path}: {len(raw)} bytes is not a whole number of pages "
            f"({len(raw) % PAGE_SIZE} trailing bytes)",
        )
    num_pages = len(raw) // PAGE_SIZE
    records: dict[int, bytes] = {}
    for page_no in range(num_pages):
        page = raw[page_no * PAGE_SIZE : (page_no + 1) * PAGE_SIZE]
        report.pages_scanned += 1
        if not checksum_ok(page):
            (stored,) = CHECKSUM.unpack_from(page, USABLE_END)
            report.add(
                "ODE101",
                f"page {page_no}: stored {stored:#010x} != "
                f"computed {zlib.crc32(page[:USABLE_END]):#010x}",
            )
            continue  # structure checks on a corrupt page are noise
        if page_no == 0:
            # A zero body is an interrupted bootstrap (recovery finishes
            # it on the next open), not corruption.
            if page[: len(MAGIC)] != MAGIC and any(page[:USABLE_END]):
                report.add("ODE106", f"{data_path}: bad magic in page 0")
            continue
        if not any(page[:USABLE_END]):
            continue  # allocated but never flushed: valid empty state
        records.update(_scan_page_records(report, page_no, page))
    _check_record_graph(report, records)
    _check_wal_file(path + ".wal", report)


def _check_wal_file(wal_path: str, report: FsckReport) -> None:
    from repro.storage.wal import _FRAME, WriteAheadLog

    try:
        with open(wal_path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        return  # no log is a valid (checkpointed or fresh) state
    offset = 0
    count = 0
    while len(buf) - offset >= _FRAME.size:
        payload_len, crc = _FRAME.unpack_from(buf, offset)
        payload = buf[offset + _FRAME.size : offset + _FRAME.size + payload_len]
        if len(payload) < payload_len or zlib.crc32(payload) != crc:
            try:
                WriteAheadLog._check_interior_corruption(buf, offset, count)
            except WALError as exc:
                salvage = getattr(exc, "salvage", {})
                report.add("ODE150", f"{wal_path}: {exc} (salvage: {salvage})")
            else:
                report.add(
                    "ODE152",
                    f"{wal_path}: torn tail at byte {offset} "
                    f"({count} intact record(s) precede it)",
                )
            return
        count += 1
        offset += _FRAME.size + payload_len
    if offset < len(buf):
        report.add(
            "ODE152",
            f"{wal_path}: {len(buf) - offset} trailing byte(s) after "
            f"{count} intact record(s)",
        )


# ---------------------------------------------------------------------------
# Logical pass (through an open database — recovery has already run)
# ---------------------------------------------------------------------------

def _collect_ptrs(value, out: list[PersistentPtr]) -> None:
    if isinstance(value, PersistentPtr):
        out.append(value)
    elif isinstance(value, dict):
        for v in value.values():
            _collect_ptrs(v, out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _collect_ptrs(v, out)


def fsck_logical(db, report: FsckReport) -> None:
    """Consistency checks that need the engine: catalog, B-trees,
    trigger states, phoenix queue."""
    from repro.storage.btree import BTree

    with db.txn_manager.transaction(system=True) as txn:
        # Catalog referential integrity.
        catalog = db._read_catalog(txn)
        for key, rid in sorted(catalog.items()):
            try:
                db.storage.read(txn.txid, rid)
            except OdeError:
                report.add("ODE110", f"catalog {key!r} -> rid {rid} is unreadable")

        # B-tree invariants for every registered index.
        for key, header_rid in sorted(catalog.items()):
            if not key.startswith("index:"):
                continue
            try:
                tree = BTree(db.storage, header_rid)
                for problem in tree.check_invariants(txn.txid):
                    report.add("ODE120", f"{key}: {problem}")
            except OdeError as exc:
                report.add("ODE121", f"{key}: {exc}")

        # Group records against the object headers that name them, both
        # ways (missing/corrupt/mismatched).  A type that simply is not
        # imported in this process is an environment gap, not corruption
        # — report it as a skipped check.
        for problem in db.trigger_system.verify_integrity():
            if "is not registered in this process" in problem:
                report.add("ODE132", problem)
            else:
                report.add("ODE130", problem)

        # Reverse direction: every group record must be named by an
        # object header.
        named = set()
        for _rid, raw in db.storage.scan(txn.txid):
            header = peek_object(raw)
            if header is not None and header[1] & FLAG_HAS_TRIGGERS:
                named.add(header[2])
        for _anchor_rid, rid in db.trigger_system.index.entries(txn):
            group = TriggerGroup.decode(db.storage.read(txn.txid, rid))
            report.trigger_states_scanned += len(group.entries)
            if rid not in named:
                report.add(
                    "ODE131",
                    f"rid {rid}: trigger group of object {group.anchor} "
                    f"({len(group.entries)} state(s)) is named by no object header",
                )

        phoenix_rid = catalog.get("phoenix_queue")
        # Phoenix queue: shape, pending count, dangling payload pointers.
        if phoenix_rid is not None:
            try:
                value, _ = decode_value(db.storage.read(txn.txid, phoenix_rid), 0)
            except Exception as exc:
                report.add("ODE140", f"phoenix queue rid {phoenix_rid}: {exc}")
                return
            if not isinstance(value, list):
                report.add(
                    "ODE140",
                    f"phoenix queue rid {phoenix_rid}: expected a list, "
                    f"got {type(value).__name__}",
                )
                return
            for i, intention in enumerate(value):
                report.intentions_scanned += 1
                if (
                    not isinstance(intention, dict)
                    or "kind" not in intention
                    or "payload" not in intention
                ):
                    report.add("ODE140", f"intention #{i} is malformed")
                    continue
                ptrs: list[PersistentPtr] = []
                _collect_ptrs(intention["payload"], ptrs)
                for ptr in ptrs:
                    if ptr.is_null() or ptr.db_name != db.name:
                        continue
                    if not db.storage.exists(txn.txid, ptr.rid):
                        report.add(
                            "ODE141",
                            f"intention #{i} ({intention['kind']!r}) "
                            f"references missing rid {ptr.rid}",
                        )
            if value:
                report.add(
                    "ODE142",
                    f"{len(value)} intention(s) queued (will run at next drain)",
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def fsck_database(db) -> FsckReport:
    """Logical pass over an already-open database (used by the harness)."""
    report = FsckReport(path=db.path or db.name)
    fsck_logical(db, report)
    return report


def fsck(path: str, engine: str = "disk") -> FsckReport:
    """Full check of the database at *path*.

    The physical pass reads the files as they are; opening the database
    for the logical pass runs crash recovery (and a checkpoint), exactly
    like an fsck replaying a journal — so a recoverable crash state comes
    out clean, while real corruption is reported.
    """
    from repro.objects.database import Database

    report = FsckReport(path=path)
    if engine == "disk":
        fsck_physical(path, report)
        if not os.path.exists(path + ".data"):
            return report
    elif not (os.path.exists(path + ".snap") or os.path.exists(path + ".oplog")):
        report.add("ODE151", f"{path}: no snapshot or op-log")
        return report
    try:
        db = Database.open(path, engine=engine, name=f"fsck:{path}")
    except OdeError as exc:
        report.add("ODE151", f"{path}: open failed: {exc}")
        return report
    try:
        fsck_logical(db, report)
    finally:
        db.close()
    return report
