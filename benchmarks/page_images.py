"""Print the data file each disk benchmark workload leaves behind: its
size, its SHA-256, and how many object and trigger-group records live
behind a forward pointer rather than inline in their home slot.

For each disk workload of ``perf/workloads.py`` at seed 1996: populate,
run 2 000 transactions from the workload's own operation stream (the
sessions of a multi-session workload take turns, one transaction each,
on one thread, so the run is deterministic) and close.  The page images
are then read straight from the file.

A change to the storage layer that must not move the on-disk layout
should leave this output byte-identical.  Run it in two checkouts and
compare::

    PYTHONPATH=src:. python benchmarks/page_images.py > after.txt
    (cd ../parent && PYTHONPATH=src:. python benchmarks/page_images.py) > before.txt
    diff before.txt after.txt
"""

import hashlib
import os
import tempfile

from perf.workloads import WORKLOADS, seeded
from repro.core.trigger_state import GROUP_MARK
from repro.objects.database import Database
from repro.objects.serialize import peek_object
from repro.storage.disk import FLAG_FORWARD, FLAG_INLINE, FLAG_MOVED, FWD, _inline_data, pack_rid
from repro.storage.page import PAGE_SIZE, SlottedPage

SEED = 1996
TRANSACTIONS = 2000


def run_workload(workload, path):
    """Populate, run TRANSACTIONS transactions, close."""
    state = workload.state(seeded(SEED, workload, -1))
    per_session = TRANSACTIONS // workload.sessions
    streams = [
        workload.generate(seeded(SEED, workload, i), per_session, state)
        for i in range(workload.sessions)
    ]
    db = Database.open(path, engine=workload.engine)
    ptrs = workload.populate(db, state)
    if workload.sessions == 1:
        sessions = [db.default_session()]
    else:
        sessions = [db.session(f"client-{i}") for i in range(workload.sessions)]
    calls = [workload.transaction(db, s, ptrs) for s in sessions]
    for position in range(per_session):
        for call, stream in zip(calls, streams):
            call(stream[position])
    for session in sessions:
        if not session.default:
            session.close()
    db.close()


def head_census(raw):
    """``{"object": (forwarded, total), "group": (forwarded, total)}``
    over the home slots of every page of a data file's bytes."""
    records = {}
    for page_no in range(1, len(raw) // PAGE_SIZE):
        page = SlottedPage(bytearray(raw[page_no * PAGE_SIZE : (page_no + 1) * PAGE_SIZE]))
        for slot_no, payload in page.records():
            records[pack_rid(page_no, slot_no)] = payload
    counts = {"object": [0, 0], "group": [0, 0]}
    for payload in records.values():
        if payload[0] == FLAG_INLINE:
            forwarded, data = 0, _inline_data(payload)
        elif payload[0] == FLAG_FORWARD:
            # The first body segment starts the record: enough to classify.
            forwarded, data = 1, records[FWD.unpack_from(payload, 1)[0]]
            data = data[1:] if data[0] == FLAG_MOVED else data[1 + FWD.size :]
        else:
            continue  # a body segment, counted through its head
        if peek_object(data) is not None:
            kind = "object"
        elif data and data[0] == GROUP_MARK:
            kind = "group"
        else:
            continue
        counts[kind][0] += forwarded
        counts[kind][1] += 1
    return counts


def main() -> None:
    for workload in WORKLOADS.values():
        if workload.engine != "disk":
            continue
        with tempfile.TemporaryDirectory() as directory:
            # A constant name: pointers store it, so it must not vary.
            path = os.path.join(directory, "db")
            run_workload(workload, path)
            with open(path + ".data", "rb") as fh:
                raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        counts = head_census(raw)
        print(f"== {workload.name} seed={SEED} transactions={TRANSACTIONS}")
        print(f"data file: {len(raw)} bytes, {len(raw) // PAGE_SIZE} pages, sha256={digest}")
        for kind, (forwarded, total) in counts.items():
            print(f"forwarded {kind} heads: {forwarded}/{total}")


if __name__ == "__main__":
    main()
