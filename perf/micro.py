"""Each layer alone: nine micro-benches on scratch instances.

The traced run says which layer a transaction's time went to; these say
what one operation of that layer costs with nothing else running, so a
regression the spans attribute to a layer can be confirmed without the
rest of the system.  Fixed iteration counts (no clocks decide how much
work is done), median of five batches, about two seconds in total.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

BATCHES = 5

NAMES = (
    "micro.serialize_roundtrip_us",
    "micro.tstate_roundtrip_us",
    "micro.lock_acquire_release_us",
    "micro.wal_append_us",
    "micro.wal_force_us",
    "micro.pmap_get_us",
    "micro.buffer_fetch_hit_us",
    "micro.fsm_advance_us",
    "micro.compile_expr_ms",
)


def _median_us(op, iterations: int) -> float:
    """Median over batches of the mean time of one ``op()`` in microseconds."""
    samples = []
    for _ in range(BATCHES):
        start = perf_counter()
        for _ in range(iterations):
            op()
        samples.append((perf_counter() - start) / iterations * 1e6)
    return statistics.median(samples)


def run_all(scratch: str) -> dict[str, float]:
    """Run every micro-bench; *scratch* is an empty directory to write in."""
    from repro.core.trigger_state import TriggerState
    from repro.events.compile import compile_expression
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr
    from repro.objects.pmap import PersistentMap
    from repro.objects.serialize import decode_object, encode_object
    from repro.storage.buffer import BufferPool, PagedFile
    from repro.storage.locks import LockManager, LockMode
    from repro.storage.wal import LogRecordKind, WriteAheadLog
    from repro.workloads.locksim import HotObject

    results: dict[str, float] = {}

    fields = {
        "issued_to": PersistentPtr("db", 7),
        "cred_lim": 1000.0,
        "curr_bal": 412.5,
        "black_marks": [],
        "purchases": 3,
    }
    results["micro.serialize_roundtrip_us"] = _median_us(
        lambda: decode_object(encode_object("CredCard", fields, 1)), 4000
    )

    tstate = TriggerState(
        triggernum=1,
        trigobj=PersistentPtr("db", 7),
        statenum=2,
        trigobjtype="CredCard",
        params={"amount": 500.0},
    )
    results["micro.tstate_roundtrip_us"] = _median_us(
        lambda: TriggerState.decode(tstate.encode()), 4000
    )

    locks = LockManager()

    def lock_cycle():
        locks.lock(1, 42, LockMode.X)
        locks.release_all(1)

    results["micro.lock_acquire_release_us"] = _median_us(lock_cycle, 10000)

    wal = WriteAheadLog(os.path.join(scratch, "micro.wal"))
    try:
        payload = b"x" * 96
        results["micro.wal_append_us"] = _median_us(
            lambda: wal.append(1, LogRecordKind.UPDATE, 42, payload, payload), 4000
        )

        def append_and_force():
            wal.append(1, LogRecordKind.COMMIT)
            wal.force_now()

        results["micro.wal_force_us"] = _median_us(append_and_force, 200)
    finally:
        wal.close()

    db = Database.open(os.path.join(scratch, "micro-db"), engine="mm")
    try:
        pmap = PersistentMap(db, "micro", bucket_count=32)
        with db.transaction() as txn:
            for key in range(256):
                pmap.put(txn, str(key), [key])
        with db.transaction() as txn:
            results["micro.pmap_get_us"] = _median_us(
                lambda: pmap.get(txn, "128"), 2000
            )
    finally:
        db.close()

    file = PagedFile(os.path.join(scratch, "micro.data"))
    try:
        page_no = file.allocate_page()
        pool = BufferPool(file, capacity=8)

        def fetch_hit():
            pool.fetch(page_no)
            pool.unpin(page_no, dirty=False)

        fetch_hit()  # load the page: everything timed is a hit
        results["micro.buffer_fetch_hit_us"] = _median_us(fetch_hit, 10000)
    finally:
        file.close()

    metatype = HotObject.__metatype__
    fsm = metatype.all_trigger_infos[0].fsm
    ping = metatype.event_ints["Ping"]
    results["micro.fsm_advance_us"] = _median_us(
        lambda: fsm.advance(fsm.start, ping, lambda _mask: False), 10000
    )

    results["micro.compile_expr_ms"] = (
        _median_us(
            lambda: compile_expression(
                "relative((after buy & MoreCred), after pay_bill)",
                ["after buy", "after pay_bill", "BigBuy"],
                ["MoreCred"],
            ),
            20,
        )
        / 1e3
    )
    return results
