"""The benchmark's one command.

Driver contract (one fresh process per run)::

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  Other modes::

    python3 perf/run.py                    # every workload, both runs, one table
    python3 perf/run.py --check-manifest   # validate BENCHMARK.json, run nothing
    python3 perf/run.py --repeat 10 [--workload W] [--vary-seed]

See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter, process_time, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# `python3 perf/run.py` puts perf/ first on sys.path, where trace.py would
# shadow the standard library's `trace`; import through the package instead.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != HERE]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perf import calibrate  # noqa: E402
from perf import manifest as manifest_mod  # noqa: E402

SETUPS = 3  # set-ups per untraced run; setup_s is their median
WORK_DIR = os.path.join(ROOT, ".bench_work")
#: The timed phase alternates one sample of the calibration kernel per this
#: many seconds with a block of transactions about this long; the speed of
#: the CPU in a round is the median sample of the rounds within
#: ``SPEED_WINDOW_SECONDS`` of it.
CALIBRATE_EVERY_SECONDS = 0.010
SPEED_WINDOW_SECONDS = 0.125
#: With several sessions a block must outlast a few GIL hand-overs (5 ms
#: each), or the sessions would run one after the other.
THREADED_ROUND_SECONDS = 0.050
#: ``--seconds`` sizes the work; this many times ``--seconds`` of wall time
#: is the hard stop for a machine or a change that is much slower.
HARD_STOP = 2.0


def pin_to_one_cpu():
    """Run this process, threads included, on a single CPU: the last one.

    Threads hold the GIL to compute, so a second CPU buys no parallel
    Python.  What it adds on the sandbox VM is a cross-CPU wake-up whose
    latency switches between microseconds and milliseconds for tens of
    minutes at a time (README, "One CPU").  The last CPU, because interrupts,
    kernel threads and whatever started the benchmark gather on the first:
    ``/proc/stat`` showed ten times the steal there.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@contextlib.contextmanager
def no_flush_device():
    """Every ``os.fsync`` the engine issues hands the CPU to whichever other
    session is ready to run, and returns when this one is scheduled again.

    A real flush parks the virtual CPU, and what is then measured is how
    long the host takes to wake it: milliseconds for one transaction in ten
    in the sandbox's bad hours, with a real device and with a modelled one
    (README, "No flush device").  What a flush means to the *program* is
    kept: the committer lets go of the interpreter while it still holds its
    locks and the log's mutex, and another session computes meanwhile.  The
    engine still decides how often it flushes; ``flushes_per_txn`` counts
    them, and ``micro.wal_force_us`` measures the real device.
    """
    real = os.fsync
    give_way = getattr(os, "sched_yield", lambda: None)
    os.fsync = lambda _fd: give_way()
    try:
        yield
    finally:
        os.fsync = real


# -- the closed loop -----------------------------------------------------------


class Lane:
    """What one session did in one block: the CPU time its thread spent in
    every transaction, in order, and a line for each one that raised."""

    def __init__(self, latencies, failures):
        self.latencies = latencies
        self.failures = failures


def _lane(call, ops, start, stop, barrier):
    latencies = []
    failures = []
    if barrier is not None:
        barrier.wait()
    previous = thread_time()
    for index in range(start, stop):
        try:
            call(ops[index])
        except Exception as exc:  # a failed operation, counted, never fatal
            failures.append(f"operation {index}: {type(exc).__name__}: {exc}")
        now = thread_time()
        latencies.append(now - previous)
        previous = now
    return Lane(latencies, failures)


def drive(calls, streams, start, stop):
    """Run ``streams[i][start:stop]`` through ``calls[i]``, one thread per
    session (the calling thread when there is one session).  Each session
    issues its next transaction when the previous one returns."""
    if len(calls) == 1:
        return [_lane(calls[0], streams[0], start, stop, None)]
    barrier = threading.Barrier(len(calls))
    lanes = [None] * len(calls)

    def work(i):
        lanes[i] = _lane(calls[i], streams[i], start, stop, barrier)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(lane is None for lane in lanes):
        raise RuntimeError("a session thread died outside a transaction")
    return lanes


def timed_phase(run, kernel):
    """The closed loop, in rounds: sample the calibration kernel, then let
    every session run its next block of transactions.  Returns the rounds
    (each a list of lanes) and the kernel samples taken before each."""
    rounds, samples = [], []
    position, end = run.warmup, run.warmup + run.per_session
    deadline = perf_counter() + HARD_STOP * run.seconds
    while position < end and perf_counter() < deadline:
        samples.append(kernel.burst(run.samples_per_round))
        stop = min(end, position + run.block)
        rounds.append(drive(run.calls, run.streams, position, stop))
        position = stop
    return rounds, samples


# -- statistics ------------------------------------------------------------------


def percentile(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def p50_us(lanes_list):
    times = sorted(t for lanes in lanes_list for lane in lanes for t in lane.latencies)
    return percentile(times, 0.50) * 1e6


def summarize(rounds, samples, window):
    """Throughput and latency of the timed phase, in reference-machine time.

    Every transaction's CPU time is scaled by the speed of the CPU in its
    round (``calibrate.speeds``).  ``txn_per_s`` is the median over rounds of
    the round's transactions over the sum of their times, all sessions
    together: what one CPU wholly given to the program delivers, and one
    disturbed round moves one round, not the result.  ``txn_p50_us`` is the
    median of all the times.
    """
    times, rates = [], []
    for lanes, factor in zip(rounds, calibrate.speeds(samples, window)):
        block = [t * factor for lane in lanes for t in lane.latencies]
        rates.append(len(block) / sum(block))
        times += block
    times.sort()
    return {
        "samples": len(times),
        "txn_per_s": statistics.median(rates),
        "txn_p50_us": percentile(times, 0.50) * 1e6,
        "txn_p99_us": percentile(times, 0.99) * 1e6,
    }


# -- one run -----------------------------------------------------------------------


class Run:
    """Inputs and database of one workload run."""

    def __init__(self, workload, seed, seconds, scale, work):
        from perf.workloads import seeded

        # A private copy: --scale shrinks the population of this run only.
        self.w = workload = copy.copy(workload)
        workload.population = max(16, int(workload.population * min(1.0, scale * 10)))
        self.work = work
        self.seconds = seconds
        timed = max(10 * workload.sessions, int(workload.ops_per_second * seconds * scale))
        self.per_session = timed // workload.sessions
        round_seconds = CALIBRATE_EVERY_SECONDS if workload.sessions == 1 else THREADED_ROUND_SECONDS
        self.samples_per_round = round(round_seconds / CALIBRATE_EVERY_SECONDS)
        self.window = max(1, round(SPEED_WINDOW_SECONDS / round_seconds))
        # Transactions per session between two looks at the CPU's speed.
        self.block = max(1, round(workload.ops_per_second / workload.sessions * round_seconds))
        self.warmup = max(10, int(workload.warmup * scale))
        self.state = workload.state(seeded(seed, workload, -1))
        self.streams = [
            workload.generate(seeded(seed, workload, i), self.warmup + self.per_session, self.state)
            for i in range(workload.sessions)
        ]
        self.db = None
        self.path = None
        self.setups = 0

    def set_up(self):
        """open + populate + activate + warm-up, into a fresh directory;
        returns the CPU seconds it took, all threads together."""
        from repro.objects.database import Database

        self.setups += 1
        directory = os.path.join(self.work, f"setup-{self.setups}")
        os.makedirs(directory)
        # A constant name: it is stored in every pointer, so it must not
        # vary between runs or the log volume would.
        self.path = os.path.join(directory, "db")
        start = process_time()
        self.db = Database.open(self.path, engine=self.w.engine)
        self.ptrs = self.w.populate(self.db, self.state)
        if self.w.sessions == 1:
            self.sessions = [self.db.default_session()]
        else:
            self.sessions = [self.db.session(f"client-{i}") for i in range(self.w.sessions)]
        self.calls = self.calls_with()
        warm = drive(self.calls, self.streams, 0, self.warmup)
        elapsed = process_time() - start
        self.warm_failures = [f for lane in warm for f in lane.failures]
        return elapsed

    def calls_with(self, client=None):
        extra = () if client is None else (client,)
        return [self.w.transaction(self.db, s, self.ptrs, *extra) for s in self.sessions]

    def files_bytes(self, *suffixes):
        return sum(
            os.path.getsize(self.path + s) for s in suffixes if os.path.exists(self.path + s)
        )

    def wal_bytes(self):
        return self.files_bytes(".wal" if self.w.engine == "disk" else ".oplog")

    def executed(self, lanes_list):
        """Per session: the warm-up operations plus those the blocks of
        *lanes_list* ran."""
        done = [sum(len(lanes[i].latencies) for lanes in lanes_list) for i in range(self.w.sessions)]
        return [self.streams[i][: self.warmup + done[i]] for i in range(self.w.sessions)]

    def verify(self, db, executed, timed=None, delta=None):
        """The oracle; the counter half needs the timed phase's *delta*."""
        try:
            problems = self.w.check_state(db, self.ptrs, self.state, executed)
            if delta is not None:
                problems += self.w.check_counters(self.state, executed, timed, delta)
            return problems
        except Exception as exc:
            return [f"oracle raised {type(exc).__name__}: {exc}"]

    def close(self):
        if self.db is not None and not self.db.closed:
            for session in self.sessions:
                if not session.default:
                    session.close()
            self.db.close()


def diff(after, before):
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


def outcome(run, lanes_list, problems):
    """``attempted`` / ``failed``: every timed transaction plus the oracle
    check, which is one operation."""
    failures = list(run.warm_failures)
    attempted = 1
    for lanes in lanes_list:
        for lane in lanes:
            attempted += len(lane.latencies)
            failures += lane.failures
    for line in failures[:10] + problems[:10]:
        print("FAILED:", line)
    failed = len(failures) + (1 if problems else 0)
    return attempted, failed


def measure_plain(run):
    """The untraced run: every end-to-end metric."""
    kernel = calibrate.Kernel()
    setup_times = []
    for _ in range(SETUPS):
        run.close()
        around = kernel.burst()
        cpu_seconds = run.set_up()
        around += kernel.burst()
        setup_times.append(cpu_seconds * calibrate.REFERENCE_SECONDS / statistics.median(around))
    before = run.db.metrics.snapshot()
    wal_before = run.wal_bytes()
    start = perf_counter()
    rounds, samples = timed_phase(run, kernel)
    wall_seconds = perf_counter() - start
    wal_after = run.wal_bytes()
    delta = diff(run.db.metrics.snapshot(), before)
    stats = summarize(rounds, samples, run.window)
    problems = run.verify(run.db, run.executed(rounds), stats["samples"], delta)
    attempted, failed = outcome(run, rounds, problems)
    kernel_us = statistics.median(s for group in samples for s in group) * 1e6
    print(
        f"samples: {stats['samples']} of {run.per_session * run.w.sessions} planned, "
        f"in {len(rounds)} rounds and {wall_seconds:.1f} s of wall time"
    )
    print(f"calibration kernel: {kernel_us:.1f} us (reference {calibrate.REFERENCE_SECONDS * 1e6:.0f} us)")
    # Printed, not a bounded metric (README, Repeatability).
    print(f"txn_p99_us: {stats['txn_p99_us']:.1f} (informational)")
    return attempted, failed, end_to_end_metrics(
        setup_times, stats, wal_after - wal_before, delta.get("wal.log_forces", 0)
    )


def end_to_end_metrics(setup_times, stats, wal_bytes, flushes):
    """Every end-to-end metric of BENCHMARK.json."""
    return {
        "setup_s": statistics.median(setup_times),
        "txn_per_s": stats["txn_per_s"],
        "txn_p50_us": stats["txn_p50_us"],
        "wal_bytes_per_txn": wal_bytes / stats["samples"],
        "flushes_per_txn": flushes / stats["samples"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(run, trace_out):
    """The traced run: an untraced reference slice (1/8 of the timed
    operations), then 1/4 of them under the tracer, then the crash-reopen
    check."""
    from perf.trace import Tracer

    run.set_up()
    data_bytes = run.files_bytes(".data") if run.w.engine == "disk" else run.files_bytes(".snap", ".oplog")
    begin = run.warmup
    reference_end = begin + max(10, run.per_session // 8)
    traced_end = reference_end + max(10, run.per_session // 4)
    s0 = run.db.metrics.snapshot()
    reference = drive(run.calls, run.streams, begin, reference_end)
    s1 = run.db.metrics.snapshot()
    wal_before = run.wal_bytes()

    tracer = Tracer((traced_end - reference_end) * run.w.sessions)
    clients = run.calls_with(tracer.client)
    rooted = [
        _rooted(tracer, call, session * 10_000_000) for session, call in enumerate(clients)
    ]
    tracer.install()
    try:
        traced = drive(rooted, run.streams, reference_end, traced_end)
    finally:
        tracer.uninstall()
    wal_after = run.wal_bytes()
    s2 = run.db.metrics.snapshot()
    if trace_out:
        tracer.write_jsonl(trace_out)

    transactions = sum(len(lane.latencies) for lane in traced)
    executed = run.executed([reference, traced])
    timed = transactions + sum(len(lane.latencies) for lane in reference)
    problems = run.verify(run.db, executed, timed, diff(s2, s0))
    if tracer.dropped:
        problems.append(f"tracer dropped {tracer.dropped} spans (capacity {tracer.capacity})")
    attempted, failed = outcome(run, [reference, traced], problems)

    recover_s, recover_ok = crash_and_reopen(run, executed)
    metrics = per_layer_metrics(
        account=tracer.account(),
        delta=diff(s2, s1),
        transactions=transactions,
        wal_bytes=wal_after - wal_before,
        overhead=p50_us([traced]) / p50_us([reference]),
        data_bytes_per_obj=data_bytes / run.w.population,
        recover_s=recover_s,
        recover_ok=recover_ok,
    )
    print(f"samples: {transactions} traced, {timed - transactions} reference")
    return attempted, failed, metrics


def _rooted(tracer, call, first_id):
    ids = itertools.count(first_id)

    def rooted(op):
        tracer.run_root(next(ids), call, op)

    return rooted


def crash_and_reopen(run, executed):
    """Kill the process's view of the database, reopen the path, check the
    recovered state against the same oracle and run fsck.

    Reported through ``storage.recover_s`` / ``storage.recover_ok`` only,
    never as a failed operation: at the commit that introduced this
    benchmark the disk engine's redo does not survive it (README,
    findings), and a workload on which an operation fails at the baseline
    cannot be judged.
    """
    from repro.fsck import fsck
    from repro.objects.database import Database

    for session in run.sessions:
        if not session.default:
            session.close()
    run.db.simulate_crash()
    start = perf_counter()
    try:
        db = Database.open(run.path, engine=run.w.engine)
    except Exception as exc:
        print(f"WARNING: crash-reopen failed: {type(exc).__name__}: {exc}")
        return perf_counter() - start, 0
    elapsed = perf_counter() - start
    run.db = db
    run.sessions = [db.default_session()]
    problems = run.verify(db, executed)
    db.close()
    report = fsck(run.path, engine=run.w.engine)
    if not report.ok:
        problems += [finding.render() for finding in report.findings]
    for line in problems[:10]:
        print("WARNING: after crash-reopen:", line)
    return elapsed, 0 if problems else 1


def per_layer_metrics(
    *, account, delta, transactions, wal_bytes, overhead, data_bytes_per_obj,
    recover_s, recover_ok,
):
    """Every per-layer metric of BENCHMARK.json but the micro-benches.
    Times are span self time in microseconds per transaction, counts are
    per transaction; a metric that does not apply to a workload is 0, never
    missing."""
    from perf import trace as t

    n = max(1, transactions)

    def us(*layers):
        return sum(account["self_s"].get(layer, 0.0) for layer in layers) / n * 1e6

    def calls(layer):
        return account["calls"].get(layer, 0) / n

    def per_txn(name):
        return delta.get(name, 0) / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    events = delta.get("posting.events_posted", 0)
    hits = delta.get("posting.compiled_hits", 0)
    fallbacks = delta.get("posting.compiled_fallbacks", 0)
    page_hits = delta.get("storage.page_hits", 0)
    page_misses = delta.get("storage.page_misses", 0)
    root_s = account["root_s"]
    unattributed = account["self_s"].get(t.ROOT, 0.0) + account["self_s"].get(t.CLIENT, 0.0)
    lookups = account["calls"].get(t.INDEX_LOOKUP, 0)
    metrics = {
        "sessions.run_self_us": us(t.SESSIONS),
        "sessions.retries_per_txn": per_txn("sessions.deadlock_retries")
        + per_txn("sessions.conflict_retries"),
        "transactions.begin_us": us(t.TXN_BEGIN),
        "transactions.commit_self_us": us(t.TXN_COMMIT),
        "transactions.aborts_per_txn": calls(t.TXN_ABORT),
        "objects.deref_us": us(t.DEREF, t.HANDLE),
        "objects.derefs_per_txn": calls(t.DEREF),
        "objects.flush_us": us(t.FLUSH),
        "serialize.decode_us": us(t.DECODE),
        "serialize.decode_calls": calls(t.DECODE),
        "serialize.encode_us": us(t.ENCODE),
        "serialize.encode_calls": calls(t.ENCODE),
        "pmap.get_us": us(t.PMAP_GET),
        "pmap.gets_per_txn": calls(t.PMAP_GET),
        "pmap.put_us": us(t.PMAP_PUT),
        "trigger_index.lookup_us": us(t.INDEX_LOOKUP),
        "trigger_index.lookups_per_txn": calls(t.INDEX_LOOKUP),
        "trigger_index.decodes_per_lookup": ratio(account["decodes_under_lookup"], lookups),
        "trigger_index.update_us": us(t.INDEX_UPDATE),
        "posting.post_self_us": us(t.POST),
        "posting.events_per_txn": per_txn("posting.events_posted"),
        "posting.fsm_advances_per_txn": per_txn("posting.fsm_advances"),
        "posting.state_writes_per_txn": per_txn("posting.state_writes"),
        "posting.masks_per_txn": per_txn("posting.masks_evaluated_posting"),
        "posting.firings_per_txn": per_txn("posting.firings"),
        "posting.skipped_ratio": ratio(delta.get("posting.skipped_no_triggers", 0), events),
        "posting.action_us": us(t.ACTION),
        "compiled.hit_ratio": ratio(hits, hits + fallbacks),
        "compiled.fallbacks_per_txn": fallbacks / n,
        "versioned.merge_us": us(t.MERGE),
        "versioned.replays_per_txn": per_txn("mvcc.replays"),
        "versioned.buffered_per_txn": per_txn("mvcc.buffered_advances"),
        "locks.lock_us": us(t.LOCK),
        "locks.acquires_per_txn": per_txn("locks.s_acquired") + per_txn("locks.x_acquired"),
        "locks.upgrades_per_txn": per_txn("locks.upgrades"),
        "locks.waits_per_txn": per_txn("locks.waits"),
        "locks.wait_us": us(t.LOCK_WAIT),
        "locks.deadlocks_per_txn": per_txn("locks.deadlocks"),
        "locks.release_us": us(t.LOCK_RELEASE),
        "wal.append_us": us(t.WAL_APPEND),
        "wal.records_per_txn": per_txn("wal.log_records"),
        "wal.bytes_per_txn": wal_bytes / n,
        "wal.force_us": us(t.WAL_FORCE),
        "wal.forces_per_txn": per_txn("wal.log_forces"),
        "wal.piggybacks_per_txn": per_txn("wal.group_piggybacks"),
        "buffer.fetch_us": us(t.BUFFER),
        "buffer.hit_ratio": ratio(page_hits, page_hits + page_misses),
        "buffer.evictions_per_txn": per_txn("storage.page_evictions"),
        "buffer.misses_per_txn": page_misses / n,
        "storage.read_us": us(t.STORAGE_READ),
        "storage.reads_per_txn": per_txn("storage.reads"),
        "storage.write_us": us(t.STORAGE_WRITE),
        "storage.writes_per_txn": per_txn("storage.writes")
        + per_txn("storage.inserts")
        + per_txn("storage.deletes"),
        "storage.commit_self_us": us(t.STORAGE_COMMIT),
        "storage.data_bytes_per_obj": data_bytes_per_obj,
        "storage.recover_s": recover_s,
        "storage.recover_ok": recover_ok,
        "trace.root_us": root_s / n * 1e6,
        "trace.unattributed_frac": ratio(unattributed, root_s),
        "trace.overhead_ratio": overhead,
        "trace.spans_per_txn": account["spans"] / n,
    }
    return metrics


def check_runner_matches(manifest):
    """The manifest lists exactly the workloads and metrics this runner
    has: checked without running anything, by computing every metric from
    empty measurements."""
    from perf import micro
    from perf.workloads import WORKLOADS

    listed = {w["name"]: w["why"] for w in manifest["workloads"]}
    ours = {name: w.why for name, w in WORKLOADS.items()}
    if listed != ours:
        raise manifest_mod.ManifestError(f"workloads differ from perf/workloads.py: {listed} != {ours}")
    stats = {"samples": 1, "txn_per_s": 1.0, "txn_p50_us": 1.0}
    manifest_mod.check_emitted(end_to_end_metrics([1.0], stats, 1, 1), manifest["end_to_end"])
    empty = {"self_s": {}, "calls": {}, "root_s": 0.0, "spans": 0, "decodes_under_lookup": 0}
    layers = per_layer_metrics(
        account=empty, delta={}, transactions=0, wal_bytes=0, overhead=0.0,
        data_bytes_per_obj=0.0, recover_s=0.0, recover_ok=0,
    )
    layers.update(dict.fromkeys(micro.NAMES, 0.0))
    manifest_mod.check_emitted(layers, manifest["per_layer"])


def run_one(manifest, args):
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK_DIR, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pin_to_one_cpu()
    run = Run(workload, args.seed, args.seconds, args.scale, work)
    try:
        with no_flush_device():
            try:
                if args.trace:
                    attempted, failed, values = measure_traced(run, args.trace_out)
                else:
                    attempted, failed, values = measure_plain(run)
            finally:
                run.close()
        if args.trace:
            from perf import micro

            scratch = os.path.join(work, "micro")
            os.makedirs(scratch)
            values.update(micro.run_all(scratch))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)  # unless another run is using it
    listed = manifest["per_layer" if args.trace else "end_to_end"]
    manifest_mod.check_emitted(values, listed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# -- many runs: the table, and the repeatability harness ------------------------------


def spawn(workload, seed, seconds, trace):
    """One contract run in a fresh process; returns its result object."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  [{workload}] {line}")
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def run_everything(manifest, args):
    names = [w["name"] for w in manifest["workloads"]]
    results = {}
    for name in names:
        plain = spawn(name, args.seed, args.seconds, 0)
        traced = spawn(name, args.seed, args.seconds, 1)
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {**plain["metrics"], **traced["metrics"]},
        }
    width = max(len(m["name"]) for m in manifest["per_layer"])
    print(f"{'metric':<{width}} {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        cells = "".join(f"{results[n]['metrics'][metric['name']]['value']:>16.6g}" for n in names)
        print(f"{metric['name']:<{width}} {metric['unit']:<6}{cells}")
    print(f"{'failed/attempted':<{width}} {'':<6}" + "".join(
        f"{str(results[n]['failed']) + '/' + str(results[n]['attempted']):>16}" for n in names
    ))
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": results, "claim": None}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def repeat(manifest, args):
    """K fresh untraced processes per workload: median, quartiles and
    spread of every end-to-end metric.  Exits non-zero when a spread
    (interquartile distance / median, the driver's statistic) exceeds the
    metric's bound; ``setup_s`` is reported but, as in the driver, not
    gated on its spread."""
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    too_wide = []
    summary = {}
    for name in names:
        runs = [
            spawn(name, args.seed + (i if args.vary_seed else 0), args.seconds, 0)
            for i in range(args.repeat)
        ]
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {args.repeat} runs, failed operations {failed}")
        print(f"  {'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        summary[name] = {}
        for metric in manifest["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            width = (max(values) - min(values)) / median
            print(
                f"  {metric['name']:<20}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                f"{spread:>9.4f}{width:>10.4f}{metric['bound']:>7}"
            )
            summary[name][metric["name"]] = {"median": median, "spread": spread, "values": values}
            if spread > metric["bound"] and metric["name"] != "setup_s":
                too_wide.append(f"{name}.{metric['name']}: spread {spread:.4f} > bound {metric['bound']}")
        if failed:
            too_wide.append(f"{name}: {failed} failed operations")
    for line in too_wide:
        print("UNSTEADY:", line)
    print(json.dumps({"repeat": args.repeat, "seed": args.seed, "workloads": summary, "claim": None}))
    return 1 if too_wide else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced run's spans here as JSONL")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the work (smoke tests)")
    parser.add_argument("--check-manifest", action="store_true")
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--vary-seed", action="store_true", help="with --repeat: run i uses seed + i")
    args = parser.parse_args(argv)
    try:
        manifest = manifest_mod.load_and_check(os.path.join(ROOT, "BENCHMARK.json"))
    except manifest_mod.ManifestError as exc:
        print(f"BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the system under test from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"`repro` resolves to {repro.__file__}, not to this checkout", file=sys.stderr)
        return 2
    try:
        check_runner_matches(manifest)
    except manifest_mod.ManifestError as exc:
        print(f"BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.check_manifest:
        print("BENCHMARK.json: ok")
        return 0
    if args.workload is not None and args.workload not in {w["name"] for w in manifest["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.repeat:
        return repeat(manifest, args)
    if args.workload is None:
        return run_everything(manifest, args)
    return run_one(manifest, args)


if __name__ == "__main__":
    sys.exit(main())
