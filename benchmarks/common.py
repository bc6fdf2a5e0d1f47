"""Shared infrastructure for the experiment harness.

Every experiment prints a table (the "rows/series" its DESIGN.md entry
promises) and appends the same text to ``bench_results/<experiment>.txt``
so EXPERIMENTS.md can quote measured numbers even when pytest captures
stdout.
"""

from __future__ import annotations

import collections
import contextlib
import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence

from repro.core import compiled

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench_results")


def emit_table(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: str = "",
) -> str:
    """Format, print, and persist one experiment table.

    A table with no rows is printed but not written: a run that skipped
    an experiment's measuring tests (``-k``, a deselected marker) must not
    replace its last results with an empty table."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]

    def fmt(cells):
        return " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))

    lines = [f"== {experiment}: {title} ==", fmt(headers), "-+-".join("-" * w for w in widths)]
    lines += [fmt(row) for row in rows]
    if notes:
        lines.append(notes)
    text = "\n".join(lines)
    print("\n" + text)
    if not rows:
        return text
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as fh:
        fh.write(text + "\n")
    return text


@contextlib.contextmanager
def interpreted_baseline(*infos):
    """The interpreted baseline of a posting benchmark: inside, the
    compile tier unrolls no machine (``plan_unroll`` refuses every kind,
    as it does one past ``UNROLL_BUDGET``), so every entry of every
    generated group function is one interpreter step (each advance a
    counted ``compiled_fallbacks``).  Given *infos*, only those kinds are
    refused.  The engine has no such setting; only a benchmark's
    comparison column and the tests' reference need it.

    The tier memoizes each group's function for the whole process, and a
    group keeps the function it was served, per schema version, so the
    version is bumped on the way in and on the way out: a database
    measured on both sides chooses afresh under each."""
    real = compiled.plan_unroll
    refused = {id(info.fsm) for info in infos}

    def refuse(fsm):
        if not infos or id(fsm) in refused:
            raise compiled.PlanError("interpreted baseline: not unrolled")
        return real(fsm)

    compiled.bump_schema_version("interpreted baseline: in")
    compiled.plan_unroll = refuse
    try:
        yield
    finally:
        compiled.plan_unroll = real
        compiled.bump_schema_version("interpreted baseline: out")


def time_per_op(fn: Callable[[], object], ops: int, repeats: int = 3) -> float:
    """Best-of-*repeats* wall time per operation, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best / ops * 1e6


def us(value: float) -> str:
    """Format a microsecond figure."""
    return f"{value:8.3f}"


def ratio(a: float, b: float) -> str:
    """a/b as 'N.NNx' (guarding zero)."""
    if b == 0:
        return "inf"
    return f"{a / b:.2f}x"


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """The *fraction* quantile of an ascending list (the sample at rank
    ``int(fraction * n)``, clamped to the last); 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def drive_sessions(
    db,
    n_sessions: int,
    bodies: Callable[[object, int], Iterable[Callable]],
    *,
    retries: int,
    deadline: float | None = None,
    refusals: tuple[type[BaseException], ...] = (),
    name: str = "bench",
) -> dict:
    """Run *n_sessions* real threads over *db*, one session each.

    Thread *i* opens session ``f"{name}-{i}"`` and runs every body that
    ``bodies(session, i)`` yields through ``session.run(body,
    retries=retries, deadline=deadline)``, timing each call (retries
    included).  A call that raises one of *refusals* counts as a refusal
    under the error's class name and goes on; any other error ends its
    thread and is re-raised here once every thread has returned.  Each
    thread closes its session.  Every thread must return within 300 s.

    Returns ``throughput`` (committed transactions per wall second),
    ``p50`` and ``p99`` (ms, over committed and refused calls) and
    ``outcomes`` (a ``Counter`` of ``"committed"`` and refusal names).
    """
    latencies_ms: list[float] = []
    outcomes: collections.Counter = collections.Counter()
    merge_lock = threading.Lock()
    errors: list[BaseException] = []

    def worker(index):
        session = db.session(f"{name}-{index}")
        local_lat, local_out = [], []
        try:
            for body in bodies(session, index):
                start = time.perf_counter()
                try:
                    session.run(body, retries=retries, deadline=deadline)
                    local_out.append("committed")
                except refusals as exc:
                    local_out.append(type(exc).__name__)
                local_lat.append((time.perf_counter() - start) * 1e3)
        except Exception as exc:
            errors.append(exc)
        finally:
            session.close()
            with merge_lock:
                latencies_ms.extend(local_lat)
                outcomes.update(local_out)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(n_sessions)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive(), "a session thread never returned"
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]

    latencies_ms.sort()
    return {
        "throughput": outcomes["committed"] / wall,
        "p50": percentile(latencies_ms, 0.50),
        "p99": percentile(latencies_ms, 0.99),
        "outcomes": outcomes,
    }
