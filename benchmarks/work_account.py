"""Count the work one transaction does, layer by layer, in calls.

For four of the benchmark's workloads (``perf/workloads.py``, seed 1996)
this populates a fresh database, runs the workload's warm-up
transactions, then counts over ``TRANSACTIONS`` more, per transaction:

* the Python calls into each package of ``repro`` (``sessions``,
  ``transactions``, ``objects``, ``core``, ``storage``, ...), read from
  ``sys.setprofile``'s ``call`` events — a generated group function
  counts under ``core``;
* ``LockManager.lock`` calls;
* ``serialize.decode_value`` calls, every level of its recursion: a warm
  dereference whose record the decode memo holds makes none, so this row
  counts the memo's misses in fields decoded.

A frame whose code is named ``<...>`` (a comprehension, generator
expression, lambda) is not counted: CPython 3.12 inlines comprehensions
into their function, 3.11 gives each a frame of its own, and the account
must read the same on both.  A call is a unit of work a refactor can
remove without changing what the transaction does, so a change that
folds a layer shows here as fewer calls, deterministically, where a
timing would show it within noise.

Each workload runs in a process of its own (``PYTHONHASHSEED=0``, the
garbage collector off while counting), so no memo carries over from the
previous one and the counts do not depend on which workloads ran.
``sessions2_disk`` is left out: its two threads interleave by the clock.

Run it from the repository root; it rewrites ``bench_results/work.txt``,
which CI regenerates and compares with the committed copy::

    PYTHONPATH=src:. python benchmarks/work_account.py
    git diff --exit-code bench_results/work.txt
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile

SEED = 1996
TRANSACTIONS = 1000
WORKLOADS = ("canon_mm", "fanout_mm", "cards_disk", "passive_disk")
#: Row order of the packages; any other package that shows up follows.
LAYERS = ("sessions", "transactions", "objects", "core", "events", "storage")
EXTRA = ("LockManager.lock", "decode_value")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench_results", "work.txt")
GENERATED = "<ode-compiled-group:"


def count(name: str) -> dict:
    """Populate *name*'s database, warm it up, and count its next
    ``TRANSACTIONS`` transactions: ``{row: calls}`` totals."""
    from perf.workloads import WORKLOADS as ALL
    from perf.workloads import seeded
    from repro.objects import serialize
    from repro.objects.database import Database
    from repro.storage.locks import LockManager

    workload = ALL[name]
    state = workload.state(seeded(SEED, workload, -1))
    ops = workload.generate(seeded(SEED, workload, 0), workload.warmup + TRANSACTIONS, state)
    lock_code = LockManager.lock.__code__
    decode_code = serialize.decode_value.__code__
    totals = dict.fromkeys(EXTRA, 0)

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name[0] == "<":
            return
        if code.co_filename.startswith(GENERATED):
            layer = "core"
        else:
            module = frame.f_globals.get("__name__", "")
            if not module.startswith("repro."):
                return
            layer = module.split(".")[1]
        totals[layer] = totals.get(layer, 0) + 1
        if code is lock_code:
            totals["LockManager.lock"] += 1
        elif code is decode_code:
            totals["decode_value"] += 1

    with tempfile.TemporaryDirectory() as directory:
        # A constant name: pointers store it.
        db = Database.open(os.path.join(directory, "db"), engine=workload.engine)
        ptrs = workload.populate(db, state)
        run = workload.transaction(db, db.default_session(), ptrs)
        for op in ops[: workload.warmup]:
            run(op)
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            for op in ops[workload.warmup :]:
                run(op)
        finally:
            sys.setprofile(None)
            gc.enable()
        db.close()
    return totals


def render(columns: dict[str, dict]) -> str:
    seen = {key for c in columns.values() for key in c} - set(EXTRA)
    layers = [layer for layer in LAYERS if layer in seen]
    layers += sorted(seen - set(LAYERS))
    width = max(len(name) for name in columns) + 2
    lines = [
        "Work account: repro.* Python calls per transaction, per package",
        f"(seed {SEED}; {TRANSACTIONS} transactions after each workload's warm-up;",
        "frames named <...> not counted; benchmarks/work_account.py)",
        "",
        f"{'layer':<18}" + "".join(f"{name:>{width}}" for name in columns),
    ]

    def row(label, value):
        cells = "".join(f"{value(c) / TRANSACTIONS:>{width}.2f}" for c in columns.values())
        lines.append(f"{label:<18}{cells}")

    for layer in layers:
        row(layer, lambda c: c.get(layer, 0))
    row("total", lambda c: sum(c.get(layer, 0) for layer in layers))
    lines.append("")
    for key in EXTRA:
        row(key, lambda c: c[key])
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="count one workload, print JSON")
    args = parser.parse_args()
    if args.workload:
        print(json.dumps(count(args.workload)))
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    columns = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        columns[name] = json.loads(out.splitlines()[-1])
    text = render(columns)
    with open(OUT, "w") as fh:
        fh.write(text)
    print(text, end="")


if __name__ == "__main__":
    main()
