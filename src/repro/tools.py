"""Inspection utilities: dump a database's objects, triggers, and machines.

``python -m repro.tools <path> [--engine disk|mm]`` prints a human-readable
summary of a database: every persistent object with its fields and control
information (``[triggers → group N]``: the has-triggers flag and the
trigger group the header names), every active trigger with its FSM position, the catalog, and any
static-analyzer findings.  ``python -m repro.tools lint ...`` forwards to
the trigger linter (see :mod:`repro.analysis`); ``python -m repro.tools
fsck <path>`` runs the storage integrity checker (see :mod:`repro.fsck`)
and exits non-zero when anything at warning severity or above is found;
``python -m repro.tools trace {record,show,summary}`` records a traced
credit-card workload run and pretty-prints the resulting JSONL (see
:mod:`repro.obs`).

The functions are also importable for programmatic use (the test suite
uses them as a read-only consistency probe).
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.core.trigger_state import TriggerGroup
from repro.objects.serialize import FLAG_HAS_TRIGGERS, decode_object, peek_object

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database


def describe_objects(db: "Database") -> list[str]:
    """One line per persistent object (skips internal records)."""
    txn = db.txn_manager.current()
    lines = []
    for rid, raw in db.storage.scan(txn.txid):
        if peek_object(raw) is None:
            continue
        type_name, fields, flags, group = decode_object(raw)
        tag = f" [triggers → group {group}]" if flags & FLAG_HAS_TRIGGERS else ""
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(fields.items()))
        lines.append(f"rid {rid}: {type_name}({body}){tag}")
    return lines


def describe_triggers(db: "Database") -> list[str]:
    """One line per active trigger, resolved through its metatype."""
    txn = db.txn_manager.current()
    lines = []
    index = db.trigger_system.index
    for key, group_rid in sorted(index.entries(txn)):
        group = TriggerGroup.decode(db.storage.read(txn.txid, group_rid))
        for serial, tstate in group.entries:
            try:
                info = db.registry.find(tstate.trigobjtype).trigger_info(
                    tstate.triggernum
                )
                name = info.name
                detail = (
                    f"state {tstate.statenum}/{len(info.fsm) - 1}, "
                    f"{info.coupling.value}"
                    f"{', perpetual' if info.perpetual else ''}"
                )
            except Exception:
                name = f"<unresolved {tstate.trigobjtype}#{tstate.triggernum}>"
                detail = f"state {tstate.statenum}"
            params = f" params={tstate.params}" if tstate.params else ""
            lines.append(
                f"object {key}: {name} ({detail}){params} "
                f"-> TriggerId group {group_rid} serial {serial}"
            )
    return lines


def describe_catalog(db: "Database") -> list[str]:
    txn = db.txn_manager.current()
    catalog = db._read_catalog(txn)
    return [f"{key} -> rid {rid}" for key, rid in sorted(catalog.items())]


def describe_analysis(db: "Database") -> list[str]:
    """Static-analyzer findings: registered classes + persistent states.

    Runs the declaration-level passes (including the ODE3xx concurrency
    pass, predictions unconfirmed — a dump should not spin up witness
    databases — and the ODE4xx compilability pass gating the generated
    posting tier) over every registered active class and the database
    pass (dead/trap trigger states) over *db*; one line per finding,
    ``["ok"]`` when clean.
    """
    from repro.analysis import analyze_database, analyze_registry

    report = analyze_registry(db.registry, concurrency=True, compilability=True)
    report.extend(analyze_database(db).diagnostics)
    return [diag.render() for diag in report.diagnostics] or ["ok"]


def describe_stats(db: "Database") -> list[str]:
    """Current metrics-registry snapshot, one ``name = value`` line each."""
    from repro.obs.metrics import describe

    metrics = getattr(db, "metrics", None)
    if metrics is None:
        return ["(no metrics registry)"]
    return describe(metrics.snapshot())


def dump_database(db: "Database") -> str:
    """A full textual dump of *db* (runs in its own transaction if needed)."""
    manager = db.txn_manager
    own = manager.current_or_none() is None
    if own:
        txn = manager.begin(system=True)
    try:
        sections = [
            (f"database {db.name!r} ({db.engine})", []),
            ("catalog", describe_catalog(db)),
            ("objects", describe_objects(db)),
            ("active triggers", describe_triggers(db)),
            ("integrity", db.trigger_system.verify_integrity() or ["ok"]),
            ("analysis", describe_analysis(db)),
            ("stats", describe_stats(db)),
        ]
        parts = []
        for title, lines in sections:
            parts.append(f"--- {title} ---")
            parts.extend(lines or ["(none)"] if title != f"database {db.name!r} ({db.engine})" else [])
        return "\n".join(parts)
    finally:
        if own:
            manager.commit(txn)


def trace_main(argv: list[str]) -> int:
    """``python -m repro.tools trace {record,show,summary} ...``.

    ``record`` runs the credit-card workload (paper Section 4) against a
    scratch database with tracing enabled and exports the ring buffer as
    JSONL; ``show`` pretty-prints a JSONL trace with span nesting and
    firing order; ``summary`` prints per-kind record counts.
    """
    parser = argparse.ArgumentParser(
        prog="repro.tools trace", description="Record or inspect an obs trace"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    rec = sub.add_parser("record", help="run the credit-card workload traced")
    rec.add_argument("out", help="output JSONL path")
    rec.add_argument("--db", default=None, help="database path (default: temp)")
    rec.add_argument("--engine", choices=["disk", "mm"], default="mm")
    rec.add_argument("--cards", type=int, default=4)
    rec.add_argument("--ops", type=int, default=40)
    rec.add_argument("--seed", type=int, default=1996)
    rec.add_argument("--capacity", type=int, default=65536)

    show = sub.add_parser("show", help="pretty-print a JSONL trace")
    show.add_argument("path", help="trace JSONL path")

    summ = sub.add_parser("summary", help="per-kind record counts")
    summ.add_argument("path", help="trace JSONL path")

    args = parser.parse_args(argv)

    if args.cmd == "record":
        import tempfile

        from repro import obs
        from repro.objects.database import Database
        from repro.workloads.credit_card import CreditCardWorkload

        path = args.db
        tmp = None
        if path is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-trace-")
            path = f"{tmp.name}/trace-db"
        try:
            db = Database.open(path, engine=args.engine)
            try:
                workload = CreditCardWorkload(seed=args.seed)
                ptrs = workload.setup(
                    db, args.cards, activate_deny=True, activate_raise=True
                )
                obs.enable(capacity=args.capacity)
                result = workload.run(db, ptrs, args.ops)
                recorder = obs.disable()
                recorder.export(args.out)
                delta = db.metrics.snapshot()
                print(
                    f"recorded {len(recorder.records())} record(s) "
                    f"({recorder.stats.records_dropped} dropped) -> {args.out}"
                )
                print(
                    f"workload: {result.operations} ops, {result.buys} buys, "
                    f"{result.payments} payments, {result.denied} denied"
                )
                print(
                    f"posting: {delta.get('posting.events_posted', 0)} events, "
                    f"{delta.get('posting.firings', 0)} firings, "
                    f"{delta.get('posting.masks_evaluated_posting', 0)} masks"
                )
            finally:
                db.close()
        finally:
            if tmp is not None:
                tmp.cleanup()
        return 0

    from repro.obs.trace import load_jsonl, render_trace, summarize_trace

    records = load_jsonl(args.path)
    if args.cmd == "show":
        print("\n".join(render_trace(records)))
    else:
        counts = summarize_trace(records)
        width = max((len(k) for k in counts), default=0)
        for kind in sorted(counts):
            print(f"{kind:<{width}}  {counts[kind]}")
        print(f"{'total':<{width}}  {len(records)}")
    return 0


def chaos_main(argv: list[str]) -> int:
    """``python -m repro.tools chaos [--engine ...] [--limit N] [--out report.json]``.

    Runs the crash matrix's chaos workload (cooperative mode: record the
    failpoint trace at N sessions, then crash-recover-verify at the
    selected hits) and writes a JSON survival report.  Exits non-zero if
    any crash fails to recover cleanly — the CI chaos job runs the capped
    subset and archives the report.
    """
    import tempfile

    from repro.faults.harness import Chaos, explore, write_survival_report

    parser = argparse.ArgumentParser(
        prog="repro.tools chaos",
        description="Concurrent crash matrix with a JSON survival report",
    )
    parser.add_argument(
        "--engine",
        choices=["disk", "mm", "both"],
        default="both",
        help="storage engine(s) to explore (default: both)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap on crash points per engine (default: the whole trace)",
    )
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--txns", type=int, default=3)
    parser.add_argument("--out", default=None, help="survival report JSON path")
    parser.add_argument("--workdir", default=None, help="scratch dir (default: temp)")
    args = parser.parse_args(argv)

    engines = ["disk", "mm"] if args.engine == "both" else [args.engine]
    tmp = None
    workdir = args.workdir
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = tmp.name
    try:
        results = []
        for engine in engines:
            result = explore(
                f"{workdir}/chaos-{engine}",
                Chaos(sessions=args.sessions, txns=args.txns),
                engine=engine,
                limit=args.limit,
            )
            results.append(result)
            print(
                f"{engine}: {len(result.explored)} crash(es) explored over "
                f"{len(result.points_explored)} failpoint(s) "
                f"({len(result.trace)} hits traced), all recovered"
            )
        union = sorted(set().union(*(r.points_explored for r in results)))
        print(f"failpoints covered: {len(union)}: {', '.join(union)}")
        if args.out:
            write_survival_report(results, args.out)
            print(f"survival report -> {args.out}")
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


def fsck_main(argv: list[str]) -> int:
    """``python -m repro.tools fsck <path> [--engine disk|mm] [--json]``."""
    from repro.fsck import fsck

    parser = argparse.ArgumentParser(
        prog="repro.tools fsck", description="Check an Ode-repro database"
    )
    parser.add_argument("path", help="database path")
    parser.add_argument("--engine", choices=["disk", "mm"], default="disk")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--import",
        dest="imports",
        action="append",
        default=[],
        metavar="MODULE",
        help="import MODULE first so its persistent classes register "
        "(repeatable); without it, unknown trigger types are only "
        "reported as skipped checks",
    )
    args = parser.parse_args(argv)
    import importlib

    for module in args.imports:
        importlib.import_module(module)
    report = fsck(args.path, engine=args.engine)
    print(report.render_json() if args.json else report.render_text())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    import sys

    from repro.objects.database import Database

    if argv is None:
        argv = sys.argv[1:]
    # `python -m repro.tools lint ...` is the static analyzer's CLI; the
    # positional-path form keeps its historical dump behaviour.
    if argv and argv[0] == "lint":
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "fsck":
        return fsck_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])

    parser = argparse.ArgumentParser(description="Dump an Ode-repro database")
    parser.add_argument("path", help="database path")
    parser.add_argument("--engine", choices=["disk", "mm"], default="disk")
    args = parser.parse_args(argv)
    db = Database.open(args.path, engine=args.engine)
    try:
        print(dump_database(db))
    finally:
        db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. `trace show ... | head`
        raise SystemExit(0)
