"""Command-line interface: ``python -m repro.analysis <module-or-db> ...``.

Targets may be:

* a Python file (``examples/quickstart.py``) — imported, then every
  registered active class is analyzed;
* a directory of Python files — each is imported;
* a dotted module name (``repro.workloads.credit_card``);
* an existing database path — opened (``--engine``) and the *persistent*
  trigger states checked (ODE050) in addition to the registered classes.

A loaded module may also export ``__analysis_machines__``, a mapping of
name → :class:`~repro.events.fsm.Fsm`; those machines get the
machine-level passes (used by the test fixtures to seed raw machines the
compiler could never produce).

``--self-check DIR`` is the CI gate: import everything in DIR and demand
*zero* findings of any severity (exit 1 otherwise).

``--concurrency`` adds the opt-in ODE3xx lock-footprint pass (Section 6
amplification, predicted deadlock cycles with cooperative-scheduler
witness confirmation — disable replays with ``--no-confirm``).

Exit-code contract (stable, for CI and external tooling):

* ``0`` — analysis ran; no finding at or above ``--fail-on`` (and, under
  ``--self-check``, no finding at all);
* ``1`` — analysis ran and findings crossed the threshold;
* ``2`` — a target could not be loaded (import error, missing path) —
  nothing was analyzed, so 2 must never be treated as "dirty but parsed".

Machine consumers should pass ``--format json`` and read the finding
array from stdout; diagnostics about the run itself go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import os
import sys

from repro.analysis.diagnostics import CODES, Location, Severity
from repro.analysis.runner import (
    AnalysisReport,
    analyze_database,
    analyze_machine,
    analyze_registry,
)


def _load_file(path: str) -> object:
    name = "ode_analysis_target_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path!r}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_directory(path: str) -> list[object]:
    modules = []
    for entry in sorted(os.listdir(path)):
        if entry.endswith(".py") and not entry.startswith("_"):
            modules.append(_load_file(os.path.join(path, entry)))
    return modules


def _is_module_dir(path: str) -> bool:
    return os.path.isdir(path) and any(
        entry.endswith(".py") for entry in os.listdir(path)
    )


#: Storage engines address databases by *prefix*; the files on disk carry
#: these suffixes (disk: .data/.wal, mm: .snap/.oplog).
_DB_SUFFIXES = (".data", ".wal", ".snap", ".oplog")


def _is_database_path(path: str) -> bool:
    return os.path.exists(path) or any(
        os.path.exists(path + suffix) for suffix in _DB_SUFFIXES
    )


def _load_targets(
    targets: list[str], engine: str, report: AnalysisReport
) -> list[object]:
    """Import/open every target; returns the loaded modules."""
    modules: list[object] = []
    for target in targets:
        if target.endswith(".py") and os.path.isfile(target):
            modules.append(_load_file(target))
        elif _is_module_dir(target):
            modules.extend(_load_directory(target))
        elif importlib.util.find_spec(target) is not None:
            modules.append(importlib.import_module(target))
        elif _is_database_path(target):
            from repro.objects.database import Database

            db = Database.open(target, engine=engine)
            try:
                report.extend(analyze_database(db).diagnostics)
            finally:
                db.close()
        else:
            raise FileNotFoundError(
                f"target {target!r} is neither a Python file, a directory, "
                "an importable module, nor an existing database path "
                "(database prefix <p> needs <p>.data or <p>.snap on disk)"
            )
    return modules


def _machine_findings(modules: list[object]) -> list:
    found = []
    for module in modules:
        machines = getattr(module, "__analysis_machines__", None) or {}
        for name, fsm in sorted(machines.items()):
            found.extend(analyze_machine(fsm, Location(type_name=name)))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically lint Ode trigger declarations",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="Python files, directories, module names, or database paths",
    )
    parser.add_argument(
        "--self-check",
        metavar="DIR",
        help="import DIR and fail on ANY finding (the CI gate)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="JSON output (alias for --format json)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default=None,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the ODE3xx lock-footprint / deadlock-prediction pass "
        "(predicted cycles are confirmed on the cooperative scheduler "
        "unless --no-confirm)",
    )
    parser.add_argument(
        "--no-confirm",
        action="store_true",
        help="with --concurrency: skip witness replays, report every "
        "predicted deadlock as POSSIBLE",
    )
    parser.add_argument(
        "--fail-on",
        default="error",
        choices=["info", "warning", "error", "never"],
        help="minimum severity that makes the exit status nonzero "
        "(default: error, so warnings-only runs exit 0)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="promote ODE2xx warnings (termination/confluence/metadata) "
        "to errors",
    )
    parser.add_argument("--engine", choices=["disk", "mm"], default="disk")
    parser.add_argument(
        "--list-codes", action="store_true", help="print the diagnostic catalogue"
    )
    args = parser.parse_args(argv)

    if args.list_codes:
        for code, (severity, title) in sorted(CODES.items()):
            print(f"{code}  {severity!s:8} {title}")
        return 0

    if not args.targets and not args.self_check:
        parser.error("no targets given (or use --self-check DIR)")

    report = AnalysisReport()
    try:
        modules = _load_targets(list(args.targets), args.engine, report)
        if args.self_check:
            modules.extend(_load_directory(args.self_check))
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report.extend(
        analyze_registry(
            concurrency=args.concurrency,
            confirm_witnesses=args.concurrency and not args.no_confirm,
        ).diagnostics
    )
    report.extend(_machine_findings(modules))

    if args.strict:
        report.diagnostics = [
            dataclasses.replace(diag, severity=Severity.ERROR)
            if diag.code.startswith("ODE2") and diag.severity == Severity.WARNING
            else diag
            for diag in report.diagnostics
        ]

    as_json = args.json or args.format == "json"
    print(report.render_json() if as_json else report.render_text())

    if args.self_check:
        return 1 if report.diagnostics else 0
    if args.fail_on == "never":
        return 0
    return 1 if report.at_least(Severity.parse(args.fail_on)) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
