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

``--fail-on`` is the one gate on the findings: ``--fail-on info`` over a
directory (``python -m repro.analysis examples/ --fail-on info``, the CI
gate) demands that it is lint-clean, since every finding is at least
``info``.

A file that lives in an importable package (``src/repro/workloads/*.py``
with ``src`` on the path) is imported under its dotted name, so modules
that import one another are each loaded once; any other file is loaded
under a name of its own.

``--concurrency`` adds the opt-in ODE3xx lock-footprint pass (Section 6
amplification, predicted deadlock cycles with cooperative-scheduler
witness confirmation — disable replays with ``--no-confirm``).

Exit-code contract (stable, for CI and external tooling):

* ``0`` — analysis ran; no finding at or above ``--fail-on`` (always
  ``0`` under ``--fail-on never``);
* ``1`` — analysis ran and findings crossed the threshold;
* ``2`` — a target could not be loaded (import error, missing path) —
  nothing was analyzed, so 2 must never be treated as "dirty but parsed".

Machine consumers should pass ``--format json`` and read the finding
array from stdout; diagnostics about the run itself go to stderr.
"""

from __future__ import annotations

import argparse
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


def _package_name(path: str) -> str | None:
    """The dotted name *path* imports under, if it is a module of a
    package on ``sys.path``."""
    directory, name = os.path.split(os.path.splitext(os.path.abspath(path))[0])
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        name = f"{package}.{name}"
    try:
        spec = importlib.util.find_spec(name) if "." in name else None
    except (ImportError, ValueError):
        return None
    origin = spec.origin if spec else None
    if origin and os.path.isfile(origin) and os.path.samefile(origin, path):
        return name
    return None


def _load_file(path: str) -> object:
    name = _package_name(path)
    if name is not None:
        return importlib.import_module(name)
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
        "--format",
        choices=["text", "json"],
        default="text",
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
        "(default: error, so warnings-only runs exit 0; info fails on any "
        "finding)",
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

    if not args.targets:
        parser.error("no targets given")

    report = AnalysisReport()
    try:
        modules = _load_targets(list(args.targets), args.engine, report)
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

    print(report.render_json() if args.format == "json" else report.render_text())

    if args.fail_on == "never":
        return 0
    return 1 if report.at_least(Severity.parse(args.fail_on)) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
