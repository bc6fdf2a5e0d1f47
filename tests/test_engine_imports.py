"""The engine does not import the analyzer.

``repro.analysis`` is the trigger linter: callers ask it for an
``AnalysisReport``.  The engine packages (core, objects, storage,
transactions, sessions) run no pass, so no module under them imports
``repro.analysis`` — at module level or inside a function.  Tooling
(``repro.fsck``, ``repro.tools``) may.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ENGINE = ("core", "objects", "storage", "transactions", "sessions")


def _engine_modules() -> list[pathlib.Path]:
    return sorted(
        path for package in ENGINE for path in (SRC / "repro" / package).rglob("*.py")
    )


def _imported(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every import in *path*, relative ones
    resolved against the module's package."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            names.append((node.lineno, module))
            # ``from repro import analysis`` names the package as a member.
            names += [(node.lineno, f"{module}.{a.name}") for a in node.names]
    return names


def test_no_engine_module_imports_the_analyzer():
    modules = _engine_modules()
    assert len(modules) > 30
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in _imported(path)
        if name == "repro.analysis" or name.startswith("repro.analysis.")
    ]
    assert not found, found
