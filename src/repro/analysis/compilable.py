"""The ODE4xx pass: what the generated-code posting tier makes of a trigger.

The compile tier (:mod:`repro.core.compiled`) specializes each trigger's
FSM and mask predicates into its entry of a generated group function.
The generated code calls the same masks as the interpreter, in the same
order and the same number of times, so no proof gates it; this pass
reports the two things about a trigger that codegen changes or cannot
do:

``ODE401``
    A mask's code references free names that resolve neither in its
    globals nor in builtins.  The interpreter would raise ``NameError``
    at evaluation time, and so will the generated code: the trigger
    fails at its first posting that asks the mask.
``ODE402``
    The machine is too large to specialize: its generated code — one
    branch per state it can rest in and per event a posting can carry,
    each with its mask cascade unrolled into a decision tree — blows the
    plan budget, so the tier interprets its entries.  The judgment is
    the generator's own dry run
    (:func:`repro.core.compiled.plan_unroll`), so it counts exactly what
    would be emitted: not the pseudo-event transitions, not the
    transient mask states.

Both run on every trigger as part of the default per-trigger passes.
"""

from __future__ import annotations

import builtins
import dis
import types
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.diagnostics import Diagnostic, Location
from repro.core.compiled import PlanError, plan_unroll

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo

__all__ = ["check_compilable"]


def _iter_codes(code: types.CodeType) -> Iterable[types.CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _iter_codes(const)


def _unresolved_globals(fn: Callable) -> tuple[str, ...]:
    """Free names *fn* loads that resolve nowhere (ODE401 evidence)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return ()
    globals_ns = getattr(fn, "__globals__", {}) or {}
    missing = set()
    for c in _iter_codes(code):
        for ins in dis.get_instructions(c):
            if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME") and isinstance(
                ins.argval, str
            ):
                name = ins.argval
                if name not in globals_ns and not hasattr(builtins, name):
                    missing.add(name)
    return tuple(sorted(missing))


def _fmt(names: Iterable[str], limit: int = 4) -> str:
    names = sorted(names)
    shown = ", ".join(names[:limit])
    extra = len(names) - limit
    return shown + (f", +{extra} more" if extra > 0 else "")


def check_compilable(info: "TriggerInfo", type_name: str) -> list[Diagnostic]:
    """The ODE401 and ODE402 findings of one trigger declared on
    *type_name*."""
    where = Location(type_name, info.name)
    diags: list[Diagnostic] = []
    try:
        plan_unroll(info.fsm)
    except PlanError as exc:
        diags.append(Diagnostic("ODE402", str(exc), where))
    specs = getattr(info, "mask_specs", None) or {}
    for name in sorted(info.masks):
        # The predicate as declared: the arity adapter that normalizes it
        # to (obj, params, event) resolves every name it loads.
        missing = _unresolved_globals(specs.get(name, info.masks[name]))
        if missing:
            diags.append(
                Diagnostic(
                    "ODE401",
                    f"mask {name!r} references unresolvable free name(s) "
                    f"{_fmt(missing)}; it raises NameError when a posting "
                    "asks it",
                    where,
                )
            )
    return diags
