"""The ODE4xx compilability pass: may this trigger take the fast path?

The compile tier (:mod:`repro.core.compiled`) specializes a trigger's
FSM + mask predicates into its entry of a generated group function,
which the posting loop calls instead of the interpreter.  That is only
sound when we can *prove*, statically, that the generated code is
observably identical to interpreted posting.  This pass makes that
judgment per trigger and renders every refusal as a stable diagnostic:

``ODE400``
    A mask has effects beyond reads per the ODE2xx effect lattice
    (writes, db ops, posts, aborts, foreign calls).  The generated code
    reuses a mask outcome already decided within one posting instant —
    sound only for pure predicates — and an effectful mask's side
    channel would observe the skipped re-evaluations.
``ODE401``
    A mask's code references free names that resolve neither in its
    globals nor in builtins.  The interpreter would raise ``NameError``
    at evaluation time; baking the reference into generated code could
    change *when* that failure surfaces, so codegen is withheld.
``ODE402``
    The machine is too large to specialize: its generated code — one
    branch per state it can rest in and per event a posting can carry,
    each with its mask cascade unrolled into a decision tree — blows the
    plan budget.  The judgment is the generator's own dry run
    (:func:`repro.core.compiled.plan_unroll`), so it counts exactly what
    would be emitted: not the pseudo-event transitions, not the transient
    mask states.
``ODE403``
    An IMMEDIATE-coupled action (or its declared ``posts=``) can raise
    events on the anchor class — it re-enters the posting loop
    mid-advance, the one regime where interpreter and generated
    dispatch interleave and the proof obligations multiply.  Deferred
    and detached couplings run after the advance completes and are
    exempt.
``ODE404``
    The lattice bottoms out at ``unknown`` (source unavailable, bare-
    name calls, unresolvable anchor methods): absence of evidence of
    impurity is not purity, so the lower bound blocks the proof.

COMPILABLE means "no ODE4xx finding".  The pass is opt-in on the
analysis surfaces (``--compilable`` / ``compilability=True``) — findings
are advisory tiering decisions, not declaration bugs — but the compile
tier itself runs :func:`classify_trigger` on every trigger it is asked
to specialize, so the gate always holds regardless of whether the lint
surface ran.
"""

from __future__ import annotations

import builtins
import dataclasses
import dis
import types
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, Location
from repro.analysis.effects import (
    EffectSet,
    infer_callable_effects,
    infer_trigger_effects,
)
from repro.core.trigger_def import CouplingMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = [
    "CompilabilityVerdict",
    "check_compilability",
    "classify_trigger",
]


@dataclasses.dataclass(frozen=True)
class CompilabilityVerdict:
    """One trigger's judgment: COMPILABLE, or the diagnostics saying why not."""

    compilable: bool
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(d.code for d in self.diagnostics)


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


def _resolves_on(cls: Optional[type], name: str) -> bool:
    if cls is None:
        return False
    import inspect

    return inspect.getattr_static(cls, name, None) is not None


def _fmt(names: Iterable[str], limit: int = 4) -> str:
    names = sorted(names)
    shown = ", ".join(names[:limit])
    extra = len(names) - limit
    return shown + (f", +{extra} more" if extra > 0 else "")


def _mask_diagnostics(
    info: "TriggerInfo",
    metatype: Optional["Metatype"],
    where_args: dict,
) -> list[Diagnostic]:
    cls = getattr(metatype, "pyclass", None)
    diags: list[Diagnostic] = []
    specs = getattr(info, "mask_specs", None) or {}
    for name in sorted(info.masks):
        # Analyze the predicate as declared; the arity adapter that
        # normalizes it to (obj, params, event) is an opaque call the
        # lattice would widen to unknown.  Bridge triggers built at run
        # time carry only the adapted form — they land in ODE404 below.
        fn = specs.get(name, info.masks[name])
        missing = _unresolved_globals(fn)
        if missing:
            diags.append(
                Diagnostic(
                    "ODE401",
                    f"mask {name!r} references unresolvable free name(s) "
                    f"{_fmt(missing)}; generated code would change when the "
                    "NameError surfaces",
                    Location(**where_args),
                )
            )
        eff = infer_callable_effects(fn, cls)
        if not eff.analyzed or eff.unknown:
            reasons = _fmt(eff.unknown_reasons, limit=2) or "effects unknown"
            diags.append(
                Diagnostic(
                    "ODE404",
                    f"mask {name!r} has unprovable effects ({reasons}); "
                    "purity is the codegen soundness condition",
                    Location(**where_args),
                )
            )
            continue
        impure = []
        if eff.writes:
            impure.append(f"writes {_fmt(eff.writes)}")
        if eff.db_ops:
            impure.append(f"db ops {_fmt(eff.db_ops)}")
        if eff.posts:
            impure.append(f"posts {_fmt(eff.posts)}")
        if eff.foreign_calls:
            impure.append(f"foreign calls {_fmt(eff.foreign_calls)}")
        if eff.aborts:
            impure.append("aborts")
        if impure:
            diags.append(
                Diagnostic(
                    "ODE400",
                    f"mask {name!r} is impure ({'; '.join(impure)}); the "
                    "compiled tier reuses mask outcomes within a posting "
                    "instant, which only pure predicates tolerate",
                    Location(**where_args),
                )
            )
        unresolved = [c for c in sorted(eff.calls) if not _resolves_on(cls, c)]
        if unresolved:
            # _inline_calls silently skips anchor-method calls it cannot
            # resolve, so an `analyzed` verdict can still hide un-inlined
            # bodies; re-checking resolution keeps the purity claim honest.
            diags.append(
                Diagnostic(
                    "ODE404",
                    f"mask {name!r} calls {_fmt(unresolved)} which does not "
                    "resolve on the anchor class; the un-inlined body is an "
                    "unknown-effects lower bound",
                    Location(**where_args),
                )
            )
    return diags


def _action_diagnostics(
    info: "TriggerInfo",
    metatype: Optional["Metatype"],
    where_args: dict,
    effect_of: Optional[Callable[["TriggerInfo", Optional["Metatype"]], EffectSet]],
) -> list[Diagnostic]:
    if info.coupling is not CouplingMode.IMMEDIATE:
        return []
    diags: list[Diagnostic] = []
    eff = (
        effect_of(info, metatype)
        if effect_of is not None
        else infer_trigger_effects(info, metatype)
    )
    if not eff.analyzed or eff.unknown:
        reasons = _fmt(eff.unknown_reasons, limit=2) or "effects unknown"
        diags.append(
            Diagnostic(
                "ODE404",
                f"immediate action has unprovable effects ({reasons}); "
                "cannot rule out posting re-entry mid-advance",
                Location(**where_args),
            )
        )
        return diags
    declared = getattr(metatype, "declared_events", None) or ()
    method_events = {d.name for d in declared if d.is_method_event}
    user_events = {d.name for d in declared if d.kind == "user"}
    reentry = sorted(
        (eff.calls & method_events)
        | (eff.posts & user_events)
        | (frozenset(info.posts) & user_events)
    )
    if reentry:
        diags.append(
            Diagnostic(
                "ODE403",
                f"immediate action raises anchor event(s) {_fmt(reentry)} — "
                "re-enters the posting loop mid-advance, where compiled and "
                "interpreted dispatch would interleave",
                Location(**where_args),
            )
        )
    return diags


def classify_trigger(
    info: "TriggerInfo",
    metatype: Optional["Metatype"] = None,
    effect_of: Optional[
        Callable[["TriggerInfo", Optional["Metatype"]], EffectSet]
    ] = None,
) -> CompilabilityVerdict:
    """Judge one trigger; compilable iff no ODE4xx diagnostic applies."""
    type_name = getattr(metatype, "name", None) or info.defining_type
    where_args = {"type_name": type_name, "trigger": info.name}
    diags: list[Diagnostic] = []

    from repro.core.compiled import PlanError, plan_unroll

    try:
        plan_unroll(info.fsm)
    except PlanError as exc:
        diags.append(Diagnostic("ODE402", str(exc), Location(**where_args)))
    except Exception as exc:  # never let planning break analysis
        diags.append(
            Diagnostic(
                "ODE402", f"machine cannot be planned ({exc})", Location(**where_args)
            )
        )

    diags.extend(_mask_diagnostics(info, metatype, where_args))
    diags.extend(_action_diagnostics(info, metatype, where_args, effect_of))
    return CompilabilityVerdict(compilable=not diags, diagnostics=tuple(diags))


def check_compilability(
    metatypes: Iterable["Metatype"],
    effect_of: Optional[
        Callable[["TriggerInfo", Optional["Metatype"]], EffectSet]
    ] = None,
) -> list[Diagnostic]:
    """Run the ODE4xx pass over every trigger of *metatypes*.

    Emits diagnostics only for NON-compilable triggers — a clean result
    means the whole trigger set takes the generated-code fast path.
    """
    diags: list[Diagnostic] = []
    seen: set[int] = set()
    for metatype in metatypes:
        for info in getattr(metatype, "all_trigger_infos", None) or getattr(
            metatype, "trigger_infos", []
        ):
            if id(info) in seen:
                continue
            seen.add(id(info))
            verdict = classify_trigger(info, metatype, effect_of)
            diags.extend(verdict.diagnostics)
    return diags
