"""Static confluence analysis (ODE202).

Two triggers are *confluent* when their firing order does not matter:
whichever runs first, the final state is the same.  Active-database
theory (Flesca & Greco, PAPERS.md) decides this over rule algebras; here
we use the classic sufficient condition — commutativity of effects.  Two
actions commute when neither writes an attribute the other reads or
writes.

The pass only compares triggers that can actually race:

* same anchor class (effects are attribute sets *of that class*), taken
  over ``all_trigger_infos`` so inherited triggers are compared against
  the subclass's own;
* same coupling mode — immediate firings interleave within a cascade,
  END firings within the commit pass, detached ones as separate
  transactions; across buckets the transaction machinery already
  serializes them;
* overlapping *firing symbols* (:func:`repro.events.dfa.firing_symbols`)
  — if no single posting can complete both detections, the pair shares
  no coupling point and activation order is irrelevant.

Pairs where either effect set is ``unknown`` are skipped: asserting
non-confluence from a widened effect set would drown real findings (the
unknown itself is reported as ODE206 by the metadata pass).

The verdict is a lint finding only: the engine fires a ready set in
activation order and asks nothing at run time — see DESIGN.md §9.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis.diagnostics import Diagnostic, Location
from repro.analysis.effects import EffectSet
from repro.events.dfa import firing_symbols

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = ["check_confluence"]

EffectOf = Callable[["TriggerInfo", "Metatype"], Optional[EffectSet]]


def check_confluence(
    metatypes: list["Metatype"], effect_of: EffectOf
) -> list[Diagnostic]:
    """Report non-confluent trigger pairs across *metatypes*.

    *effect_of* resolves (and caches) the inferred effect set of a
    trigger in the context of the anchor class being analyzed.
    """
    out: list[Diagnostic] = []
    # Pairs an earlier anchor already judged (an inherited trigger pair
    # appears under every subclass).
    seen: set[frozenset[int]] = set()
    for metatype in metatypes:
        infos = metatype.all_trigger_infos
        for i, a in enumerate(infos):
            for b in infos[i + 1 :]:
                pair = frozenset((id(a), id(b)))
                if len(pair) < 2 or pair in seen:
                    continue
                seen.add(pair)
                overlap = _conflict(a, b, metatype, effect_of)
                if overlap:
                    out.append(
                        Diagnostic(
                            "ODE202",
                            f"triggers {a.name!r} and {b.name!r} can fire on "
                            "the same posting at the same coupling point but "
                            "their actions do not commute (both touch "
                            f"{', '.join(sorted(overlap))}); the final state "
                            "depends on activation order — see DESIGN.md §9 "
                            "for the canonical order",
                            Location(metatype.name, a.name),
                            related=(f"{metatype.name}.{b.name}",),
                        )
                    )
    return out


def _conflict(
    a: "TriggerInfo",
    b: "TriggerInfo",
    metatype: "Metatype",
    effect_of: EffectOf,
) -> frozenset[str]:
    if a.coupling is not b.coupling:
        return frozenset()
    if not (
        firing_symbols(a.compiled.fsm) & firing_symbols(b.compiled.fsm)
    ):
        return frozenset()
    ea = effect_of(a, metatype)
    eb = effect_of(b, metatype)
    if ea is None or eb is None or ea.unknown or eb.unknown:
        return frozenset()
    if not ea.analyzed or not eb.analyzed:
        return frozenset()
    return ea.conflicts(eb)
