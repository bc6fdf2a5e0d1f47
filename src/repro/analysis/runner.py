"""Pass orchestration: run every analysis over machines, classes, databases.

The passes themselves live one-per-module (:mod:`reachability`,
:mod:`masks`, :mod:`subsumption`, :mod:`cascade`, :mod:`coupling`,
:mod:`compilable`); this module knows how to walk the object model — a
bare :class:`Fsm`, a compiled :class:`TriggerInfo`, a class (via its
metatype), a set of classes, the whole type registry, or an open
database — and aggregate the findings into an :class:`AnalysisReport`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.analysis.cascade import check_cascades
from repro.analysis.compilable import check_compilable
from repro.analysis.concurrency import check_concurrency
from repro.analysis.confluence import check_confluence
from repro.analysis.coupling import check_coupling
from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    render_json,
    render_text,
)
from repro.analysis.effects import EffectSet, effect_memo
from repro.analysis.masks import check_trigger_masks, check_vacuous_masks
from repro.analysis.metadata import check_metadata, check_stale_suppressions
from repro.analysis.reachability import check_reachability
from repro.analysis.subsumption import check_subsumption
from repro.events.fsm import DEAD, Fsm
from repro.events.minimize import coreachable_states

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.objects.database import Database
    from repro.objects.metatype import Metatype, TypeRegistry


@dataclasses.dataclass
class AnalysisReport:
    """The aggregated findings of one analyzer run."""

    diagnostics: list[Diagnostic] = dataclasses.field(default_factory=list)

    def extend(self, found: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(found)

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render_text(self) -> str:
        return render_text(self.diagnostics)

    def render_json(self) -> str:
        return render_json(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)


def analyze_machine(fsm: Fsm, where: Location | None = None) -> list[Diagnostic]:
    """The machine-level passes: reachability/liveness + structural masks."""
    where = where or Location()
    return check_reachability(fsm, where) + check_vacuous_masks(fsm, where)


def analyze_trigger(info: "TriggerInfo", type_name: str) -> list[Diagnostic]:
    """Every per-trigger pass over one compiled declaration."""
    where = Location(type_name, info.name)
    return (
        analyze_machine(info.compiled.fsm, where)
        + check_trigger_masks(info, type_name)
        + check_coupling(info, type_name)
        + check_compilable(info, type_name)
    )


def _metatype_of(target) -> "Metatype":
    metatype = getattr(target, "__metatype__", target)
    if not hasattr(metatype, "all_trigger_infos"):
        raise TypeError(
            f"cannot analyze {target!r}: expected a persistent class or "
            "metatype with compiled triggers"
        )
    return metatype


def analyze_classes(
    targets: Iterable,
    *,
    concurrency: bool = False,
    confirm_witnesses: bool = False,
) -> AnalysisReport:
    """Analyze a set of classes (or metatypes) together.

    Per-trigger passes run over each class's *own* triggers (so a base
    class shared by several analyzed subclasses is not re-analyzed through
    each of them); subsumption runs over each class's full trigger set —
    inherited against own — with pairs deduplicated; cascade detection
    runs over the union, since posted user events cross class boundaries.

    ``concurrency=True`` adds the opt-in ODE3xx lock-footprint pass;
    ``confirm_witnesses=True`` additionally replays synthesized
    interleavings on the cooperative scheduler to tag predicted
    ODE301/ODE302 deadlocks CONFIRMED vs POSSIBLE (slower: each witness
    spins up a scratch in-memory database).
    """
    report = AnalysisReport()
    metatypes = [_metatype_of(t) for t in targets]

    # Declaration-level suppressions: a trigger may acknowledge a code as
    # intended (``trigger(..., suppress=("ODE020",))``); findings located
    # at that trigger with that code are dropped.
    suppressed: dict[tuple[str, str], frozenset[str]] = {}
    for metatype in metatypes:
        for info in metatype.all_trigger_infos:
            if info.suppress:
                suppressed[(metatype.name, info.name)] = frozenset(info.suppress)
                suppressed[(info.defining_type, info.name)] = frozenset(info.suppress)

    effect_of = effect_memo()

    seen_infos: set[int] = set()
    all_triggers: list[tuple[str, "TriggerInfo"]] = []
    trigger_effects: list[EffectSet] = []
    trigger_decls: list[list] = []
    known_user_events: set[str] = set()
    for metatype in metatypes:
        for decl in metatype.declared_events:
            if decl.kind == "user":
                known_user_events.add(decl.name)
        for info in metatype.trigger_infos:
            if id(info) in seen_infos:
                continue
            seen_infos.add(id(info))
            all_triggers.append((metatype.name, info))
            trigger_effects.append(effect_of(info, metatype))
            trigger_decls.append(metatype.declared_events)
            report.extend(analyze_trigger(info, metatype.name))

    seen_pairs: set[frozenset[int]] = set()
    for metatype in metatypes:
        infos = metatype.all_trigger_infos
        fresh = []
        for i, first in enumerate(infos):
            for second in infos[i + 1 :]:
                pair = frozenset((id(first), id(second)))
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    fresh.append((first, second))
        # check_subsumption wants a flat list; hand it exactly the fresh
        # pairs by running it pair-at-a-time.
        for first, second in fresh:
            report.extend(check_subsumption([first, second], metatype.name))

    report.extend(
        check_cascades(
            all_triggers,
            known_user_events,
            effects=trigger_effects,
            declared_events=trigger_decls,
        )
    )
    report.extend(check_confluence(metatypes, effect_of))
    report.extend(
        check_metadata(all_triggers, known_user_events, trigger_effects)
    )
    if concurrency:
        report.extend(
            check_concurrency(
                metatypes,
                effect_of,
                confirm=confirm_witnesses,
                suppressed=suppressed,
            )
        )
    # ODE205 must see the *pre-suppression* report: a suppression is live
    # exactly when the code it names was produced at its trigger.  The
    # opt-in pass is judged only when it actually ran — a skipped pass
    # cannot prove a suppression stale.
    produced = set()
    for diag in report.diagnostics:
        produced.add((diag.location.type_name, diag.location.trigger, diag.code))
        if diag.code == "ODE301":
            # A predicted cycle belongs to every trigger contributing to
            # it; its location is only the first that does not suppress it.
            for label in diag.related:
                type_name, _, trigger = label.rpartition(".")
                produced.add((type_name, trigger, diag.code))
    report.extend(
        check_stale_suppressions(
            all_triggers,
            produced,
            unchecked_prefixes=() if concurrency else ("ODE3",),
        )
    )

    if suppressed:
        report.diagnostics = [
            diag
            for diag in report.diagnostics
            if diag.code
            not in suppressed.get(
                (diag.location.type_name, diag.location.trigger), ()
            )
        ]
    return report


def analyze_class(
    target,
    *,
    concurrency: bool = False,
    confirm_witnesses: bool = False,
) -> AnalysisReport:
    """Analyze one persistent class (or metatype) in isolation."""
    return analyze_classes(
        [target], concurrency=concurrency, confirm_witnesses=confirm_witnesses
    )


def analyze_registry(
    registry: "TypeRegistry | None" = None,
    *,
    concurrency: bool = False,
    confirm_witnesses: bool = False,
) -> AnalysisReport:
    """Analyze every registered class that declares events or triggers."""
    from repro.objects.metatype import Metatype, global_type_registry

    registry = registry or global_type_registry()
    actives = [
        metatype
        for name in sorted(registry.names())
        if isinstance(metatype := registry.find(name), Metatype)
        and metatype.has_active_facilities()
    ]
    return analyze_classes(
        actives, concurrency=concurrency, confirm_witnesses=confirm_witnesses
    )


def analyze_database(db: "Database") -> AnalysisReport:
    """Database-level pass: active triggers stuck in dead/trap states.

    Declaration-level defects are caught before activation; this inspects
    the *persistent* trigger states — an anchored trigger whose match
    window passed sits in the dead state forever, still consuming a group
    entry and an advance on every posting (ODE050).
    """
    report = AnalysisReport()
    manager = db.txn_manager
    own = manager.current_or_none() is None
    if own:
        txn = manager.begin(system=True)
    else:
        txn = manager.current()
    try:
        from repro.core.trigger_state import TriggerGroup

        unresolved: set[str] = set()
        for obj_rid, group_rid in db.trigger_system.index.entries(txn):
            group = TriggerGroup.decode(db.storage.read(txn.txid, group_rid))
            for _serial, tstate in group.entries:
                try:
                    info = db.registry.find(tstate.trigobjtype).trigger_info(
                        tstate.triggernum
                    )
                except Exception:
                    # An unresolvable type silently skipping its states would
                    # make a bare database target look clean no matter what;
                    # say so once per type (ODE051).
                    if tstate.trigobjtype not in unresolved:
                        unresolved.add(tstate.trigobjtype)
                        report.extend(
                            [
                                Diagnostic(
                                    "ODE051",
                                    "active trigger states reference type "
                                    f"{tstate.trigobjtype!r}, which is not "
                                    "loaded in this process; pass the module "
                                    "defining it alongside the database path "
                                    "to analyze those states",
                                    Location(tstate.trigobjtype),
                                )
                            ]
                        )
                    continue
                where = Location(
                    tstate.trigobjtype, info.name, tstate.statenum
                )
                if tstate.statenum == DEAD:
                    report.extend(
                        [
                            Diagnostic(
                                "ODE050",
                                f"active trigger on object rid {obj_rid} is "
                                "in the dead state: its anchored match "
                                "window has passed and it can never fire; "
                                "deactivate it to stop paying for it",
                                where,
                            )
                        ]
                    )
                elif tstate.statenum not in coreachable_states(info.compiled.fsm):
                    report.extend(
                        [
                            Diagnostic(
                                "ODE050",
                                f"active trigger on object rid {obj_rid} is "
                                "in a trap state with no path to an accept "
                                "state; it can never fire again",
                                where,
                            )
                        ]
                    )
    finally:
        if own:
            manager.commit(txn)
    return report
