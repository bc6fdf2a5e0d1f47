"""Static termination analysis: cascade cycles (ODE030–ODE032, ODE200/201).

A trigger action that calls member functions or posts user events can wake
other triggers — the "conceptually nested transactions" of Section 5.4.5.
When the posting relation is cyclic *and* every trigger on the cycle is
perpetual, nothing ever leaves the cycle: each firing re-arms the trigger
and re-posts the event that wakes the next one, looping until something
aborts.

PR 1 built the posting relation from hand-declared ``posts=`` metadata
alone.  This pass unions in *inferred* effects (``repro.analysis.effects``):
user events the action body actually posts, plus member events raised by
calling wrapped methods through the anchor handle (``self.pay_bill(...)``
inside an action posts ``after pay_bill`` — a real cascade edge no
metadata mentions).  Edges are pruned through the target's compiled
machine: a posting only counts if the target expression can consume that
symbol on a path to acceptance (:func:`repro.events.dfa.acceptance_through`).

Cycle classification:

* ``ODE201`` (warning) — some member's machine is *predicate-guarded*:
  it cannot accept without a mask pseudo-event evaluating true
  (:func:`repro.events.dfa.acceptance_avoiding`), so the cycle stops as
  soon as the predicate goes false.  Reported so the guard is a
  conscious decision, suppressible when it is.
* ``ODE030`` (error) / ``ODE031`` (warning) — unguarded cycle whose
  edges are all *declared* (``posts=``): all-immediate loops run away
  within one cascade; deferred/detached ones loop across transactions.
* ``ODE200`` (error) — unguarded cycle that needs at least one
  *inferred-only* edge: the most dangerous kind, invisible to metadata.
* ``ODE032`` (warning) — ``posts=`` names an event no analyzed class
  declares *and* the action body does not post it either (a typo, or the
  declaration outlived a rename).

A cycle through a once-only trigger is self-limiting — the trigger
deactivates after its first firing — and is not reported.  Unknown
effects contribute no edges (the analysis under-approximates rather than
flooding every dynamic action with cycles); the metadata pass flags the
unknown separately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Location
from repro.core.trigger_def import CouplingMode
from repro.events.ast import AnyEvent, ExtAnyEvent
from repro.events.dfa import acceptance_avoiding, acceptance_through

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.effects import EffectSet
    from repro.core.trigger_def import TriggerInfo
    from repro.events.fsm import EventDecl

def _listened_symbols(info: "TriggerInfo") -> set[str]:
    """Symbols the trigger's expression reacts to (user events by name,
    member/tx events by ``"kind name"`` symbol).  An ``any`` anywhere in
    the expression listens to every declared symbol of the class."""
    expr = info.compiled.expr
    if expr is not None and any(
        isinstance(node, (AnyEvent, ExtAnyEvent)) for node in _walk_expr(expr)
    ):
        return {
            s
            for s in info.compiled.fsm.alphabet
            if not s.startswith(("true:", "false:"))
        }
    if expr is None:
        return set()
    return {event.symbol for event in expr.basic_events()}


def _walk_expr(expr):
    yield expr
    for child in getattr(expr, "children", lambda: ())():
        yield from _walk_expr(child)


def _guarded(info: "TriggerInfo") -> bool:
    """Whether every acceptance of this trigger's machine requires some
    mask predicate to evaluate true."""
    fsm = info.compiled.fsm
    trues = {s for s in fsm.alphabet if s.startswith("true:")}
    if not trues:
        return False
    return not acceptance_avoiding(fsm, trues)


def check_cascades(
    triggers: list[tuple[str, "TriggerInfo"]],
    known_user_events: set[str],
    effects: Optional[Sequence[Optional["EffectSet"]]] = None,
    declared_events: Optional[Sequence[Sequence["EventDecl"]]] = None,
) -> list[Diagnostic]:
    """Build the trigger→posts→trigger graph and report its cycles.

    *triggers* is ``(type_name, info)`` pairs across every analyzed class;
    *known_user_events* the union of declared user-event names (for the
    ODE032 typo check).  *effects* and *declared_events* are parallel to
    *triggers*: the inferred effect set of each action (or ``None``) and
    the declared events of each trigger's class (for mapping member-
    function calls to ``before``/``after`` symbols).  Edges are matched
    by symbol: posting metadata does not say which *object* receives the
    post, so a name collision across classes conservatively counts as an
    edge.
    """
    diagnostics: list[Diagnostic] = []
    nodes = list(range(len(triggers)))
    listened = [_listened_symbols(info) for _, info in triggers]
    effects = list(effects) if effects is not None else [None] * len(triggers)
    declared_events = (
        list(declared_events)
        if declared_events is not None
        else [()] * len(triggers)
    )

    # Member-event symbols any analyzed class declares, keyed by method
    # name — the conservative match for calls on *foreign* handles.
    foreign_member_symbols: dict[str, set[str]] = {}
    for decls in declared_events:
        for decl in decls:
            if decl.is_method_event:
                foreign_member_symbols.setdefault(decl.name, set()).add(
                    decl.symbol
                )

    posted_declared: list[set[str]] = []
    posted_inferred: list[set[str]] = []
    for n, (type_name, info) in enumerate(triggers):
        eff = effects[n]
        inferred: set[str] = set()
        if eff is not None:
            inferred |= eff.posts
            for method in eff.calls:
                for decl in declared_events[n]:
                    if decl.is_method_event and decl.name == method:
                        inferred.add(decl.symbol)
            for method in eff.foreign_calls:
                inferred |= foreign_member_symbols.get(method, set())
        posted_inferred.append(inferred)
        posted_declared.append(
            {name for name in info.posts if name in known_user_events}
        )
        for event_name in info.posts:
            if event_name in known_user_events:
                continue
            if eff is not None and event_name in eff.posts:
                # the action really does post it; the event is simply
                # declared by a class outside this analysis run
                continue
            diagnostics.append(
                Diagnostic(
                    "ODE032",
                    f"action declares posts={event_name!r} but no "
                    "analyzed class declares that user event",
                    Location(type_name, info.name),
                )
            )

    edges: dict[int, list[int]] = {n: [] for n in nodes}
    declared_edges: dict[int, list[int]] = {n: [] for n in nodes}
    for src in nodes:
        for symbol in posted_declared[src] | posted_inferred[src]:
            for dst in nodes:
                if symbol not in listened[dst]:
                    continue
                if not acceptance_through(triggers[dst][1].compiled.fsm, symbol):
                    continue  # the target machine can never consume it
                if dst not in edges[src]:
                    edges[src].append(dst)
                if symbol in posted_declared[src] and dst not in declared_edges[src]:
                    declared_edges[src].append(dst)

    seen_cycles: set[frozenset[int]] = set()
    for component in _cyclic_sccs(nodes, edges):
        key = frozenset(component)
        if key in seen_cycles:
            continue  # the same cycle, rotated
        seen_cycles.add(key)
        members = [triggers[n] for n in component]
        if not all(info.perpetual for _, info in members):
            continue  # a once-only trigger breaks the loop after one lap
        names = _canonical_cycle_names(members)
        type_name, info = members[0]
        where = Location(type_name, info.name)
        related = tuple(names[1:]) if len(names) > 1 else ()
        cycle = " -> ".join(names + [names[0]])
        if any(_guarded(info) for _, info in members):
            diagnostics.append(
                Diagnostic(
                    "ODE201",
                    f"triggers form a posting cycle ({cycle}) that is "
                    "predicate-guarded: firing requires a mask to hold, so "
                    "the cascade stops when the predicate goes false — "
                    "verify the predicate converges, then suppress",
                    where,
                    related=related,
                )
            )
            continue
        if _cycle_within(component, declared_edges):
            if all(
                info.coupling is CouplingMode.IMMEDIATE for _, info in members
            ):
                diagnostics.append(
                    Diagnostic(
                        "ODE030",
                        f"perpetual immediate triggers form a posting cycle "
                        f"({cycle}); every detection re-posts the event that "
                        "re-arms the cycle, so one firing cascades forever "
                        "within a single transaction",
                        where,
                        related=related,
                    )
                )
            else:
                diagnostics.append(
                    Diagnostic(
                        "ODE031",
                        f"perpetual triggers form a posting cycle ({cycle}) "
                        "through deferred/detached couplings; each firing "
                        "schedules the next round, looping unboundedly across "
                        "transactions",
                        where,
                        related=related,
                    )
                )
        else:
            diagnostics.append(
                Diagnostic(
                    "ODE200",
                    f"inferred action effects close a posting cycle "
                    f"({cycle}) that no posts= metadata declares; the loop "
                    "is irrefutable (no mask guards it) and will cascade "
                    "until the run-time recursion limit or an abort stops it",
                    where,
                    related=related,
                )
            )
    return diagnostics


def _canonical_cycle_names(
    members: list[tuple[str, "TriggerInfo"]]
) -> list[str]:
    """Stable display order: rotate so the lexicographically smallest
    member leads (two reports of the same cycle render identically)."""
    names = [f"{type_name}.{info.name}" for type_name, info in members]
    pivot = names.index(min(names))
    return names[pivot:] + names[:pivot]


def _cycle_within(component: list[int], edges: dict[int, list[int]]) -> bool:
    """Whether *component*'s nodes are still cyclic using only *edges*
    (the declared-posts subgraph)."""
    scoped = {
        n: [d for d in edges[n] if d in component] for n in component
    }
    return bool(_cyclic_sccs(list(component), scoped))


def _cyclic_sccs(
    nodes: list[int], edges: dict[int, list[int]]
) -> list[list[int]]:
    """Tarjan's strongly-connected components, cyclic ones only.

    A component counts as cyclic if it has more than one node, or one node
    with a self-edge (a trigger that posts the event it listens to).
    """
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    result: list[list[int]] = []

    def strongconnect(node: int) -> None:
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in edges[node]:
            if succ not in index:
                strongconnect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            component.sort()
            if len(component) > 1 or node in edges[node]:
                result.append(component)

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return result
