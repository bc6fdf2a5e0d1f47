"""Static concurrency analysis: lock footprints, Section 6 amplification,
deadlock prediction, and the dynamic lockset cross-check (ODE3xx).

The paper's Section 6 complaint is that triggers *"turn read access into
write access, increasing both the amount of time the transactions spend
waiting for locks and the likelihood of deadlock"* — every FSM advance
writes the persistent trigger state back, so an ostensibly read-only
transaction takes X locks.  Experiment E6 measures it; this module
predicts it from declarations alone.

The analysis lifts each trigger's inferred :class:`EffectSet` (see
:mod:`repro.analysis.effects`) plus its FSM structure to an *ordered*
:class:`LockFootprint` — the sequence of S/X acquisitions one posting
performs under strict 2PL (paper Section 5.4.5: dereference the object,
read the trigger group its header names, X-lock it on a state change —
the write itself waits for commit — then run the action's own writes).
Resources are symbolic *classes*, not instances:

* ``object:<Type>``  — the monitored object's record
* ``state-group:<Type>`` — the object's trigger group: one record holding
  every active trigger state of the object, whichever trigger it is
* ``extent:<Type>`` — a class's extent, a symbolic lock (no record):
  ``pnew``/``pdelete`` take it X, an ``objects()`` scan S; an action whose
  allocations are not typed statically is charged ``extent:*``
* ``meta`` — in an observed trace, every lock on neither an object nor a
  group: the catalog, extents, secondary-index B-trees, the phoenix queue

Footprints feed four passes:

* **ODE300** — a watched event is postable from a read-only path (user
  events, transaction events, or member functions with no inferred
  writes) yet posting it acquires X locks: the exact amplifying lock set
  is reported.
* **ODE301** — the cross-trigger lock-order graph (footprint steps give
  intra-posting edges; per-instance resources acquired exclusively give
  multi-instance self-edges, since one transaction posts to several
  objects while holding everything under strict 2PL) contains a cycle:
  concurrent sessions can deadlock.
* **ODE302** — an S→X upgrade on a resource while other locks are held:
  two transactions that both reach the S step deadlock on the upgrade.
* **ODE310** — the Eraser-style *dynamic* lockset checker: observed
  ``repro.obs`` lock-trace records (live or loaded from JSONL) are
  cross-checked against the static footprints — an X acquisition or an
  upgrade on a resource class the footprints never predict, or an
  observed deadlock when no cycle was predicted, contradicts the model.

Predicted ODE301/ODE302 findings are *confirmed* by replaying a
synthesized two-session interleaving on the deterministic
:class:`~repro.sessions.scheduler.CooperativeScheduler` against a scratch
database: a replay that deadlocks tags the finding CONFIRMED, anything
else (down to "the witness could not even be constructed") stays
POSSIBLE.  Soundness caveats — ``unknown``-widened effects make the
footprint a *lower* bound on the action side while the FSM side stays
exact — are spelled out in DESIGN.md Section 12.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.analysis.diagnostics import Diagnostic, Location
from repro.analysis.effects import (
    EffectSet,
    _class_method,
    infer_callable_effects,
    infer_trigger_effects,
)
from repro.events.minimize import reachable_states

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.events.compile import CompiledMachine
    from repro.obs.trace import TraceRecord
    from repro.objects.metatype import Metatype

__all__ = [
    "LockStep",
    "LockFootprint",
    "Witness",
    "advancing_symbols",
    "infer_lock_footprint",
    "check_concurrency",
    "check_lock_trace",
    "observed_lock_profile",
    "static_lock_profile",
    "replay_witness",
]

S = "S"
X = "X"

#: Resource kinds that name one record *per instance* — a transaction
#: touching two instances of the class holds two distinct locks, which is
#: what makes multi-instance self-edges (and therefore single-class
#: deadlock cycles) real.
_PER_INSTANCE_KINDS = ("object", "state-group")

#: Upper bound on cooperative witness replays per analyzer run — each one
#: spins up a scratch database; predicted cycles beyond the cap stay
#: POSSIBLE.
_MAX_WITNESSES = 8


@dataclasses.dataclass(frozen=True)
class LockStep:
    """One symbolic acquisition in a posting's lock sequence."""

    resource: str
    mode: str  # "S" or "X"
    why: str = ""

    @property
    def kind(self) -> str:
        return self.resource.split(":", 1)[0]

    def __str__(self) -> str:
        return f"{self.mode}({self.resource})"


@dataclasses.dataclass(frozen=True)
class LockFootprint:
    """The ordered S/X acquisitions one posting performs for one trigger."""

    type_name: str
    trigger: str
    expression: str
    steps: tuple[LockStep, ...]
    #: symbols the trigger's machine consumes
    watched: frozenset[str]
    #: watched symbols whose posting can change the stored state number
    advancing: frozenset[str]
    #: declared symbols postable without any inferred write (per symbol,
    #: the reason it counts as read-only)
    readonly_postable: frozenset[str]
    #: the action runs in its own transaction (dependent/!dependent), so
    #: its effects are excluded from this (detector-transaction) footprint
    detached_action: bool
    #: the action's effects were widened to unknown — the action side of
    #: the footprint is a lower bound (DESIGN Section 12 caveat)
    unknown: bool

    @property
    def label(self) -> str:
        return f"{self.type_name}.{self.trigger}"

    def classes(self) -> frozenset[str]:
        return frozenset(step.resource for step in self.steps)

    def modes(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for step in self.steps:
            out.setdefault(step.resource, set()).add(step.mode)
        return out

    def x_steps(self) -> tuple[LockStep, ...]:
        return tuple(step for step in self.steps if step.mode == X)

    def upgrades(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(resource, other-resources-held-at-the-upgrade)`` pairs."""
        out = []
        seen_s: set[str] = set()
        held: list[str] = []
        for step in self.steps:
            if step.mode == X and step.resource in seen_s:
                out.append(
                    (step.resource, tuple(r for r in held if r != step.resource))
                )
            if step.mode == S:
                seen_s.add(step.resource)
            if step.resource not in held:
                held.append(step.resource)
        return tuple(out)

    def describe(self) -> str:
        return " -> ".join(str(step) for step in self.steps)


# --------------------------------------------------------------------------
# footprint inference


def _advances_from(statenum: int, symbol: str, compiled: "CompiledMachine") -> bool:
    """Whether consuming *symbol* in *statenum* may change the stored state.

    A missing transition leaves the state put (or kills an anchored
    machine); a consumed transition that lands on a *masked* state may
    move further during the same quiesce pass, so it counts as advancing
    even when it is a self-loop.
    """
    target = compiled.fsm.states[statenum].transitions.get(symbol)
    if target is None:
        return compiled.anchored  # any alphabet symbol drives anchored -> DEAD
    return target != statenum or bool(compiled.fsm.states[target].masks)


def advancing_symbols(compiled: "CompiledMachine") -> frozenset[str]:
    """Watched symbols whose posting can write the trigger state back
    (i.e. change the stored state number from some reachable state)."""
    return frozenset(
        symbol
        for statenum in reachable_states(compiled.fsm)
        for symbol in compiled.event_symbols
        if _advances_from(statenum, symbol, compiled)
    )


def start_advancing_symbols(compiled: "CompiledMachine") -> frozenset[str]:
    """Watched symbols that advance the machine *from the start state* —
    the ones a witness can post first to take the X lock immediately."""
    return frozenset(
        symbol
        for symbol in compiled.event_symbols
        if _advances_from(compiled.fsm.start, symbol, compiled)
    )


def _readonly_reason(metatype: "Metatype", decl) -> Optional[str]:
    """Why *decl* is postable from a read-only path, or None if it is not."""
    if decl.kind == "user":
        return "user event (postable on any handle via post_event)"
    if decl.is_transaction_event:
        return "transaction event (posted at commit of read-only transactions)"
    method = _class_method(metatype.pyclass, decl.name)
    if method is None:
        return None
    eff = infer_callable_effects(method, metatype.pyclass)
    if not eff.analyzed or eff.unknown:
        return None  # conservative: an unanalyzable method may write
    if eff.writes or eff.db_ops:
        return None
    return f"member function {decl.name}() has no inferred writes"


def infer_lock_footprint(
    info: "TriggerInfo",
    metatype: "Metatype",
    effects: EffectSet | None = None,
) -> LockFootprint:
    """Map one trigger's FSM + effect set to its ordered lock sequence."""
    from repro.core.trigger_def import CouplingMode

    if effects is None:
        effects = infer_trigger_effects(info, metatype)
    compiled = info.compiled
    type_name = info.defining_type
    obj = f"object:{type_name}"
    group = f"state-group:{type_name}"
    watched = frozenset(compiled.event_symbols)
    advancing = advancing_symbols(compiled)

    decls = {decl.symbol: decl for decl in metatype.declared_events}
    readonly = frozenset(
        symbol
        for symbol in decls
        if _readonly_reason(metatype, decls[symbol]) is not None
    )

    steps: list[LockStep] = []
    held: dict[str, str] = {}

    def push(resource: str, mode: str, why: str) -> None:
        if held.get(resource) == X or held.get(resource) == mode:
            return
        held[resource] = X if mode == X else held.get(resource, S)
        steps.append(LockStep(resource, mode, why))

    push(obj, S, "dereference of the posted-to object")
    # A watched member function's own writes land before its after-event
    # posts — the transaction already holds the object exclusively.
    for symbol in sorted(watched):
        decl = decls.get(symbol)
        if decl is None or decl.kind == "user" or decl.is_transaction_event:
            continue
        method = _class_method(metatype.pyclass, decl.name)
        if method is None:
            continue
        meff = infer_callable_effects(method, metatype.pyclass)
        if any(not w.startswith("*.") for w in meff.writes):
            push(obj, X, f"watched member function {decl.name}() writes the object")
            break
    push(group, S, "trigger group read")
    if advancing:
        push(group, X, "trigger group X-locked on FSM advance (written at commit)")

    detached = info.coupling in (CouplingMode.DEPENDENT, CouplingMode.INDEPENDENT)
    if not detached:
        if any(not w.startswith("*.") for w in effects.writes):
            push(obj, X, "action writes the anchor object")
        if effects.foreign_calls or any(
            w.startswith("*.") for w in effects.writes
        ):
            push("object:*", X, "action writes other objects")
        if effects.db_ops:
            push("extent:*", X, "action allocates/deletes persistent records")

    return LockFootprint(
        type_name=type_name,
        trigger=info.name,
        expression=compiled.text,
        steps=tuple(steps),
        watched=watched,
        advancing=advancing,
        readonly_postable=readonly,
        detached_action=detached,
        unknown=bool(effects.unknown or not effects.analyzed),
    )


def _lockable(metatype: "Metatype") -> bool:
    """Only persistent classes take storage locks; monitored (volatile)
    classes run their local rules with zero lock traffic."""
    from repro.objects.persistent import Persistent

    pyclass = getattr(metatype, "pyclass", None)
    return isinstance(pyclass, type) and issubclass(pyclass, Persistent)


def _collect_footprints(
    metatypes: Iterable["Metatype"],
    effect_of: Callable[["TriggerInfo", "Metatype"], EffectSet] | None = None,
) -> list[tuple["Metatype", "TriggerInfo", LockFootprint]]:
    if effect_of is None:
        effect_of = lambda info, metatype: infer_trigger_effects(info, metatype)
    out = []
    seen: set[int] = set()
    for metatype in metatypes:
        if not _lockable(metatype):
            continue
        for info in metatype.all_trigger_infos:
            if id(info) in seen:
                continue
            seen.add(id(info))
            out.append(
                (metatype, info, infer_lock_footprint(info, metatype, effect_of(info, metatype)))
            )
    return out


# --------------------------------------------------------------------------
# the lock-order graph


def _order_graph(footprints: list[LockFootprint]):
    """Edges ``a -> b`` with the mode of the *later* acquisition and the
    contributing trigger labels.

    Within one posting, step i precedes step j (strict 2PL holds i while
    requesting j).  Across postings of one transaction, any per-instance
    resource acquired exclusively yields a self-edge: the transaction
    holds instance 1 of the class while requesting instance 2, and two
    transactions visiting instances in opposite orders close the cycle.
    """
    edges: dict[tuple[str, str], set[str]] = {}
    contributors: dict[tuple[str, str], set[str]] = {}

    def add(a: str, b: str, mode: str, label: str) -> None:
        edges.setdefault((a, b), set()).add(mode)
        contributors.setdefault((a, b), set()).add(label)

    for fp in footprints:
        for i, earlier in enumerate(fp.steps):
            for later in fp.steps[i + 1 :]:
                if earlier.resource != later.resource:
                    add(earlier.resource, later.resource, later.mode, fp.label)
        for step in fp.x_steps():
            if step.kind in _PER_INSTANCE_KINDS:
                add(step.resource, step.resource, X, fp.label)
    return edges, contributors


def _find_cycles(
    edges: dict[tuple[str, str], set[str]], max_len: int = 4
) -> list[tuple[str, ...]]:
    """Simple cycles (as node tuples, canonical rotation) containing at
    least one exclusive edge — S-only cycles cannot block."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    for targets in succ.values():
        targets.sort()

    cycles: set[tuple[str, ...]] = set()

    def canonical(path: tuple[str, ...]) -> tuple[str, ...]:
        pivot = min(range(len(path)), key=lambda i: path[i])
        return path[pivot:] + path[:pivot]

    def qualifies(path: tuple[str, ...]) -> bool:
        pairs = list(zip(path, path[1:] + path[:1]))
        return any(X in edges.get(pair, ()) for pair in pairs)

    def dfs(start: str, node: str, path: tuple[str, ...]) -> None:
        for nxt in succ.get(node, ()):
            if nxt == start:
                if qualifies(path):
                    cycles.add(canonical(path))
            elif nxt > start and nxt not in path and len(path) < max_len:
                dfs(start, nxt, path + (nxt,))

    for start in sorted(succ):
        dfs(start, start, (start,))
    return sorted(cycles, key=lambda c: (len(c), c))


# --------------------------------------------------------------------------
# cooperative witness confirmation


@dataclasses.dataclass(frozen=True)
class Witness:
    """Outcome of one synthesized-interleaving replay."""

    confirmed: bool
    detail: str

    def tag(self) -> str:
        return ("CONFIRMED: " if self.confirmed else "POSSIBLE: ") + self.detail


_witness_ids = itertools.count(1)


def _poster(metatype: "Metatype", decl):
    """A ``handle -> None`` callable that posts *decl*, or None."""
    import inspect as _inspect

    if decl.kind == "user":
        return lambda handle, _name=decl.name: handle.post_event(_name)
    if decl.is_transaction_event:
        return None
    method = _class_method(metatype.pyclass, decl.name)
    if method is None:
        return None
    try:
        sig = _inspect.signature(method)
        required = [
            p
            for p in list(sig.parameters.values())[1:]
            if p.default is _inspect.Parameter.empty
            and p.kind
            in (
                _inspect.Parameter.POSITIONAL_ONLY,
                _inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        ]
    except (TypeError, ValueError):
        return None
    if required:
        return None
    return lambda handle, _name=decl.name: getattr(handle, _name)()


def _pick_poster(metatype: "Metatype", symbols: Iterable[str]):
    """The best postable declared event among *symbols*: user events
    first (pure postings), then read-only members, then any nullary one."""
    decls = {decl.symbol: decl for decl in metatype.declared_events}
    ranked = []
    for symbol in sorted(symbols):
        decl = decls.get(symbol)
        if decl is None:
            continue
        poster = _poster(metatype, decl)
        if poster is None:
            continue
        if decl.kind == "user":
            rank = 0
        elif _readonly_reason(metatype, decl) is not None:
            rank = 1
        else:
            rank = 2
        ranked.append((rank, symbol, poster))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return ranked[0][2] if ranked else None


def replay_witness(
    metatype: "Metatype", info: "TriggerInfo", plan: str = "cross"
) -> Witness:
    """Replay a synthesized two-session interleaving deterministically.

    ``plan="cross"``: each session posts an advancing event to two
    activated objects in opposite orders — the multi-instance ODE301
    witness.  ``plan="upgrade"``: both sessions post a *non-advancing*
    event to one shared object (taking S on its trigger group), yield, and
    then post an advancing one (requesting the X upgrade) — the ODE302
    witness.  Confirmation is a strict increase of the lock manager's
    deadlock counter during the replay.
    """
    try:
        return _replay_witness(metatype, info, plan)
    except BaseException as exc:  # any failure downgrades, never propagates
        return Witness(False, f"witness replay not constructible ({exc!r})")


def _replay_witness(metatype: "Metatype", info: "TriggerInfo", plan: str) -> Witness:
    from repro.objects.database import Database
    from repro.sessions.scheduler import CooperativeScheduler

    if info.params:
        return Witness(False, "trigger takes activation parameters")
    advance = _pick_poster(metatype, start_advancing_symbols(info.compiled))
    if advance is None:
        return Witness(False, "no postable event advances the machine from start")
    posts = [advance]
    if plan == "upgrade":
        # Any posting on the object reads its trigger group (S); one
        # that does not advance it *from the start state* leaves the lock
        # shared for the race.
        start_adv = start_advancing_symbols(info.compiled)
        passive = _pick_poster(
            metatype,
            (
                decl.symbol
                for decl in metatype.declared_events
                if decl.symbol not in start_adv
            ),
        )
        if passive is None:
            return Witness(
                False,
                "no postable non-advancing event exists, so the shared "
                "phase of the upgrade race cannot be scheduled",
            )
        posts = [passive, advance]

    workdir = tempfile.mkdtemp(prefix="ode-witness-")
    db = None
    try:
        db = Database.open(
            os.path.join(workdir, f"witness-{next(_witness_ids)}"), engine="mm"
        )
        with db.transaction():
            first = db.pnew(metatype.pyclass)
            second = db.pnew(metatype.pyclass)
            getattr(first, info.name)()
            getattr(second, info.name)()
            ptrs = (first.ptr, second.ptr)
        stats = db.storage.lock_manager.stats
        deadlocks_before = stats.deadlocks
        scheduler = CooperativeScheduler()

        def program(session, order):
            def body(txn):
                for ptr in order:
                    handle = session.deref(ptr)
                    for post in posts:
                        post(handle)
                        scheduler.yield_now()

            def run():
                session.run(body, retries=8)
                session.close()

            return run

        orders = (
            (ptrs, tuple(reversed(ptrs)))
            if plan == "cross"
            else ((ptrs[0],), (ptrs[0],))
        )
        for index, order in enumerate(orders):
            session = db.session(f"witness-{index}")
            scheduler.spawn(
                program(session, order), name=f"witness-{index}", session=session
            )
        scheduler.run(max_switches=20_000)
        delta = stats.deadlocks - deadlocks_before
        if delta:
            return Witness(
                True,
                f"cooperative replay deadlocked {delta} time(s) in "
                f"{scheduler.switches} switches (victims retried and "
                "committed)",
            )
        return Witness(False, "cooperative replay completed without deadlock")
    finally:
        if db is not None:
            try:
                db.close()
            except Exception:
                pass
        shutil.rmtree(workdir, ignore_errors=True)


# --------------------------------------------------------------------------
# the static passes (ODE300 / ODE301 / ODE302)


def check_concurrency(
    metatypes: Iterable["Metatype"],
    effect_of: Callable[["TriggerInfo", "Metatype"], EffectSet] | None = None,
    *,
    confirm: bool = False,
    suppressed: dict[tuple[str, str], frozenset[str]] | None = None,
) -> list[Diagnostic]:
    """Run every static concurrency pass over *metatypes*.

    *suppressed* (``(type, trigger) -> codes``) does not filter the
    findings — the caller's suppression filter does, and stale-suppression
    detection needs the pre-filter set — but witness replays are skipped
    for findings that are about to be dropped anyway.
    """
    suppressed = suppressed or {}
    entries = _collect_footprints(metatypes, effect_of)
    diagnostics: list[Diagnostic] = []
    witnesses_left = _MAX_WITNESSES if confirm else 0
    witness_cache: dict[tuple[int, str], Witness] = {}

    def witness_for(metatype, info, plan: str) -> Witness:
        nonlocal witnesses_left
        key = (id(info), plan)
        if key not in witness_cache:
            if witnesses_left <= 0:
                return Witness(False, "witness replay not attempted")
            witnesses_left -= 1
            witness_cache[key] = replay_witness(metatype, info, plan)
        return witness_cache[key]

    def is_suppressed(fp: LockFootprint, code: str) -> bool:
        return code in suppressed.get((fp.type_name, fp.trigger), ())

    by_label = {fp.label: (metatype, info, fp) for metatype, info, fp in entries}

    # -- ODE300: read access becomes write access --------------------------
    for metatype, info, fp in entries:
        # The X a watched member function takes for its *own* writes is the
        # application writing, not trigger machinery — and it never occurs
        # on the read-only posting paths this check is about.
        amplifying = tuple(
            step
            for step in fp.x_steps()
            if not step.why.startswith("watched member function")
        )
        if not amplifying:
            continue
        culprits = sorted(fp.readonly_postable & fp.advancing)
        if not culprits and not fp.advancing:
            # A machine that never moves still fires the action when its
            # start state accepts; the action's X locks amplify too.
            from repro.events.dfa import firing_symbols

            culprits = sorted(
                fp.readonly_postable & firing_symbols(info.compiled.fsm)
            )
        if not culprits:
            continue
        decls = {decl.symbol: decl for decl in metatype.declared_events}
        reasons = "; ".join(
            f"{symbol!r} is {_readonly_reason(metatype, decls[symbol])}"
            for symbol in culprits
            if symbol in decls
        )
        lockset = ", ".join(f"{step} [{step.why}]" for step in amplifying)
        diagnostics.append(
            Diagnostic(
                "ODE300",
                f"expression {fp.expression!r}: posting {', '.join(map(repr, culprits))} "
                f"needs only read access ({reasons}), but the trigger makes the "
                f"transaction acquire {lockset} — read access becomes write "
                "access (Section 6), adding lock waits and deadlock risk to "
                "every read-only client",
                Location(fp.type_name, fp.trigger),
            )
        )

    # -- ODE302: S->X upgrades under held locks ----------------------------
    for metatype, info, fp in entries:
        for resource, held in fp.upgrades():
            if not held:
                continue
            if confirm and not is_suppressed(fp, "ODE302"):
                witness = witness_for(metatype, info, "upgrade")
            else:
                witness = Witness(False, "witness replay not attempted")
            diagnostics.append(
                Diagnostic(
                    "ODE302",
                    f"posting upgrades {resource} from S to X while holding "
                    f"{', '.join(held)}; two transactions that both reach the "
                    "shared phase deadlock on the upgrade (the lock manager "
                    f"queue-jumps upgraders, but cannot grant two). "
                    f"{witness.tag()}",
                    Location(fp.type_name, fp.trigger),
                )
            )

    # -- ODE301: lock-order cycles -----------------------------------------
    edges, contributors = _order_graph([fp for _, _, fp in entries])
    for cycle in _find_cycles(edges):
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        labels = sorted(set().union(*(contributors.get(p, set()) for p in pairs)))
        involved = [by_label[l] for l in labels if l in by_label]
        # Locate the finding at the first contributor that does not
        # suppress ODE301 (so one acknowledged trigger cannot hide a
        # cycle other triggers participate in).
        located = next(
            (e for e in involved if not is_suppressed(e[2], "ODE301")),
            involved[0] if involved else None,
        )
        if located is None:
            continue
        metatype, info, fp = located
        witness = Witness(False, "witness replay not attempted")
        if confirm and not is_suppressed(fp, "ODE301"):
            # Prefer a contributor whose X step sits on a per-instance
            # resource in the cycle — that is the one the cross-order
            # witness can drive.
            for candidate_mt, candidate_info, candidate_fp in [located] + involved:
                if any(
                    step.kind in _PER_INSTANCE_KINDS and step.resource in cycle
                    for step in candidate_fp.x_steps()
                ):
                    witness = witness_for(candidate_mt, candidate_info, "cross")
                    break
        arrows = " -> ".join(cycle + (cycle[0],))
        diagnostics.append(
            Diagnostic(
                "ODE301",
                f"predicted deadlock cycle in the lock-order graph: {arrows}; "
                "concurrent sessions acquiring these locks in conflicting "
                f"orders can deadlock. {witness.tag()}",
                Location(fp.type_name, fp.trigger),
                related=tuple(l for l in labels if l != fp.label),
            )
        )

    return diagnostics


# --------------------------------------------------------------------------
# the dynamic lockset checker (ODE310)


def static_lock_profile(
    metatypes: Iterable["Metatype"],
    effect_of: Callable[["TriggerInfo", "Metatype"], EffectSet] | None = None,
) -> dict[str, set[str]]:
    """Resource class -> modes the static footprints may acquire."""
    profile: dict[str, set[str]] = {}
    for _, _, fp in _collect_footprints(metatypes, effect_of):
        for resource, modes in fp.modes().items():
            profile.setdefault(resource, set()).update(modes)
    return profile


def _classify_rids(
    records: Iterable["TraceRecord"], metatypes: Iterable["Metatype"]
) -> dict[object, str]:
    """Map concrete rids in a trace to symbolic resource classes.

    Objects are named by ``post.begin`` records (which carry the type),
    trigger groups by ``state.write`` / ``trigger.activate`` records (which
    carry the trigger name, resolved to its defining type).  Everything
    else — catalog records, extents, B-tree nodes — is ``meta``.
    """
    owner: dict[str, str] = {}
    for metatype in metatypes:
        for info in getattr(metatype, "all_trigger_infos", ()):
            owner[info.name] = info.defining_type
    classes: dict[object, str] = {}
    for record in records:
        if record.kind == "post.begin":
            rid = record.get("rid")
            if rid is not None:
                classes.setdefault(rid, f"object:{record.get('type')}")
        elif record.kind in ("state.write", "trigger.activate"):
            group_rid = record.get("group_rid")
            trigger = record.get("trigger")
            if group_rid is not None and trigger is not None:
                classes.setdefault(
                    group_rid, f"state-group:{owner.get(trigger, '*')}"
                )
    return classes


def _acquisition_sequences(
    records: Iterable["TraceRecord"], classes: dict[object, str]
):
    """Per-transaction ordered ``(rid, class, mode, upgrade)`` sequences,
    merged from grant and wait records (a granted-after-waiting request
    emits only ``lock.wait``)."""
    sequences: dict[int, list[tuple[object, str, str, bool]]] = {}
    held: dict[tuple[int, object], str] = {}
    for record in records:
        if record.kind not in ("lock.acquire", "lock.wait"):
            continue
        txid = record.get("txid")
        rid = record.get("resource")
        mode = record.get("mode")
        if txid is None or mode is None:
            continue
        prior = held.get((txid, rid))
        if prior == X or prior == mode:
            continue  # re-request at held strength: not a new acquisition
        upgrade = prior == S and mode == X
        held[(txid, rid)] = mode
        sequences.setdefault(txid, []).append(
            (rid, classes.get(rid, "meta"), mode, upgrade)
        )
    return sequences


def observed_lock_profile(
    records: Iterable["TraceRecord"], metatypes: Iterable["Metatype"]
) -> dict[str, set[str]]:
    """Resource class -> modes actually observed in an obs lock trace."""
    records = list(records)
    classes = _classify_rids(records, metatypes)
    profile: dict[str, set[str]] = {}
    for sequence in _acquisition_sequences(records, classes).values():
        for _, cls, mode, _ in sequence:
            profile.setdefault(cls, set()).add(mode)
    return profile


def _location_of(resource: str) -> Location:
    kind, _, rest = resource.partition(":")
    if kind in _PER_INSTANCE_KINDS:
        return Location(rest)
    return Location()


def check_lock_trace(
    records: Iterable["TraceRecord"],
    metatypes: Iterable["Metatype"],
    effect_of: Callable[["TriggerInfo", "Metatype"], EffectSet] | None = None,
) -> list[Diagnostic]:
    """ODE310: cross-check an observed lock trace against the static model.

    *records* is any iterable of :class:`~repro.obs.trace.TraceRecord`\\ s
    — a live recorder's ring or a JSONL round-trip.  Contradictions:

    * an X acquisition on an object/state class no footprint predicts X on;
    * an S→X upgrade on a class with no predicted upgrade;
    * an observed ``lock.deadlock`` when the static graph predicts no
      cycle at all.

    The trace should cover the steady-state posting window — activation
    transactions write trigger groups and flip object flags, which the
    per-posting footprints deliberately do not model.
    """
    records = list(records)
    metatypes = [m for m in metatypes if _lockable(m)]
    entries = _collect_footprints(metatypes, effect_of)
    footprints = [fp for _, _, fp in entries]
    static = static_lock_profile(metatypes, effect_of)
    static_x = {r for r, modes in static.items() if X in modes}
    static_upgrades = set()
    for fp in footprints:
        for resource, _ in fp.upgrades():
            static_upgrades.add(resource)
        # An upgrade with nothing else held is still an upgrade.
        seen_s = set()
        for step in fp.steps:
            if step.mode == X and step.resource in seen_s:
                static_upgrades.add(step.resource)
            seen_s.add(step.resource) if step.mode == S else None
    edges, _ = _order_graph(footprints)
    predicted_cycles = _find_cycles(edges)

    classes = _classify_rids(records, metatypes)
    sequences = _acquisition_sequences(records, classes)

    diagnostics: list[Diagnostic] = []
    flagged: set[tuple[str, str]] = set()

    def flag(code_key: str, resource: str, message: str) -> None:
        if (code_key, resource) in flagged:
            return
        flagged.add((code_key, resource))
        diagnostics.append(
            Diagnostic("ODE310", message, _location_of(resource))
        )

    for txid in sorted(sequences):
        for _, cls, mode, upgrade in sequences[txid]:
            kind = cls.split(":", 1)[0]
            if kind not in _PER_INSTANCE_KINDS:
                continue  # meta records (catalog, extents) are shared plumbing
            if mode == X and cls not in static_x:
                flag(
                    "x",
                    cls,
                    f"transaction {txid} acquired X({cls}) but no static "
                    "footprint predicts an exclusive lock on that class — "
                    "the inferred footprints under-approximate the observed "
                    "behaviour (unknown-widened effects?)",
                )
            if upgrade and cls not in static_upgrades:
                flag(
                    "upgrade",
                    cls,
                    f"transaction {txid} upgraded {cls} from S to X but no "
                    "static footprint predicts an upgrade on that class",
                )

    if not predicted_cycles and any(r.kind == "lock.deadlock" for r in records):
        deadlocks = sum(1 for r in records if r.kind == "lock.deadlock")
        diagnostics.append(
            Diagnostic(
                "ODE310",
                f"trace contains {deadlocks} deadlock(s) but the static "
                "lock-order graph predicts no cycle — the footprint model "
                "is missing an ordering source",
                Location(),
            )
        )
    return diagnostics
