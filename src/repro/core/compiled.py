"""The generated-code posting fast path (the ROADMAP's "compile tier").

The interpreter in :mod:`repro.core.posting` pays, per active trigger per
posting: a fresh ``evaluate`` closure and :meth:`IntFsm.advance`'s linear
transition search plus one pseudo-int dictionary hop per mask (the group
decode and the registry lookup are memoized for both modes: the decode's
write-once blocks per content, the resolution per trigger kind).  All of
that is burned into generated Python:

* the sparse transition dispatch becomes branchy ``if eventnum == k``
  code over what a posting can reach: the postable event integers (no
  entry point posts a mask's pseudo-event) and the states a machine can
  rest in between postings, collected by the walk that emits them (a
  transient mask state is left by the cascade that entered it; a machine
  found there is one counted interpreter step);
* the mask cascade — the rule stated once in :mod:`repro.events.fsm`,
  where the interpreter runs it — is unrolled at compile time into a
  decision tree over mask outcomes, with the mask predicates called
  inline.  The tree follows the rule's memo and revisit check, so it
  calls the same masks as the interpreter, in the same order, each at
  most once per path, and the ``posting.masks_evaluated_posting`` count
  means the same in both tiers.

§5.4.5's PostEvent advances every active trigger on an object before any
fires, so the unit of generated code is the object's group: one function
per group *signature* — its entries' ``TriggerInfo`` objects in entry order —
by :func:`generate_group_advance`, each entry's decision tree inlined in
entry order, writing the new state into the group's ``statenums`` in
place.  An entry whose machine is too large to unroll (ODE402:
:func:`plan_unroll` exceeds :data:`UNROLL_BUDGET`) is one call of the
interpreter step (:func:`repro.core.posting.interpret`) inside the same
function, so one large machine keeps no other trigger of its group from
being compiled.  One call then advances the whole group, with no
per-entry call, tuple or machine.

The :class:`CompiledTier` keeps the one memo of group functions in the
process, validated against a process-global **schema version** (the
edgedb ``edb/server/compiler`` artifact-cache shape): any trigger
add/remove (class (re)compilation, shim registration) bumps the version
and evicts everything, so a stale function can never fire for a
redefined trigger.  Every group is served by generated code: a group
whose trees together pass :data:`GROUP_UNROLL_BUDGET` gets a function in
which every entry is one interpreter step, each advance counting
``posting.compiled_fallbacks``, and a codegen error propagates.

The generated code emits no trace records, and tracing does not switch
it off: given a *log*, each path of an entry's tree that called masks
writes what they said under the entry's index, as the interpreter step
does, and the posting module's one emitter steps each advanced entry's
FSM over that log (DESIGN.md §10).  A traced posting calls the very code
object an untraced one does.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable

from repro.core.declarations import mask_arity
from repro.events.fsm import DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import IntFsm, TriggerInfo

__all__ = [
    "CompiledTier",
    "GROUP_UNROLL_BUDGET",
    "KERNEL_MEMO_MAX",
    "PlanError",
    "UNROLL_BUDGET",
    "bump_schema_version",
    "generate_group_advance",
    "generate_group_source",
    "global_compiled_tier",
    "last_bump_reason",
    "plan_unroll",
    "schema_version",
]

#: Cap on emitted decision-tree nodes (branches + leaves) of a one-entry
#: group function.  Real expression-compiled machines sit far below this;
#: blowing it is ODE402, the one "too large to specialize" judgment.
UNROLL_BUDGET = 256
#: Cap on the nodes of one group function: the sum of its entries' trees.
#: A larger group's function interprets every entry.
GROUP_UNROLL_BUDGET = 4096
#: Most keys whose group function the tier keeps; the memo is emptied
#: when full.
KERNEL_MEMO_MAX = 256


class PlanError(Exception):
    """The machine cannot be statically specialized (ODE402 territory)."""


# ---------------------------------------------------------------------------
# Schema / trigger-index versioning
# ---------------------------------------------------------------------------

_VERSION_LOCK = threading.Lock()
_SCHEMA_VERSION = 0
_LAST_BUMP_REASON = ""


def schema_version() -> int:
    """The process-global trigger-schema version counter."""
    return _SCHEMA_VERSION


def last_bump_reason() -> str:
    return _LAST_BUMP_REASON


def bump_schema_version(reason: str = "") -> int:
    """Invalidate every group function (the trigger set changed).

    Called from the places the trigger universe can shift under a
    running process: :func:`repro.core.declarations.process_active_class`
    (a class — and its triggers — was (re)compiled),
    :meth:`repro.objects.metatype.TypeRegistry.register_shim` (a run-time
    bridge trigger appeared) and
    :meth:`~repro.objects.metatype.TypeRegistry.register` when it
    re-points a name at another class.  Bumping is cheap; the
    tier re-validates lazily against the counter.
    """
    global _SCHEMA_VERSION, _LAST_BUMP_REASON
    with _VERSION_LOCK:
        _SCHEMA_VERSION += 1
        _LAST_BUMP_REASON = reason
        return _SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int):
        self.limit = self.remaining = limit

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise PlanError(
                "unrolled mask-cascade decision tree exceeds "
                f"{self.limit} nodes"
            )


def _leaf(
    lines: list, indent: str, entry: int, old: int, state: int, seen: bool, fixed: dict
) -> None:
    """The end of one path of *entry*'s cascade from state *old*: record
    the move in place, the acceptance, the masks called and, given a log,
    what they said (*fixed*, in call order)."""
    body = []
    if state != old:
        body += [f"statenums[{entry}] = {state}", f"moved.append(({entry}, {old}))"]
    if seen:
        body.append(f"accepted.append({entry})")
    if fixed:
        body += [
            f"calls += {len(fixed)}",
            "if log is not None:",
            f"    log[{entry}] = {fixed!r}",
        ]
    lines.extend(indent + line for line in body or ["pass"])


def _unroll(
    fsm: "IntFsm",
    mask_calls: dict[str, str],
    entry: int,
    old: int,
    current: int,
    seen: bool,
    fixed: dict[str, bool],
    visited: frozenset[int],
    indent: str,
    lines: list[str],
    budget: _Budget,
    rests: list[int],
) -> None:
    """Emit *entry*'s mask cascade from *current*, which the walk has
    just entered from state *old*:
    :meth:`repro.events.fsm.Fsm._quiesce_tracking` with each first-asked
    mask turned into an ``if``, and a :func:`_leaf` at each end, whose
    (resting) state joins *rests* unless it is there or dead.

    ``fixed`` holds the outcomes already asked on this path, in call
    order (the rule's memo: the walk follows the pinned arm and calls
    nothing), ``visited`` the states already entered before *current*.
    """
    while True:
        if current == DEAD or not fsm.states[current].masks or current in visited:
            budget.charge()
            _leaf(lines, indent, entry, old, current, seen, fixed)
            if current != DEAD and current not in rests:
                rests.append(current)
            return
        visited = visited | {current}
        mask = fsm.states[current].masks[0]
        if mask in fixed:
            current = fsm.move(current, fsm.pseudo[(mask, fixed[mask])])[0]
            seen = seen or (current != DEAD and fsm.states[current].accept)
            continue
        budget.charge()
        lines.append(f"{indent}if {mask_calls[mask]}:")
        for outcome in (True, False):
            if not outcome:
                lines.append(f"{indent}else:")
            nxt = fsm.move(current, fsm.pseudo[(mask, outcome)])[0]
            seen_next = seen or (nxt != DEAD and fsm.states[nxt].accept)
            _unroll(
                fsm, mask_calls, entry, old, nxt, seen_next, {**fixed, mask: outcome},
                visited, indent + "    ", lines, budget, rests,
            )
        return


def _compiled_entry(
    lines: list, entry: int, fsm: "IntFsm", mask_calls: dict, kind: int, budget
) -> None:
    """Entry *entry*'s advance with its transitions and cascades unrolled:
    a branch per state the machine can rest in and per event a posting
    can carry; any other state is one interpreter step."""
    postable = set(fsm.symbol_to_int.values())
    # The resting states: where the start's cascade ends (activation
    # quiesces it), then where each cascade emitted below ends.
    rests: list[int] = []
    _unroll(
        fsm, mask_calls, entry, fsm.start, fsm.start, False, {}, frozenset(),
        "", [], _Budget(budget.limit), rests,
    )
    keyword = "if"
    for statenum in rests:
        state = fsm.states[statenum]
        lines.append(f"        {keyword} s == {statenum}:")
        keyword = "elif"
        branch = "if"
        for tr in state.transfunc:
            nxt = tr.newstate
            if tr.eventnum not in postable or (
                # An unanchored machine ignores what it has no branch for.
                nxt == statenum and not (fsm.anchored or state.masks or state.accept)
            ):
                continue
            lines.append(f"            {branch} eventnum == {tr.eventnum}:")
            branch = "elif"
            seen = nxt != DEAD and fsm.states[nxt].accept
            _unroll(
                fsm, mask_calls, entry, statenum, nxt, seen, {},
                frozenset(), " " * 16, lines, budget, rests,
            )
        # Event not in the sparse transition list: the ignore/dead rule.
        if fsm.anchored:
            lines.append(f"            {branch} eventnum in _A{kind}:")
            branch = "elif"
            _leaf(lines, " " * 16, entry, statenum, DEAD, False, {})
        if branch == "if":
            lines.append("            pass")
    # A state no posting leaves the machine in (a stored transient mask
    # state): the interpreter step, which raises IndexError out of range.
    lines.append("        elif s != -1:")
    _interpreted_entry(lines, entry, kind, " " * 12)
    # A fallback, not one of the compiled advances ``done`` counts.
    lines += ["            stats.compiled_hits -= 1", "            stats.fsm_advances -= 1"]


def _interpreted_entry(lines: list, entry: int, kind: int, indent: str = " " * 8) -> None:
    """Entry *entry*'s advance from ``s``: one interpreter step over the
    ``TriggerInfo`` bound to ``_I{kind}``, one ``compiled_fallbacks``."""
    lines += [
        indent + line
        for line in (
            "stats.compiled_fallbacks += 1",
            f"n, a = _step(stats, _I{kind}, s, eventnum, obj, params[{entry}], event,"
            f" None if log is None else log.setdefault({entry}, {{}}))",
            "if n != s:",
            f"    statenums[{entry}] = n",
            f"    moved.append(({entry}, s))",
            "if a:",
            f"    accepted.append({entry})",
        )
    ]


def generate_group_source(entries: Sequence[tuple], limit: int | None = None) -> str:
    """Generate the ``_advance_group`` source for a group whose entries,
    in entry order, are *entries*: ``(fsm, mask_calls, kind)`` each, with
    *mask_calls* mapping each mask to the expression that calls it (over
    ``params[i]``) and *kind* the entry's kind number — ``_A{kind}`` must
    be bound to its postable event integers and ``_I{kind}`` to its
    ``TriggerInfo`` — or, for an entry to interpret, ``(None, None,
    kind)``.

    ``_advance_group(statenums, eventnum, obj, params, event, moved,
    stats, log)`` advances entry *i* from ``statenums[i]`` — the stepping
    rule of :mod:`repro.events.fsm`, as the interpreter would — one entry
    after the other, and writes the new state back in place; it appends
    ``(i, old state)`` to *moved* for each entry that moved and returns
    the list of the entries that accepted.  It adds the compiled entries
    it advanced and the masks they called to *stats*'s
    ``compiled_hits``, ``fsm_advances`` and ``masks_evaluated_posting``
    on the way out, also when a mask raises: an entry whose cascade
    raised is neither advanced nor counted (an entry the interpreter step
    advances — one past the unroll budget, or a compiled one on a state
    it has no branch for — counts itself, and one
    ``compiled_fallbacks``).  *log* is ``None``, or a
    dict for a traced posting or a store that logs every advance: what
    the masks of each advanced entry said goes under its index (a
    compiled entry that called none writes nothing), and the number of
    entries advanced under ``-1``.
    Raises :class:`PlanError` when the entries' decision trees together
    blow *limit* nodes (default :data:`GROUP_UNROLL_BUDGET`).
    """
    budget = _Budget(GROUP_UNROLL_BUDGET if limit is None else limit)
    lines = [
        "def _advance_group(statenums, eventnum, obj, params, event, moved, stats, log):",
        "    accepted = []",
        "    calls = done = 0",
        "    try:",
    ]
    hits = [0]
    for entry, (fsm, mask_calls, kind) in enumerate(entries):
        lines.append(f"        s = statenums[{entry}]")
        if fsm is None:
            _interpreted_entry(lines, entry, kind)
        else:
            _compiled_entry(lines, entry, fsm, mask_calls, kind, budget)
        lines.append(f"        done = {entry + 1}")
        hits.append(hits[-1] + (fsm is not None))
    # Compiled entries among the first ``done``: ``done`` itself when
    # every entry is compiled.
    advanced = "done" if hits == list(range(len(hits))) else f"{tuple(hits)}[done]"
    lines += [
        "    finally:",
        f"        stats.compiled_hits += {advanced}",
        f"        stats.fsm_advances += {advanced}",
        "        stats.masks_evaluated_posting += calls",
        "        if log is not None:",
        "            log[-1] = done",
        "    return accepted",
    ]
    return "\n".join(lines) + "\n"


def plan_unroll(fsm: "IntFsm") -> int:
    """Dry-run the unroll of a one-entry group of *fsm* within
    :data:`UNROLL_BUDGET`, returning the emitted line count; raises
    :class:`PlanError` past it.

    This is the ODE402 judgment: :func:`generate_group_advance`
    interprets an entry whose machine fails it, and the lint reports it
    (:mod:`repro.analysis.compilable`).  It is exactly the generator, so
    the judgment can never drift from what the tier can compile.
    """
    mask_calls = {
        name: f"_m{i}(obj, params[0], event)" for i, name in enumerate(_used_masks(fsm))
    }
    source = generate_group_source([(fsm, mask_calls, 0)], UNROLL_BUDGET)
    return len(source.splitlines())


def _used_masks(fsm: "IntFsm") -> list[str]:
    return sorted({m for s in fsm.states for m in s.masks})


def _unrolls(fsm: "IntFsm") -> bool:
    """Whether *fsm* is within :data:`UNROLL_BUDGET` (not ODE402)."""
    try:
        plan_unroll(fsm)
    except PlanError:
        return False
    return True


def _bind_masks(info: "TriggerInfo", kind: int, params: str, namespace: dict) -> dict:
    """Bind *info*'s masks into *namespace* as ``_k{kind}m0``,
    ``_k{kind}m1`` … and return each mask's call expression, with
    *params* the expression of the trigger's params.  A mask is called as
    declared, not through ``_adapt_mask``'s shim, with as many arguments
    as it declares (see ``mask_arity``); one with no declared form (a
    bridge's) takes the adapted one."""
    args = ("obj", params, "event")
    calls = {}
    for i, name in enumerate(_used_masks(info.fsm)):
        ident = f"_k{kind}m{i}"
        mask = info.mask_specs.get(name)
        arity = 3 if mask is None else min(mask_arity(mask), 3)
        namespace[ident] = info.masks[name] if mask is None else mask
        calls[name] = f"{ident}({', '.join(args[:arity])})"
    return calls


def generate_group_advance(infos: Sequence["TriggerInfo"]) -> tuple[Callable, str]:
    """Compile the group function of a group whose entries, in entry
    order, are of the kinds *infos* (see :func:`generate_group_source`):
    ``(function, source)``.  Each distinct kind — numbered in order of
    first appearance — has its masks, alphabet and info bound once, and
    is compiled unless its machine is past :data:`UNROLL_BUDGET`
    (:func:`plan_unroll`), in which case its entries are interpreted.  A
    group whose trees together blow :data:`GROUP_UNROLL_BUDGET` has every
    entry interpreted."""
    # Imported here: the interpreter's module imports this one.
    from repro.core.posting import interpret

    steps: dict = {"_step": interpret}
    namespace: dict = {}
    kinds: dict[int, tuple[int, bool]] = {}
    entries = []
    for entry, info in enumerate(infos):
        if id(info) not in kinds:
            kinds[id(info)] = len(kinds), _unrolls(info.fsm)
        kind, unrolls = kinds[id(info)]
        steps[f"_I{kind}"] = info
        if unrolls:
            namespace[f"_A{kind}"] = frozenset(info.fsm.symbol_to_int.values())
            mask_calls = _bind_masks(info, kind, f"params[{entry}]", namespace)
            entries.append((info.fsm, mask_calls, kind))
        else:
            entries.append((None, None, kind))
    try:
        source = generate_group_source(entries)
    except PlanError:
        # Too large as a whole: every entry one interpreter step.
        namespace = {}
        source = generate_group_source([(None, None, kind) for *_, kind in entries])
    namespace.update(steps)
    names = ",".join(f"{info.defining_type}.{info.name}" for info in infos[:4])
    code = compile(source, f"<ode-compiled-group:{names}:{len(infos)}>", "exec")
    exec(code, namespace)
    return namespace["_advance_group"], source


# ---------------------------------------------------------------------------
# The group-function memo
# ---------------------------------------------------------------------------


class CompiledTier:
    """The one memo of group functions.

    A group function is kept per key: a persistent group's is
    ``(registry, types, triggernums)``, its loaded columns and the
    registry its kinds resolve through; a local rules group's is its
    entries' infos (infos compare by identity, so the key keeps them
    alive).  The memo is validated against the process schema version:
    the first lookup after any bump drops everything.  It holds at most
    :data:`KERNEL_MEMO_MAX` keys and is emptied when full, so codegen
    runs once per key per schema version, not once per posting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = schema_version()
        self._functions: dict[tuple, Callable] = {}

    def _maybe_evict(self) -> None:
        if self._version != _SCHEMA_VERSION:
            with self._lock:
                if self._version != _SCHEMA_VERSION:
                    self._functions.clear()
                    self._version = _SCHEMA_VERSION

    def cached_count(self) -> int:
        """How many keys have a memoized group function."""
        self._maybe_evict()
        return len(self._functions)

    def group_function(self, key: tuple, entries: Callable[[tuple], Sequence]) -> Callable:
        """The group function of the group whose key is *key*.
        ``entries(key)`` is called only on a miss: it returns the group's
        entries in entry order, each with its ``info``."""
        if self._version != _SCHEMA_VERSION:
            self._maybe_evict()
        function = self._functions.get(key)
        if function is None:
            function = self._generate(key, entries)
        return function

    def _generate(self, key: tuple, entries: Callable[[tuple], Sequence]) -> Callable:
        """Generate *key*'s group function and memoize it, unless the
        schema version moved while its entries were resolved.  A codegen
        error propagates, and nothing is memoized."""
        version = _SCHEMA_VERSION
        function = generate_group_advance([entry.info for entry in entries(key)])[0]
        with self._lock:
            if self._version == version == _SCHEMA_VERSION:
                if len(self._functions) >= KERNEL_MEMO_MAX:
                    self._functions.clear()
                self._functions[key] = function
        return function


_GLOBAL_TIER = CompiledTier()


def global_compiled_tier() -> CompiledTier:
    """The tier shared by every trigger system in the process (trigger
    infos are process-global, so their functions are too)."""
    return _GLOBAL_TIER
