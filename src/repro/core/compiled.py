"""The generated-code posting fast path (the ROADMAP's "compile tier").

The interpreter in :mod:`repro.core.posting` pays, per active trigger per
posting: a fresh ``evaluate`` closure and :meth:`IntFsm.advance`'s linear
transition search plus one pseudo-int dictionary hop per mask (the group
decode and the registry lookup are memoized for both modes: the decode's
write-once blocks per content, the resolution per trigger kind).  For
triggers the ODE4xx pass
(:mod:`repro.analysis.compilable`) proves COMPILABLE — pure masks, a
resolvable free-name environment, a machine small enough to specialize,
and no immediate action that re-enters posting mid-advance — all of that
can be burned into one generated Python function per trigger:

* the sparse transition dispatch becomes branchy ``if eventnum == k``
  code over the concrete event integers;
* the mask cascade — the rule stated once in :mod:`repro.events.fsm`,
  where the interpreter runs it — is unrolled at compile time into a
  decision tree over mask outcomes, with the mask predicates called
  inline.  The tree follows the rule's memo and revisit check, so it
  calls each mask at most once per path and the
  ``posting.masks_evaluated_posting`` count means the same in both tiers.

A group whose every entry compiles gets one more function, generated per
group *signature* — its ``(trigobjtype, triggernum)`` kinds in entry order
— by :func:`generate_group_advance`: each entry's decision tree inlined in
entry order, the same :func:`_unroll` emitting them with a leaf that
writes the new state into the group's ``statenums`` in place and notes
the move, the acceptance and the masks called, where the per-trigger
closure's leaf returns them.  One call then advances the whole group, as
§5.4.5's PostEvent does, with no per-entry call, tuple or machine.  The
trigger system memoizes it per signature beside its resolutions
(``TriggerSystem.group_kernel``).

Artifacts are cached per ``TriggerInfo`` and keyed by a process-global
**schema version** (the edgedb ``edb/server/compiler`` artifact-cache
shape): any trigger add/remove (class (re)compilation, shim registration)
or strict-mode flip bumps the version and evicts every artifact, so a
stale closure can never fire for a redefined trigger.  Correctness never
depends on codegen — whenever the pass withholds its proof (or obs
tracing wants per-mask events) the posting loop falls back to the
interpreter and counts ``posting.compiled_fallbacks``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.declarations import mask_arity
from repro.events.fsm import DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import IntFsm, TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = [
    "CompiledArtifact",
    "CompiledTier",
    "GROUP_UNROLL_BUDGET",
    "PlanError",
    "UNROLL_BUDGET",
    "bump_schema_version",
    "generate_advance",
    "generate_advance_source",
    "generate_group_advance",
    "generate_group_source",
    "global_compiled_tier",
    "last_bump_reason",
    "plan_unroll",
    "schema_version",
]

#: Cap on emitted decision-tree nodes (branches + leaves) when unrolling
#: one machine's quiesce cascades.  Real expression-compiled machines sit
#: far below this; blowing the budget is the ODE402 "too dense" judgment.
UNROLL_BUDGET = 256
#: Cap on the nodes of one group function: the sum of its entries' trees.
#: A larger group is advanced by the kernel loop, closure by closure.
GROUP_UNROLL_BUDGET = 4096


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
    """Invalidate every compiled artifact (trigger set or mode changed).

    Called from the three places the trigger universe can shift under a
    running process: :func:`repro.core.declarations.process_active_class`
    (a class — and its triggers — was (re)compiled),
    :meth:`repro.objects.metatype.TypeRegistry.register_shim` (a run-time
    bridge trigger appeared), and
    :func:`repro.core.declarations.set_strict_analysis` (the analysis
    regime flipped).  Bumping is cheap; artifact caches re-validate
    lazily against the counter.
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


#: Emits the code at the end of one path of a cascade: ``leaf(lines,
#: indent, state, accepted, masks_called)`` appends what the generated
#: code does when the walk comes to rest in *state*.
Leaf = Callable[[list, str, int, bool, int], None]


def _unroll(
    fsm: "IntFsm",
    mask_calls: dict[str, str],
    current: int,
    calls: int,
    seen: bool,
    fixed: dict[str, bool],
    visited: frozenset[int],
    indent: str,
    lines: list[str],
    budget: _Budget,
    leaf: Leaf,
) -> None:
    """Emit the mask cascade from *current*, which the walk has just
    entered: :meth:`repro.events.fsm.Fsm._quiesce_tracking` with each
    first-asked mask turned into an ``if``, and *leaf* at each end.

    ``fixed`` holds the outcomes already asked on this path (the rule's
    memo: the walk follows the pinned arm and calls nothing), ``visited``
    the states already entered before *current*; *calls* counts the masks
    called so far on the path, which each leaf reports.
    """
    while True:
        if current == DEAD or not fsm.states[current].masks or current in visited:
            budget.charge()
            leaf(lines, indent, current, seen, calls)
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
            _unroll(
                fsm,
                mask_calls,
                nxt,
                calls + 1,
                seen or (nxt != DEAD and fsm.states[nxt].accept),
                {**fixed, mask: outcome},
                visited,
                indent + "    ",
                lines,
                budget,
                leaf,
            )
        return


def _return_leaf(lines: list, indent: str, state: int, seen: bool, calls: int) -> None:
    """The per-trigger closure's leaf: return the advance's outcome."""
    lines.append(f"{indent}return ({state}, True, {seen}, {calls})")


def _entered(fsm: "IntFsm", tr) -> tuple[int, bool]:
    """The state a transition enters and whether it accepts there."""
    nxt = tr.newstate
    return nxt, nxt != DEAD and fsm.states[nxt].accept


def generate_advance_source(
    fsm: "IntFsm", mask_calls: dict[str, str]
) -> str:
    """Generate the specialized ``_advance`` source for one machine;
    *mask_calls* maps each mask name to the expression that calls it.

    The function computes what :meth:`IntFsm.advance` does — the
    stepping rule of :mod:`repro.events.fsm` — and returns
    ``(state, consumed, accepted, masks_called)``, with the transition
    search and the mask cascade resolved at compile time.  Raises
    :class:`PlanError` when the decision tree blows the budget.
    """
    budget = _Budget(UNROLL_BUDGET)
    lines = ["def _advance(statenum, eventnum, obj, params, event):"]
    lines.append("    if statenum == -1:")
    lines.append("        return (-1, False, False, 0)")
    for state in fsm.states:
        lines.append(f"    if statenum == {state.statenum}:")
        for tr in state.transfunc:
            lines.append(f"        if eventnum == {tr.eventnum}:")
            nxt, seen = _entered(fsm, tr)
            _unroll(
                fsm, mask_calls, nxt, 0, seen, {}, frozenset(), " " * 12, lines,
                budget, _return_leaf,
            )
        # Event not in the sparse transition list: the ignore/dead rule.
        if fsm.anchored:
            lines.append("        if eventnum in _ALPHA:")
            lines.append("            return (-1, True, False, 0)")
        lines.append(f"        return ({state.statenum}, False, False, 0)")
    lines.append(
        "    raise IndexError('compiled advance: state %r out of range'"
        " % (statenum,))"
    )
    return "\n".join(lines) + "\n"


def _group_leaf(entry: int, old: int) -> Leaf:
    """The group function's leaf for *entry* walking from state *old*:
    record the move in place, the acceptance, and the masks called."""

    def leaf(lines: list, indent: str, state: int, seen: bool, calls: int) -> None:
        body = []
        if state != old:
            body += [f"statenums[{entry}] = {state}", f"moved.append(({entry}, {old}))"]
        if seen:
            body.append(f"accepted.append({entry})")
        if calls:
            body.append(f"calls += {calls}")
        lines.extend(indent + line for line in body or ["pass"])

    return leaf


def generate_group_source(entries: Sequence[tuple["IntFsm", dict[str, str], str]]) -> str:
    """Generate the ``_advance_group`` source for a group whose entries,
    in entry order, are *entries*: each one's machine, its mask calls (as
    for :func:`generate_advance_source`, over ``params[i]``) and the name
    its alphabet is bound to.

    ``_advance_group(statenums, eventnum, obj, params, event, moved,
    stats)`` advances entry *i* from ``statenums[i]`` as the per-trigger
    closure would, one entry after the other, and writes the new state
    back in place; it appends ``(i, old state)`` to *moved* for each entry
    that moved and returns the list of the entries that accepted.  It
    adds the entries it advanced and the masks they called to *stats*'s
    ``compiled_hits``, ``fsm_advances`` and ``masks_evaluated_posting``
    on the way out, also when a mask raises: an entry whose cascade
    raised is neither advanced nor counted, as in the kernel loop.
    Raises :class:`PlanError` when the entries' decision trees together
    blow :data:`GROUP_UNROLL_BUDGET`.
    """
    budget = _Budget(GROUP_UNROLL_BUDGET)
    lines = [
        "def _advance_group(statenums, eventnum, obj, params, event, moved, stats):",
        "    accepted = []",
        "    calls = done = 0",
        "    try:",
    ]
    for entry, (fsm, mask_calls, alpha) in enumerate(entries):
        lines.append(f"        s = statenums[{entry}]")
        keyword = "if"
        for state in fsm.states:
            lines.append(f"        {keyword} s == {state.statenum}:")
            keyword = "elif"
            branch = "if"
            for tr in state.transfunc:
                lines.append(f"            {branch} eventnum == {tr.eventnum}:")
                branch = "elif"
                nxt, seen = _entered(fsm, tr)
                _unroll(
                    fsm, mask_calls, nxt, 0, seen, {}, frozenset(), " " * 16, lines,
                    budget, _group_leaf(entry, state.statenum),
                )
            if fsm.anchored:
                lines.append(f"            {branch} eventnum in {alpha}:")
                branch = "elif"
                _group_leaf(entry, state.statenum)(lines, " " * 16, DEAD, False, 0)
            if branch == "if":
                lines.append("            pass")
        lines.append("        elif s != -1:")
        lines.append(
            "            raise IndexError('compiled group advance: entry %d state %r"
            f" out of range' % ({entry}, s))"
        )
        lines.append(f"        done = {entry + 1}")
    lines += [
        "    finally:",
        "        stats.compiled_hits += done",
        "        stats.fsm_advances += done",
        "        stats.masks_evaluated_posting += calls",
        "    return accepted",
    ]
    return "\n".join(lines) + "\n"


def plan_unroll(fsm: "IntFsm") -> int:
    """Dry-run the unroll, returning the emitted line count.

    The ODE4xx pass uses this to judge ODE402 without keeping the code;
    it is exactly the generator, so the judgment can never drift from
    what the tier can actually compile.
    """
    mask_calls = {
        name: f"_m{i}(obj, params, event)" for i, name in enumerate(_used_masks(fsm))
    }
    return len(generate_advance_source(fsm, mask_calls).splitlines())


def _used_masks(fsm: "IntFsm") -> list[str]:
    return sorted({m for s in fsm.states for m in s.masks})


def _bind_masks(info: "TriggerInfo", prefix: str, params: str, namespace: dict) -> dict:
    """Bind *info*'s masks into *namespace* as ``{prefix}0``, ``{prefix}1``
    … and return each mask's call expression, with *params* the
    expression of the trigger's params.  A mask is called as declared,
    not through ``_adapt_mask``'s shim, with as many arguments as it
    declares (see ``mask_arity``); one with no declared form (a bridge's)
    takes the adapted one."""
    args = ("obj", params, "event")
    calls = {}
    for i, name in enumerate(_used_masks(info.fsm)):
        ident = f"{prefix}{i}"
        mask = info.mask_specs.get(name)
        arity = 3 if mask is None else min(mask_arity(mask), 3)
        namespace[ident] = info.masks[name] if mask is None else mask
        calls[name] = f"{ident}({', '.join(args[:arity])})"
    return calls


@dataclasses.dataclass
class CompiledArtifact:
    """One trigger's generated advance function plus its provenance."""

    info: "TriggerInfo"
    advance: Callable[..., tuple]
    source: str
    version: int


def generate_advance(info: "TriggerInfo") -> CompiledArtifact:
    """Compile *info*'s machine into a :class:`CompiledArtifact`."""
    fsm = info.fsm
    namespace: dict = {"_ALPHA": fsm.alphabet}
    mask_calls = _bind_masks(info, "_m", "params", namespace)
    source = generate_advance_source(fsm, mask_calls)
    code = compile(
        source,
        f"<ode-compiled:{info.defining_type}.{info.name}>",
        "exec",
    )
    exec(code, namespace)
    return CompiledArtifact(
        info=info,
        advance=namespace["_advance"],
        source=source,
        version=schema_version(),
    )


def generate_group_advance(infos: Sequence["TriggerInfo"]) -> tuple[Callable, str]:
    """Compile the group function of a group whose entries, in entry
    order, are of the kinds *infos* (see :func:`generate_group_source`):
    ``(function, source)``.  Each distinct kind's masks and alphabet are
    bound once."""
    namespace: dict = {}
    kinds: dict[int, int] = {}
    entries = []
    for entry, info in enumerate(infos):
        kind = kinds.setdefault(id(info), len(kinds))
        alpha = f"_A{kind}"
        namespace[alpha] = info.fsm.alphabet
        mask_calls = _bind_masks(info, f"_k{kind}m", f"params[{entry}]", namespace)
        entries.append((info.fsm, mask_calls, alpha))
    source = generate_group_source(entries)
    names = ",".join(f"{info.defining_type}.{info.name}" for info in infos[:4])
    code = compile(source, f"<ode-compiled-group:{names}:{len(infos)}>", "exec")
    exec(code, namespace)
    return namespace["_advance_group"], source


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------

_UNSET = object()


class CompiledTier:
    """Verdict + artifact cache gating the posting fast path.

    Lookups are id-keyed on the ``TriggerInfo`` (a strong reference is
    pinned so ids stay unique) and validated against the process schema
    version: the first lookup after any bump drops everything.  Negative
    verdicts are cached too — the ODE4xx classification runs once per
    trigger per schema version, not once per posting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = schema_version()
        self._artifacts: dict[int, Optional[CompiledArtifact]] = {}
        self._verdicts: dict[int, object] = {}
        self._pins: dict[int, "TriggerInfo"] = {}

    # -- invalidation ------------------------------------------------------

    def _maybe_evict(self) -> None:
        if self._version != _SCHEMA_VERSION:
            with self._lock:
                if self._version != _SCHEMA_VERSION:
                    self._artifacts.clear()
                    self._verdicts.clear()
                    self._pins.clear()
                    self._version = _SCHEMA_VERSION

    @property
    def version(self) -> int:
        """Current validated version (evicts first if the world moved)."""
        self._maybe_evict()
        return self._version

    def cached_count(self) -> int:
        self._maybe_evict()
        return len(self._artifacts)

    # -- lookup ------------------------------------------------------------

    def advancer_for(
        self, info: "TriggerInfo", metatype: Optional["Metatype"] = None
    ) -> Optional[Callable[..., tuple]]:
        """The compiled advance for *info*, or None (proof withheld)."""
        self._maybe_evict()
        key = id(info)
        artifact = self._artifacts.get(key, _UNSET)
        if artifact is _UNSET:
            with self._lock:
                artifact = self._artifacts.get(key, _UNSET)
                if artifact is _UNSET:
                    artifact = self._classify_and_compile(info, metatype)
                    self._pins[key] = info
                    self._artifacts[key] = artifact
        return None if artifact is None else artifact.advance

    def artifact_for(self, info: "TriggerInfo") -> Optional[CompiledArtifact]:
        """The cached artifact (for tests and dump introspection)."""
        self._maybe_evict()
        artifact = self._artifacts.get(id(info))
        return artifact if isinstance(artifact, CompiledArtifact) else None

    def explain(self, info: "TriggerInfo") -> tuple:
        """The ODE4xx diagnostics naming why the proof was withheld
        (empty for compilable or never-classified triggers)."""
        self._maybe_evict()
        verdict = self._verdicts.get(id(info))
        return tuple(getattr(verdict, "diagnostics", ()))

    def _classify_and_compile(
        self, info: "TriggerInfo", metatype: Optional["Metatype"]
    ) -> Optional[CompiledArtifact]:
        try:
            from repro.analysis.compilable import classify_trigger

            verdict = classify_trigger(info, metatype)
            self._verdicts[id(info)] = verdict
            if not verdict.compilable:
                return None
            return generate_advance(info)
        except Exception:
            # Codegen and classification failures degrade to the
            # interpreter — the tier must never take posting down.
            return None


_GLOBAL_TIER = CompiledTier()


def global_compiled_tier() -> CompiledTier:
    """The artifact cache shared by every trigger system in the process
    (trigger infos are process-global, so their artifacts are too)."""
    return _GLOBAL_TIER
