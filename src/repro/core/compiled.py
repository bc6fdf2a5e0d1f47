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
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.declarations import mask_arity
from repro.events.fsm import DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import IntFsm, TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = [
    "CompiledArtifact",
    "CompiledTier",
    "PlanError",
    "UNROLL_BUDGET",
    "bump_schema_version",
    "generate_advance",
    "generate_advance_source",
    "global_compiled_tier",
    "last_bump_reason",
    "plan_unroll",
    "schema_version",
]

#: Cap on emitted decision-tree nodes (branches + leaves) when unrolling
#: one machine's quiesce cascades.  Real expression-compiled machines sit
#: far below this; blowing the budget is the ODE402 "too dense" judgment.
UNROLL_BUDGET = 256


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
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise PlanError(
                "unrolled mask-cascade decision tree exceeds "
                f"{UNROLL_BUDGET} nodes"
            )


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
) -> None:
    """Emit the mask cascade from *current*, which the walk has just
    entered: :meth:`repro.events.fsm.Fsm._quiesce_tracking` with each
    first-asked mask turned into an ``if``.

    ``fixed`` holds the outcomes already asked on this path (the rule's
    memo: the walk follows the pinned arm and calls nothing), ``visited``
    the states already entered before *current*; *calls* counts the masks
    called so far on the path, which each emitted ``return`` reports.
    """
    while True:
        if current == DEAD or not fsm.states[current].masks or current in visited:
            budget.charge()
            lines.append(f"{indent}return ({current}, True, {seen}, {calls})")
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
            )
        return


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
            nxt = tr.newstate
            seen = nxt != DEAD and fsm.states[nxt].accept
            _unroll(
                fsm, mask_calls, nxt, 0, seen, {}, frozenset(), " " * 12, lines, budget
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


#: The arguments a mask of each arity is called with (see ``mask_arity``).
_MASK_ARGS = {1: "obj", 2: "obj, params", 3: "obj, params, event"}


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
    mask_calls = {}
    for i, name in enumerate(_used_masks(fsm)):
        ident = f"_m{i}"
        # Call the mask as declared, not through ``_adapt_mask``'s shim;
        # a mask with no declared form (a bridge's) takes the adapted one.
        mask = info.mask_specs.get(name)
        arity = 3 if mask is None else min(mask_arity(mask), 3)
        namespace[ident] = info.masks[name] if mask is None else mask
        mask_calls[name] = f"{ident}({_MASK_ARGS[arity]})"
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
