"""Trigger declarations, coupling modes, and integer-keyed FSMs.

:class:`TriggerDecl` is what a class definition writes (via the
:func:`repro.core.declarations.trigger` helper); the declaration processor
compiles it into a :class:`TriggerInfo` — the paper's Section 5.4.4
"trigger information container": FSM, action function, perpetual flag,
coupling mode — stored in the defining class's metatype.

:class:`IntFsm` is the run-time machine keyed by the globally-unique event
integers: each state carries a *sparse* transition list searched linearly,
exactly the representation of Section 5.4.3.  How it steps — the
ignore/dead rule and the mask cascade — is :class:`repro.events.fsm.Fsm`'s,
stated once in that module; :func:`build_int_fsm` assigns its integers.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable

from repro.core.registry import EventRegistry
from repro.errors import TriggerDeclarationError
from repro.events.compile import CompiledMachine
from repro.events.fsm import FALSE_PREFIX, TRUE_PREFIX, Fsm


class CouplingMode(enum.Enum):
    """The ECA coupling modes Ode supplies (paper Section 4.2)."""

    IMMEDIATE = "immediate"
    END = "end"  # deferred: fired right before the transaction commits
    DEPENDENT = "dependent"  # separate txn, commit-dependent on detector
    INDEPENDENT = "!dependent"  # separate txn, no commit dependency

    @classmethod
    def parse(cls, value: "CouplingMode | str") -> "CouplingMode":
        if isinstance(value, cls):
            return value
        for mode in cls:
            if mode.value == value:
                return mode
        if value == "deferred":
            return cls.END
        raise TriggerDeclarationError(
            f"unknown coupling mode {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclasses.dataclass
class TriggerDecl:
    """A trigger as written in a class definition (pre-compilation)."""

    name: str
    expression: str
    action: Callable[..., Any] | str
    params: tuple[str, ...] = ()
    perpetual: bool = False
    coupling: CouplingMode | str = CouplingMode.IMMEDIATE
    masks: dict[str, Callable[..., bool]] = dataclasses.field(default_factory=dict)
    #: User events the action is declared to raise (``post_user_event``
    #: calls, or member calls whose events cascade).  Purely declarative —
    #: the run time does not enforce it — but it makes the trigger→trigger
    #: posting graph statically known, which is what the analyzer's
    #: cascade-cycle pass (ODE030/ODE031) reasons over.
    posts: tuple[str, ...] = ()
    #: Analyzer diagnostic codes acknowledged as intended for this trigger
    #: (e.g. ``("ODE020",)`` on a deliberate alert-then-escalate pair).
    suppress: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Integer-keyed run-time FSM (paper Section 5.4.3)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class IntTransition:
    """``struct Transition { unsigned int eventnum; int newstate; }``"""

    eventnum: int
    newstate: int


@dataclasses.dataclass(frozen=True)
class IntState:
    """``class State``: number, accept status, masks, sparse transitions."""

    statenum: int
    accept: bool
    masks: tuple[str, ...]
    transfunc: tuple[IntTransition, ...]

    def next_state(self, eventnum: int) -> int | None:
        """Linear search of the sparse transition list, as the paper does."""
        for transition in self.transfunc:
            if transition.eventnum == eventnum:
                return transition.newstate
        return None


class IntFsm(Fsm):
    """A compiled machine whose alphabet is globally-unique event integers.

    *symbol_to_int* maps each event symbol to its integer, *pseudo_ints*
    each ``(mask, outcome)`` to its pseudo-event integer.
    """

    def __init__(
        self,
        compiled: CompiledMachine,
        symbol_to_int: dict[str, int],
        pseudo_ints: dict[tuple[str, bool], int],
    ):
        self.compiled = compiled
        self.symbol_to_int = dict(symbol_to_int)
        states = []
        for state in compiled.fsm.states:
            transfunc = tuple(
                IntTransition(symbol_to_int[symbol], dst)
                for symbol, dst in sorted(state.transitions.items())
                if symbol in symbol_to_int
            ) + tuple(
                IntTransition(pseudo_ints[key], dst)
                for key, dst in sorted(
                    (
                        ((sym.split(":", 1)[1], sym.startswith(TRUE_PREFIX)), dst)
                        for sym, dst in state.transitions.items()
                        if sym.startswith((TRUE_PREFIX, FALSE_PREFIX))
                    )
                )
            )
            states.append(
                IntState(state.statenum, state.accept, state.masks, transfunc)
            )
        super().__init__(
            states,
            compiled.fsm.start,
            frozenset(symbol_to_int.values()) | frozenset(pseudo_ints.values()),
            compiled.anchored,
            dict(pseudo_ints),
        )

    def transition_count(self) -> int:
        return sum(len(s.transfunc) for s in self.states)


def build_int_fsm(
    compiled: CompiledMachine,
    event_ints: dict[str, int],
    registry: EventRegistry,
    owner: str,
    scope: str = "",
) -> IntFsm:
    """The run-time machine for *compiled*: each event symbol takes its
    integer from *event_ints* (the class's), and each mask outcome a fresh
    pseudo-event integer assigned in *registry* to *owner* under the name
    ``true:<scope><mask>`` / ``false:<scope><mask>``."""
    symbol_to_int = {symbol: event_ints[symbol] for symbol in compiled.event_symbols}
    pseudo_ints = {
        (mask, outcome): registry.assign(
            owner, f"{TRUE_PREFIX if outcome else FALSE_PREFIX}{scope}{mask}"
        )
        for mask in compiled.masks
        for outcome in (True, False)
    }
    return IntFsm(compiled, symbol_to_int, pseudo_ints)


@dataclasses.dataclass(eq=False)
class TriggerInfo:
    """Everything about one trigger (paper Section 5.4.4 ``TriggerInfo``).

    Infos compare and hash by identity: each is one trigger kind, shared
    by every state of that kind, and the compile tier keys its verdicts
    and local-rule functions by them."""

    name: str
    triggernum: int
    defining_type: str
    compiled: CompiledMachine
    fsm: IntFsm
    action: Callable[..., Any]
    perpetual: bool
    coupling: CouplingMode
    params: tuple[str, ...]
    #: mask name -> normalized (instance, params) predicate
    masks: dict[str, Callable[..., bool]] = dataclasses.field(default_factory=dict)
    #: mask name -> the predicate exactly as declared (pre-``_adapt_mask``)
    #: — what generated code calls, with its own arity, and what ODE401
    #: reads.  May be missing entries for run-time bridge triggers.
    mask_specs: dict[str, Callable[..., bool]] = dataclasses.field(
        default_factory=dict
    )
    #: declared user events the action raises (from ``TriggerDecl.posts``)
    posts: tuple[str, ...] = ()
    #: mask names registered per-trigger at declaration (before filtering
    #: to the ones the expression uses) — kept for the ODE011 lint
    declared_masks: tuple[str, ...] = ()
    #: analyzer codes the declaration explicitly acknowledges as intended
    suppress: tuple[str, ...] = ()
    #: the action exactly as declared (a method name string or the raw
    #: callable), before ``_adapt_action`` wraps it — the effect-inference
    #: analyzer resolves string actions against the class from this
    action_spec: Any = None

    def __repr__(self) -> str:
        return (
            f"<TriggerInfo {self.defining_type}.{self.name} "
            f"#{self.triggernum} {self.coupling.value}"
            f"{' perpetual' if self.perpetual else ''}>"
        )
