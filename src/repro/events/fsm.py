"""The extended finite state machine — compiled form of an event expression.

This is the paper's Section 5.4.3 structure, symbol-keyed: each state has a
number, an accept flag, the (ordered) masks it must evaluate, and a sparse
transition table.  It is also the one place the run-time stepping rule is
written: :class:`repro.core.trigger_def.IntFsm` (the same machine over
global event integers) and :class:`repro.baselines.dense_fsm.DenseFsm` (the
dense-array baseline) subclass :class:`Fsm` and supply only their states'
``next_state`` lookup and their pseudo-event table.

The ignore/dead rule of :meth:`Fsm.move`: "Any event which does not
appear in a state's Transition list is ignored" (Section 5.4.3) — for
*unanchored* machines that never happens for alphabet symbols (the
implicit ``(*any)`` prefix makes the DFA complete), and out-of-alphabet
events (e.g. derived-class events posted to a base-class trigger) are
ignored by construction.  *Anchored* machines (``^``) treat a missing
alphabet transition as the dead state: the match window started at
activation and has been missed for good.

The mask cascade (Section 5.4.5 step (b), the ``True``/``False``
pseudo-event protocol of Section 5.1.2): while the machine rests on a
state with a pending mask, evaluate the state's first mask and feed the
matching pseudo-event back in.  A mask predicate is evaluated against a
single instant — no events intervene during the cascade — so each mask
is asked at most once per cascade and keeps that one value.  With its
outcomes fixed the cascade is a deterministic walk over finitely many
states: it stops on a mask-free state, on an ignored pseudo-event, or on
a state it already visited — a fixpoint (a mask on a nullable loop, e.g.
``relative((*a) & m, b)``, restarts its own obligation), where the
machine rests until the next real event.  Any accept state *visited* on
the way counts (step (c): an accept state "has been reached").  The
compiled tier (:mod:`repro.core.compiled`) unrolls this same walk.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Hashable, Sequence

from repro.errors import EventError, FSMError

TRUE_PREFIX = "true:"
FALSE_PREFIX = "false:"

#: Sentinel state number for the dead state of anchored machines.
DEAD = -1


@dataclasses.dataclass(frozen=True)
class EventDecl:
    """A declared basic event: ``after Buy``, ``before PayBill``, ``BigBuy``.

    Transaction events are declared as ``before tcomplete`` /
    ``before tabort`` (kind "before", reserved names).
    """

    kind: str
    name: str

    TX_NAMES = ("tcomplete", "tabort")

    def __post_init__(self) -> None:
        if self.kind not in ("before", "after", "user"):
            raise EventError(f"bad declared-event kind {self.kind!r}")
        if self.name in self.TX_NAMES and self.kind != "before":
            raise EventError(
                f"transaction event {self.name!r} only exists as 'before' "
                "(the paper dropped after-variants; Section 6)"
            )

    @property
    def symbol(self) -> str:
        return self.name if self.kind == "user" else f"{self.kind} {self.name}"

    @property
    def is_transaction_event(self) -> bool:
        return self.name in self.TX_NAMES and self.kind == "before"

    @property
    def is_method_event(self) -> bool:
        return self.kind in ("before", "after") and not self.is_transaction_event

    @classmethod
    def parse(cls, text: str) -> "EventDecl":
        """Parse a declaration like ``"after Buy"`` or ``"BigBuy"``."""
        parts = text.split()
        if len(parts) == 2 and parts[0] in ("before", "after"):
            return cls(parts[0], parts[1])
        if len(parts) == 1 and parts[0].isidentifier():
            return cls("user", parts[0])
        raise EventError(f"cannot parse event declaration {text!r}")

    def __str__(self) -> str:
        return self.symbol


@dataclasses.dataclass
class FsmState:
    """One state: number, accept flag, pending masks, sparse transitions."""

    statenum: int
    accept: bool
    masks: tuple[str, ...]
    transitions: dict[str, int]

    def describe(self) -> str:
        mask = f" *[{', '.join(self.masks)}]" if self.masks else ""
        acc = " (accept)" if self.accept else ""
        edges = ", ".join(
            f"{symbol} -> {dst}" for symbol, dst in sorted(self.transitions.items())
        )
        return f"state {self.statenum}{mask}{acc}: {edges or '<none>'}"

    def next_state(self, symbol: str) -> int | None:
        """The transition on *symbol*, or ``None`` when there is none."""
        return self.transitions.get(symbol)


@dataclasses.dataclass(frozen=True)
class AdvanceResult:
    """Outcome of posting one basic event to a machine."""

    state: int
    consumed: bool
    accepted: bool
    pseudo_steps: int


class Fsm:
    """A compiled (deterministic, extended) event machine.

    *pseudo* maps ``(mask, outcome)`` to the pseudo-event the cascade
    feeds back in; it defaults to the ``true:``/``false:`` symbols.
    """

    def __init__(
        self,
        states: Sequence[FsmState],
        start: int,
        alphabet: frozenset[Hashable],
        anchored: bool,
        pseudo: dict[tuple[str, bool], Hashable] | None = None,
    ):
        self.states = list(states)
        self.start = start
        self.alphabet = alphabet
        self.anchored = anchored
        if pseudo is None:
            pseudo = {
                (mask, outcome): (TRUE_PREFIX if outcome else FALSE_PREFIX) + mask
                for state in self.states
                for mask in state.masks
                for outcome in (True, False)
            }
        self.pseudo = pseudo

    # -- structure -------------------------------------------------------------

    def state(self, statenum: int) -> FsmState:
        if statenum == DEAD:
            raise FSMError("the dead state has no descriptor")
        return self.states[statenum]

    def __len__(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return sum(len(s.transitions) for s in self.states)

    def accept_states(self) -> list[int]:
        return [s.statenum for s in self.states if s.accept]

    def mask_states(self) -> list[int]:
        return [s.statenum for s in self.states if s.masks]

    def describe(self) -> str:
        header = (
            f"FSM: {len(self.states)} states, start={self.start}, "
            f"{'anchored' if self.anchored else 'unanchored'}, "
            f"alphabet={sorted(self.alphabet)}"
        )
        return "\n".join([header] + [s.describe() for s in self.states])

    # -- run-time semantics (the module docstring states the rules) --------------

    def move(self, statenum: int, symbol: Hashable) -> tuple[int, bool]:
        """One raw transition; returns ``(newstate, consumed)``."""
        if statenum < 0:  # a list index would count from the end
            if statenum == DEAD:
                return DEAD, False
            raise IndexError(f"FSM state {statenum} out of range")
        nxt = self.states[statenum].next_state(symbol)
        if nxt is not None:
            return nxt, True
        if self.anchored and symbol in self.alphabet:
            return DEAD, True
        return statenum, False

    def quiesce(
        self,
        statenum: int,
        evaluate_mask: Callable[[str], bool],
    ) -> tuple[int, int]:
        """Run the mask cascade from *statenum*; ``(state, steps)``.

        Needed at trigger activation: an expression like ``(*a) & m`` puts
        the *start* state under a mask obligation before any event arrives.
        """
        current, steps, _ = self._quiesce_tracking(statenum, evaluate_mask)
        return current, steps

    def _quiesce_tracking(
        self,
        statenum: int,
        evaluate_mask: Callable[[str], bool],
    ) -> tuple[int, int, bool]:
        """The mask cascade; ``(state, pseudo_steps, accept_seen)``.

        An accept state may simultaneously carry a mask obligation for an
        overlapping next match (e.g. ``+((a & m), a)``: the accept state
        awaits *m* for the iteration the final ``a`` could restart), so
        passing *through* one must fire even when a failed mask then moves
        the machine on.  An ignored pseudo-event leaves the machine where
        it is, which the revisit check ends like any other fixpoint.
        """
        if statenum == DEAD:
            return DEAD, 0, False
        states = self.states
        state = states[statenum]
        seen_accept = state.accept
        if not state.masks:
            return statenum, 0, seen_accept
        current = statenum
        steps = 0
        outcomes: dict[str, bool] = {}
        visited: set[int] = set()
        while True:
            visited.add(current)
            mask = state.masks[0]
            outcome = outcomes.get(mask)
            if outcome is None:
                outcome = outcomes[mask] = bool(evaluate_mask(mask))
            current = self.move(current, self.pseudo[(mask, outcome)])[0]
            steps += 1
            if current == DEAD:
                return current, steps, seen_accept
            state = states[current]
            seen_accept = seen_accept or state.accept
            if current in visited or not state.masks:
                return current, steps, seen_accept

    def advance(
        self,
        statenum: int,
        symbol: Hashable,
        evaluate_mask: Callable[[str], bool],
    ) -> AdvanceResult:
        """Post one basic event: move, run the mask cascade, report
        (Section 5.4.5, steps a–c).

        *evaluate_mask* is called with a mask name and must return a bool.
        Acceptance counts any state visited while processing the posting —
        at most once per posting either way (footnote 5).
        """
        current, consumed = self.move(statenum, symbol)
        if not consumed:
            return AdvanceResult(current, False, False, 0)
        current, steps, seen_accept = self._quiesce_tracking(current, evaluate_mask)
        return AdvanceResult(current, True, seen_accept, steps)
