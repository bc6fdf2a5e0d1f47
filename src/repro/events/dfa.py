"""Subset construction: NFA → deterministic extended FSM.

A DFA state is an ε-closed set of NFA states.  It is an *accept* state if
it contains the NFA accept, and a *mask state* pending mask *m* if it
contains an NFA state carrying the obligation to consume ``True_m`` (the
obligation tags distinguish genuine ``e & m`` continuations from pseudo-
events merely swallowed by an ``(*any)`` loop — only the former should make
the runtime evaluate predicates).

Mask pseudo-events are not stream events: feeding ``True_m``/``False_m``
resolves mask *m* and must leave every NFA configuration that has no stake
in *m* untouched.  A configuration has a stake when its ε-closure carries
an explicit transition on either pseudo-event of that mask (an ``e & m``
obligation, or an ``(*any)``-with-pseudo loop) — the closure matters
because an ε-only junction whose sole successor is an obligation state
must die with it, not resurrect it.  All other configurations — say, the
middle of a parallel ``Seq`` branch — are carried through unchanged.
"""

from __future__ import annotations

from repro.events.fsm import DEAD, FALSE_PREFIX, TRUE_PREFIX, Fsm, FsmState
from repro.events.nfa import Nfa


def _staked_masks(nfa: Nfa) -> dict[int, frozenset[str]]:
    """For each NFA state, the masks its ε-closure can explicitly consume.

    A state is *staked* in mask *m* when some state in its ε-closure has
    an explicit transition on ``true:m`` or ``false:m``; resolving *m*
    then determines that configuration's fate, so the subset construction
    must not carry it through a pseudo-event unchanged.
    """
    staked: dict[int, frozenset[str]] = {}
    for state in range(nfa.state_count):
        masks: set[str] = set()
        for member in nfa.eps_closure({state}):
            for symbol in nfa.transitions.get(member, {}):
                if symbol.startswith(TRUE_PREFIX):
                    masks.add(symbol[len(TRUE_PREFIX) :])
                elif symbol.startswith(FALSE_PREFIX):
                    masks.add(symbol[len(FALSE_PREFIX) :])
        staked[state] = frozenset(masks)
    return staked


def determinize(nfa: Nfa, anchored: bool) -> Fsm:
    """Build the deterministic machine recognizing the same language."""
    start_set = nfa.eps_closure({nfa.start})
    numbering: dict[frozenset[int], int] = {start_set: 0}
    worklist: list[frozenset[int]] = [start_set]
    states: list[FsmState] = []
    staked = _staked_masks(nfa)

    # Deterministic symbol order keeps machines (and tests) stable.
    symbols = sorted(nfa.alphabet)

    while worklist:
        current = worklist.pop(0)
        statenum = numbering[current]
        transitions: dict[str, int] = {}
        for symbol in symbols:
            target = nfa.move(current, symbol)
            if _is_pseudo(symbol):
                # Resolving one mask must not kill configurations that are
                # not waiting on it (they would otherwise be lost because
                # they have no explicit pseudo edge to follow).
                mask = symbol.split(":", 1)[1]
                for nfa_state in current:
                    if mask not in staked[nfa_state]:
                        target.add(nfa_state)
            if not target:
                continue  # missing transition: ignored/dead per Fsm.move
            closed = nfa.eps_closure(target)
            nxt = numbering.get(closed)
            if nxt is None:
                nxt = numbering[closed] = len(numbering)
                worklist.append(closed)
            transitions[symbol] = nxt
        masks = tuple(
            sorted({nfa.obligations[s] for s in current if s in nfa.obligations})
        )
        states.append(
            FsmState(
                statenum=statenum,
                accept=nfa.accept in current,
                masks=masks,
                transitions=transitions,
            )
        )

    states.sort(key=lambda s: s.statenum)
    return Fsm(states, start=0, alphabet=nfa.alphabet, anchored=anchored)


# ---------------------------------------------------------------------------
# Product construction (used by the static analyzer's inclusion check)
# ---------------------------------------------------------------------------


def resolved_target(fsm: Fsm, statenum: int, symbol: str) -> int:
    """Total transition function: where *symbol* sends *statenum*.

    The same resolution :meth:`Fsm.move` applies at run time — a missing
    alphabet transition is dead for anchored machines and "stay" for
    unanchored ones; out-of-alphabet symbols are always ignored — but as a
    pure function over state numbers (``DEAD`` is an explicit sink).
    """
    if statenum == DEAD:
        return DEAD
    nxt = fsm.states[statenum].transitions.get(symbol)
    if nxt is not None:
        return nxt
    if fsm.anchored and symbol in fsm.alphabet:
        return DEAD
    return statenum


def _accepts(fsm: Fsm, statenum: int) -> bool:
    return statenum != DEAD and fsm.states[statenum].accept


def find_inclusion_witness(a: Fsm, b: Fsm) -> list[str] | None:
    """A word accepted by *a* but not *b*, or ``None`` if L(a) ⊆ L(b).

    Breadth-first search over the product automaton of the two completed
    machines, over the union of their alphabets (mask pseudo-events
    included: a shared mask name means a shared predicate, while a pseudo-
    event the other machine has never heard of is ignored by it, exactly as
    at run time).  The returned witness is shortest-first, which makes the
    diagnostics readable.
    """
    alphabet = sorted(a.alphabet | b.alphabet)
    start = (a.start, b.start)
    if _accepts(a, a.start) and not _accepts(b, b.start):
        return []
    parents: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for pair in frontier:
            sa, sb = pair
            for symbol in alphabet:
                succ = (resolved_target(a, sa, symbol), resolved_target(b, sb, symbol))
                if succ in seen:
                    continue
                seen.add(succ)
                parents[succ] = (pair, symbol)
                if _accepts(a, succ[0]) and not _accepts(b, succ[1]):
                    word = [symbol]
                    back = pair
                    while back != start:
                        back, sym = parents[back]
                        word.append(sym)
                    word.reverse()
                    return word
                next_frontier.append(succ)
        frontier = next_frontier
    return None


def language_included(a: Fsm, b: Fsm) -> bool:
    """Whether every event sequence accepted by *a* is accepted by *b*."""
    return find_inclusion_witness(a, b) is None


def _is_pseudo(symbol: str) -> bool:
    return symbol.startswith("true:") or symbol.startswith("false:")


def acceptance_avoiding(fsm: Fsm, avoid: frozenset[str] | set[str]) -> bool:
    """Whether *fsm* accepts some sequence that never consumes a symbol
    in *avoid*.

    The termination pass uses this for guardedness: if no acceptance
    avoids every ``true:mask`` pseudo-event, the trigger cannot fire
    without at least one mask predicate holding — a cascade cycle
    through it is predicate-guarded, not irrefutable.
    """
    if _accepts(fsm, fsm.start):
        return True
    symbols = sorted(fsm.alphabet - set(avoid))
    seen = {fsm.start}
    frontier = [fsm.start]
    while frontier:
        cur = frontier.pop()
        for symbol in symbols:
            nxt = resolved_target(fsm, cur, symbol)
            if nxt == DEAD or nxt in seen:
                continue
            if _accepts(fsm, nxt):
                return True
            seen.add(nxt)
            frontier.append(nxt)
    return False


def acceptance_through(fsm: Fsm, symbol: str) -> bool:
    """Whether some accepted run of *fsm* explicitly consumes *symbol*.

    Used to prune cascade edges: a posting of *symbol* can only feed a
    downstream trigger if that trigger's machine can consume it on the
    way to an accept state.  "Explicitly" matches the runtime, where a
    firing requires the posted event to be consumed (not ignored or
    swallowed by an anchored reset).
    """
    if not any(symbol in state.transitions for state in fsm.states):
        return False
    start = (fsm.start, False)
    seen = {start}
    frontier = [start]
    symbols = sorted(fsm.alphabet)
    while frontier:
        cur, consumed = frontier.pop()
        for sym in symbols:
            explicit = sym in fsm.states[cur].transitions
            nxt = resolved_target(fsm, cur, sym)
            if nxt == DEAD:
                continue
            nflag = consumed or (explicit and sym == symbol)
            key = (nxt, nflag)
            if key in seen:
                continue
            if nflag and _accepts(fsm, nxt):
                return True
            seen.add(key)
            frontier.append(key)
    return False


def firing_symbols(fsm: Fsm) -> frozenset[str]:
    """The non-pseudo symbols whose consumption can complete a detection.

    A symbol fires if some reachable state has an explicit transition on
    it whose target reaches an accept state through pseudo-events alone
    (mask evaluation happens in the same quiesce pass as the consuming
    event, so the firing is attributed to that event).  Two triggers with
    disjoint firing symbols can never fire on the same posting, which the
    confluence pass uses to skip pairs that share no coupling point.
    """
    reachable = {fsm.start}
    frontier = [fsm.start]
    while frontier:
        cur = frontier.pop()
        for target in fsm.states[cur].transitions.values():
            if target != DEAD and target not in reachable:
                reachable.add(target)
                frontier.append(target)
    result: set[str] = set()
    for statenum in reachable:
        for symbol, target in fsm.states[statenum].transitions.items():
            if _is_pseudo(symbol) or symbol in result or target == DEAD:
                continue
            if _pseudo_closure_accepts(fsm, target):
                result.add(symbol)
    return frozenset(result)


def _pseudo_closure_accepts(fsm: Fsm, statenum: int) -> bool:
    seen: set[int] = set()
    frontier = [statenum]
    while frontier:
        cur = frontier.pop()
        if cur == DEAD or cur in seen:
            continue
        seen.add(cur)
        if _accepts(fsm, cur):
            return True
        for symbol, target in fsm.states[cur].transitions.items():
            if _is_pseudo(symbol):
                frontier.append(target)
    return False

