"""Moore-style DFA minimization for extended FSMs.

Partition refinement over ``(accept, masks)``-labelled states: two states
may merge only if they agree on acceptance *and* on the masks they would
evaluate (merging a mask state with a plain state would change run-time
behaviour, not just the language).  Missing transitions are modelled as a
virtual dead state so partial (anchored) machines minimize correctly; the
dead state is dropped again on rebuild.

This is the ablation axis of experiment E11 — the paper's construction
cites the textbook pipeline [16] without saying whether Ode minimized, so
we expose it as a switch and measure what it buys.
"""

from __future__ import annotations

from repro.events.fsm import DEAD, Fsm, FsmState


def reachable_states(fsm: Fsm) -> set[int]:
    """State numbers reachable from the start via explicit transitions.

    Implicit moves (unanchored "stay", anchored "dead") never enter a new
    state, so explicit edges are the whole reachability relation.  Subset
    construction only ever creates reachable states; this helper lets the
    analyzer *prove* that for machines of any provenance.
    """
    seen = {fsm.start}
    frontier = [fsm.start]
    while frontier:
        current = frontier.pop()
        for dst in fsm.states[current].transitions.values():
            if dst != DEAD and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def coreachable_states(fsm: Fsm) -> set[int]:
    """State numbers from which some accept state is reachable.

    A state outside this set is a *trap*: the trigger sitting there can
    never fire again (though for unanchored machines such states cannot be
    produced by compilation — the implicit ``(*any)`` prefix keeps a live
    restart component in every subset state).
    """
    inverse: dict[int, set[int]] = {}
    for state in fsm.states:
        for dst in state.transitions.values():
            if dst != DEAD:
                inverse.setdefault(dst, set()).add(state.statenum)
    seen = {s.statenum for s in fsm.states if s.accept}
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for src in inverse.get(current, ()):
            if src not in seen:
                seen.add(src)
                frontier.append(src)
    return seen


def prune_irrelevant_masks(fsm: Fsm) -> Fsm:
    """Drop mask obligations whose outcome cannot matter.

    If a state's ``true:m`` and ``false:m`` edges lead to the same place,
    evaluating *m* there is pure overhead; removing the obligation both
    skips the predicate call at run time and lets minimization merge the
    state with its non-mask twin — this is what reduces the AutoRaiseLimit
    machine to the exact four states of paper Figure 1.
    """
    from repro.events.fsm import FALSE_PREFIX, TRUE_PREFIX

    new_states = []
    changed = False
    for state in fsm.states:
        kept = []
        for mask in state.masks:
            true_dst = state.transitions.get(TRUE_PREFIX + mask)
            false_dst = state.transitions.get(FALSE_PREFIX + mask)
            # Resolve "missing" per Fsm.move: dead if anchored, stay if not.
            def resolved(dst):
                if dst is not None:
                    return dst
                return DEAD if fsm.anchored else state.statenum

            if resolved(true_dst) == resolved(false_dst):
                changed = True
            else:
                kept.append(mask)
        new_states.append(
            FsmState(state.statenum, state.accept, tuple(kept), dict(state.transitions))
        )
    if not changed:
        return fsm
    return Fsm(new_states, fsm.start, fsm.alphabet, fsm.anchored)


def minimize_fsm(fsm: Fsm) -> Fsm:
    """Return an equivalent machine with the minimal number of states."""
    n = len(fsm.states)
    symbols = sorted(fsm.alphabet)

    # Virtual dead state at index n: not accepting, no masks, self-loops.
    def target(statenum: int, symbol: str) -> int:
        if statenum == n:
            return n
        nxt = fsm.states[statenum].transitions.get(symbol)
        if nxt is not None:
            return nxt
        # Fsm.move semantics: anchored -> dead; unanchored -> self (ignore).
        return n if fsm.anchored else statenum

    # Initial partition by observable behaviour.
    def label(statenum: int):
        if statenum == n:
            return (False, ())
        state = fsm.states[statenum]
        return (state.accept, state.masks)

    classes: dict[int, int] = {}
    by_label: dict[tuple, int] = {}
    for statenum in list(range(n)) + [n]:
        key = label(statenum)
        if key not in by_label:
            by_label[key] = len(by_label)
        classes[statenum] = by_label[key]

    # Refine until stable.
    while True:
        signatures: dict[tuple, int] = {}
        new_classes: dict[int, int] = {}
        for statenum in list(range(n)) + [n]:
            signature = (
                classes[statenum],
                tuple(classes[target(statenum, symbol)] for symbol in symbols),
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            new_classes[statenum] = signatures[signature]
        if len(signatures) == len(set(classes.values())):
            break
        classes = new_classes

    dead_class = classes[n]
    # Renumber surviving classes with the start state's class first.
    order: list[int] = []
    seen: set[int] = set()
    for statenum in [fsm.start] + list(range(n)):
        cls = classes[statenum]
        if cls != dead_class and cls not in seen:
            seen.add(cls)
            order.append(cls)
    renumber = {cls: idx for idx, cls in enumerate(order)}

    representatives: dict[int, int] = {}
    for statenum in range(n):
        representatives.setdefault(classes[statenum], statenum)

    new_states: list[FsmState] = []
    for cls in order:
        rep = fsm.states[representatives[cls]]
        transitions: dict[str, int] = {}
        for symbol in symbols:
            dst = target(rep.statenum, symbol)
            dst_class = classes[dst]
            if dst_class == dead_class:
                continue  # dead edges stay implicit (Fsm.move synthesizes them)
            # Skip pure self-ignores for unanchored machines: Fsm.move
            # treats a missing edge as "stay", so an explicit self-loop on
            # an ignored symbol is redundant — but only if the original had
            # no explicit edge either (a real self-loop must be kept).
            if (
                not fsm.anchored
                and dst_class == cls
                and rep.transitions.get(symbol) is None
            ):
                continue
            transitions[symbol] = renumber[dst_class]
        new_states.append(
            FsmState(
                statenum=renumber[cls],
                accept=rep.accept,
                masks=rep.masks,
                transitions=transitions,
            )
        )

    return Fsm(
        new_states,
        start=renumber[classes[fsm.start]],
        alphabet=fsm.alphabet,
        anchored=fsm.anchored,
    )
