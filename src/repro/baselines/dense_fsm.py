"""The dense 2-D transition array the paper abandoned (experiment E4).

    "We originally planned to represent each FSM's transition function as a
    normal two-dimensional array using the current state and an integer
    representing the posted event to index into an array of (next) states.
    However, this representation is very space inefficient for sparse
    arrays, so event identifiers had to be reused ...  It was found to be
    much cleaner to map each event to a unique integer and use a sparse
    array representation of the transition function."  (Section 6)

:class:`DenseFsm` materializes ``next[state][eventnum]`` over the whole
global event-integer space (0..max assigned), so its memory grows with the
number of events registered *process-wide*, not with the machine's own
alphabet — precisely the blowup that forced the redesign.  Lookup is O(1)
array indexing; the sparse list is a short linear scan.  E4 measures both
sides of that trade.
"""

from __future__ import annotations

import dataclasses

from repro.core.trigger_def import IntFsm
from repro.events.fsm import Fsm

#: Sentinel meaning "no transition" inside the dense array.
NO_TRANSITION = -2


@dataclasses.dataclass(frozen=True)
class DenseState:
    """One row of the dense array: ``row[eventnum]`` is the next state."""

    statenum: int
    accept: bool
    masks: tuple[str, ...]
    row: list[int]

    def next_state(self, eventnum: int) -> int | None:
        """O(1) indexing, where the sparse list searches linearly."""
        if 0 <= eventnum < len(self.row):
            nxt = self.row[eventnum]
            if nxt != NO_TRANSITION:
                return nxt
        return None


class DenseFsm(Fsm):
    """An :class:`IntFsm` re-encoded as a dense ``next[state][event]`` array;
    it steps by the same :class:`~repro.events.fsm.Fsm` rule."""

    def __init__(self, fsm: IntFsm, global_event_count: int):
        """Build from *fsm*, sized for *global_event_count* event integers.

        ``global_event_count`` is ``len(global_event_registry())`` in a real
        process — every event of every class, because the integers are
        globally unique (the whole point of the Section 6 lesson).
        """
        if global_event_count < 1:
            raise ValueError("global_event_count must be positive")
        self.width = global_event_count + 1  # event ints are 1-based
        states = []
        for state in fsm.states:
            row = [NO_TRANSITION] * self.width
            for transition in state.transfunc:
                if transition.eventnum < self.width:
                    row[transition.eventnum] = transition.newstate
            states.append(DenseState(state.statenum, state.accept, state.masks, row))
        super().__init__(states, fsm.start, fsm.alphabet, fsm.anchored, fsm.pseudo)

    # -- accounting ---------------------------------------------------------------

    def cells(self) -> int:
        """Total array cells (the dense memory footprint driver)."""
        return len(self.states) * self.width

    def approx_bytes(self) -> int:
        """Approximate memory, at 8 bytes per cell (C ``int``-ish, rounded up)."""
        return self.cells() * 8

    def used_cells(self) -> int:
        """Cells holding a real transition (what the sparse form stores)."""
        return sum(
            1 for state in self.states for cell in state.row if cell != NO_TRANSITION
        )

    def occupancy(self) -> float:
        """Fraction of the dense array actually used."""
        return self.used_cells() / self.cells() if self.cells() else 0.0
