"""Extended-FSM run-time semantics: advance, quiesce, masks, dead states."""

import contextlib

import pytest

from benchmarks.common import interpreted_baseline
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.errors import FSMError
from repro.events.compile import compile_expression
from repro.events.fsm import DEAD
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

DECLS = ["A", "B", "C"]

#: Firings of the ``relative((*A) & m, A)`` watchers below.
_LOOP_FIRED: list[str] = []


def _nullable_loop_declarations():
    return {
        "__events__": ["A", "B"],
        "__masks__": {"m": lambda self: self.armed},
        "__triggers__": [
            trigger(
                "Watch",
                "relative((*A) & m, A)",
                action=lambda self, ctx: _LOOP_FIRED.append("Watch"),
                perpetual=True,
            )
        ],
    }


NullableLoopWatch = type(
    "NullableLoopWatch",
    (Persistent,),
    {"armed": field(bool, default=False), **_nullable_loop_declarations()},
)
LocalNullableLoopWatch = type(
    "LocalNullableLoopWatch",
    (Monitored,),
    {
        "__init__": lambda self: setattr(self, "armed", False),
        **_nullable_loop_declarations(),
    },
)


def drive(fsm, stream, mask_values=None):
    """Run *stream* through *fsm*; returns list of accept flags."""
    values = mask_values or {}
    evaluate = lambda name: values.get(name, False)
    state = fsm.start
    state, _ = fsm.quiesce(state, evaluate)
    hits = []
    for symbol in stream:
        result = fsm.advance(state, symbol, evaluate)
        state = result.state
        hits.append(result.accepted)
    return hits


class TestSequences:
    def test_contiguous_sequence_required(self):
        fsm = compile_expression("A, B", DECLS).fsm
        assert drive(fsm, ["A", "B"]) == [False, True]
        assert drive(fsm, ["A", "C", "B"]) == [False, False, False]

    def test_match_can_start_anywhere(self):
        fsm = compile_expression("A, B", DECLS).fsm
        assert drive(fsm, ["C", "C", "A", "B"]) == [False, False, False, True]

    def test_overlapping_matches(self):
        fsm = compile_expression("A, A", DECLS).fsm
        assert drive(fsm, ["A", "A", "A"]) == [False, True, True]

    def test_fires_every_match_when_machine_keeps_running(self):
        fsm = compile_expression("A", DECLS).fsm
        assert drive(fsm, ["A", "B", "A"]) == [True, False, True]


class TestUnionStar:
    def test_union(self):
        fsm = compile_expression("A || B", DECLS).fsm
        assert drive(fsm, ["C", "A", "B"]) == [False, True, True]

    def test_star_interior(self):
        fsm = compile_expression("A, *B, C", DECLS).fsm
        assert drive(fsm, ["A", "C"]) == [False, True]
        assert drive(fsm, ["A", "B", "B", "C"]) == [False, False, False, True]
        # An interrupted run (B then C with no A before it) does not match.
        assert drive(fsm, ["B", "C"]) == [False, False]
        assert drive(fsm, ["A", "B", "C", "C"]) == [False, False, True, False]

    def test_plus(self):
        fsm = compile_expression("+A, B", DECLS).fsm
        assert drive(fsm, ["A", "B"]) == [False, True]
        assert drive(fsm, ["A", "A", "B"]) == [False, False, True]
        assert drive(fsm, ["B"]) == [False]


class TestAnchored:
    def test_anchored_matches_from_activation(self):
        fsm = compile_expression("^(A, B)", DECLS).fsm
        assert drive(fsm, ["A", "B"]) == [False, True]

    def test_anchored_dies_on_mismatch(self):
        fsm = compile_expression("^(A, B)", DECLS).fsm
        assert drive(fsm, ["C", "A", "B"]) == [False, False, False]

    def test_dead_state_stays_dead(self):
        fsm = compile_expression("^A", DECLS).fsm
        state, consumed = fsm.move(fsm.start, "B")
        assert state == DEAD
        result = fsm.advance(DEAD, "A", lambda m: True)
        assert result.state == DEAD
        assert not result.accepted


class TestMasks:
    def test_mask_gates_acceptance(self):
        fsm = compile_expression("A & hot", DECLS).fsm
        assert drive(fsm, ["A"], {"hot": False}) == [False]
        assert drive(fsm, ["A"], {"hot": True}) == [True]

    def test_mask_evaluated_at_event_time(self):
        fsm = compile_expression("(A & hot), B", DECLS).fsm
        values = {"hot": True}
        evaluate = lambda name: values[name]
        state = fsm.start
        result = fsm.advance(state, "A", evaluate)
        values["hot"] = False  # changing later must not matter
        result = fsm.advance(result.state, "B", evaluate)
        assert result.accepted

    def test_failed_mask_falls_back_to_search(self):
        fsm = compile_expression("(A & hot), B", DECLS).fsm
        values = {"hot": False}
        evaluate = lambda name: values[name]
        state = fsm.start
        state = fsm.advance(state, "A", evaluate).state
        values["hot"] = True
        state = fsm.advance(state, "A", evaluate).state  # fresh A, mask true
        result = fsm.advance(state, "B", evaluate)
        assert result.accepted

    def test_chained_masks_all_must_hold(self):
        fsm = compile_expression("A & m1 & m2", DECLS).fsm
        assert drive(fsm, ["A"], {"m1": True, "m2": True}) == [True]
        assert drive(fsm, ["A"], {"m1": True, "m2": False}) == [False]
        assert drive(fsm, ["A"], {"m1": False, "m2": True}) == [False]

    def test_masks_on_union_branches(self):
        fsm = compile_expression("(A & m1) || (B & m2)", DECLS).fsm
        assert drive(fsm, ["A"], {"m1": True}) == [True]
        assert drive(fsm, ["B"], {"m2": True}) == [True]
        assert drive(fsm, ["B"], {"m1": True, "m2": False}) == [False]

    def test_mask_evaluation_counts(self):
        fsm = compile_expression("A & m", DECLS).fsm
        calls = []

        def evaluate(name):
            calls.append(name)
            return False

        state = fsm.start
        fsm.advance(state, "A", evaluate)
        assert calls == ["m"]
        calls.clear()
        fsm.advance(state, "B", evaluate)  # no mask state entered
        assert calls == []

    def test_pseudo_self_loop_quiesces_at_fixpoint(self):
        # A mask state whose edge leads back to itself (a mask guarding a
        # nullable loop, e.g. `relative((*a) & m, b)`, restarts its own
        # obligation).  A mask has one value per instant, so re-checking
        # cannot change anything: the cascade must detect the revisit and
        # rest there instead of spinning.
        from repro.events.fsm import Fsm, FsmState

        looping = Fsm(
            [
                FsmState(0, False, ("m",), {"true:m": 0, "A": 0}),
            ],
            start=0,
            alphabet=frozenset({"A", "true:m", "false:m"}),
            anchored=False,
        )
        calls = []

        def evaluate(name):
            calls.append(name)
            return True

        result = looping.advance(0, "A", evaluate)
        assert result.state == 0
        assert calls == ["m"]  # evaluated once per instant, not per lap

    def test_mask_on_nullable_loop_quiesces(self):
        # End-to-end shape of the same bug: the compiled machine for
        # `relative((*A) & m, A)` carries the mask obligation on a state
        # whose false-edge restarts the obligation.
        fsm = compile_expression("relative((*A) & m, A)", DECLS).fsm
        state, _ = fsm.quiesce(fsm.start, lambda name: False)
        for symbol in ["A", "B", "A"]:
            result = fsm.advance(state, symbol, lambda name: False)
            assert result.consumed and not result.accepted
            state = result.state
        # with the mask true the match completes on the next A
        state, _ = fsm.quiesce(fsm.start, lambda name: True)
        assert fsm.advance(state, "A", lambda name: True).accepted


class TestMaskOnNullableLoopEndToEnd:
    """The same machine as a trigger: it activates and rests while *m* is
    false, then fires once *m* holds — in the interpreter, the generated
    closure and a local rule alike."""

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("engine", ["mm", "disk"])
    def test_persistent_trigger(self, db_path, engine, compiled):
        _LOOP_FIRED.clear()
        serving = contextlib.nullcontext() if compiled else interpreted_baseline()
        with serving, contextlib.closing(Database.open(db_path, engine=engine)) as db:
            with db.transaction():
                h = db.pnew(NullableLoopWatch)
                ptr = h.ptr
                h.Watch()
            with db.transaction():
                h = db.deref(ptr)
                for event in ["A", "B", "A"]:
                    h.post_event(event)
            assert _LOOP_FIRED == []
            with db.transaction():
                h = db.deref(ptr)
                h.armed = True
                h.post_event("A")
                h.post_event("A")
            assert _LOOP_FIRED == ["Watch"]
            assert (db.trigger_system.stats.compiled_hits > 0) == compiled

    def test_local_rule(self):
        _LOOP_FIRED.clear()
        system = LocalTriggerSystem()
        obj = LocalNullableLoopWatch()
        handle = system.monitor(obj)
        handle.Watch()
        for event in ["A", "B", "A"]:
            handle.post_event(event)
        assert _LOOP_FIRED == []
        obj.armed = True
        handle.post_event("A")
        handle.post_event("A")
        assert _LOOP_FIRED == ["Watch"]


class TestAcceptDuringCascade:
    def test_accept_state_with_overlapping_mask_obligation_still_fires(self):
        """Regression (found by the property-based oracle): in
        ``+((A & m), A)`` the accept state also awaits *m* for the
        overlapping next iteration; when *m* is false the cascade moves the
        machine off the accept state — but the completed match must fire.
        """
        fsm = compile_expression("+((A & m), A)", DECLS).fsm
        values = {"m": True}
        evaluate = lambda name: values[name]
        state = fsm.start
        state = fsm.advance(state, "A", evaluate).state  # m true: armed
        values["m"] = False  # next-iteration mask will fail...
        result = fsm.advance(state, "A", evaluate)
        assert result.accepted  # ...but the completed match still fires

    def test_accept_seen_mid_cascade_with_true_mask_fires_once(self):
        fsm = compile_expression("+((A & m), A)", DECLS).fsm
        evaluate = lambda name: True
        state = fsm.start
        state = fsm.advance(state, "A", evaluate).state
        result = fsm.advance(state, "A", evaluate)
        assert result.accepted  # fired exactly once for this posting


class TestMaskResolutionPreservesParallelBranches:
    """Regressions (found by the property-based oracle): resolving one
    mask's pseudo-event must not discard NFA configurations that have no
    stake in that mask — e.g. progress in a parallel ``Seq`` branch, or an
    obligation on a *different* mask."""

    def test_failed_mask_keeps_parallel_seq_progress(self):
        # +((A & m) || (A, A)): the first A both arms the masked branch and
        # starts the two-A sequence; a false mask on the second A must not
        # reset the sequence branch, which completes regardless of masks.
        fsm = compile_expression("+((A & m) || (A, A))", DECLS).fsm
        values = {"m": True}
        evaluate = lambda name: values[name]
        state = fsm.start
        state, _ = fsm.quiesce(state, evaluate)
        result = fsm.advance(state, "A", evaluate)
        assert result.accepted  # m true: masked branch fires
        values["m"] = False
        result = fsm.advance(result.state, "A", evaluate)
        assert result.accepted  # (A, A) completed; false mask is irrelevant

    def test_failed_mask_keeps_other_masks_obligation(self):
        # (A & m) || (A & m2): one posting arms both obligations; m false
        # must leave the m2 obligation standing so m2 alone can fire.
        fsm = compile_expression("(A & m) || (A & m2)", DECLS).fsm
        assert drive(fsm, ["A"], {"m": False, "m2": True}) == [True]
        assert drive(fsm, ["A"], {"m": True, "m2": False}) == [True]
        assert drive(fsm, ["A"], {"m": False, "m2": False}) == [False]

    def test_junction_dies_with_its_only_obligation(self):
        # (A & m), B: when m fails, the ε-junction between A and the mask
        # obligation must die with it — B alone must not complete a match.
        fsm = compile_expression("(A & m), B", DECLS).fsm
        assert drive(fsm, ["A", "B"], {"m": False}) == [False, False]
        assert drive(fsm, ["A", "B"], {"m": True}) == [False, True]


class TestQuiesceAtActivation:
    def test_start_state_mask_evaluated_on_quiesce(self):
        # (+A) & m: after each A run the mask guards acceptance; also the
        # start of `(*A) & m`-style expressions can carry obligations.
        fsm = compile_expression("(+A) & m", DECLS).fsm
        assert drive(fsm, ["A"], {"m": True}) == [True]
        assert drive(fsm, ["A"], {"m": False}) == [False]


class TestTransitionCounts:
    def test_transition_count_and_len(self):
        fsm = compile_expression("A, B", DECLS).fsm
        assert len(fsm) >= 3
        assert fsm.transition_count() == sum(
            len(s.transitions) for s in fsm.states
        )
