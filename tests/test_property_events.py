"""Property-based tests over *randomly generated* event expressions.

The sampled-expression tests elsewhere check a fixed family; here
hypothesis builds arbitrary ASTs (sequences, unions, stars, plus, masks,
relative) and verifies:

* the compiled FSM, and the run-time machine re-keyed by event integers,
  agree with the naive rescanning oracle on random streams (with
  random-but-recorded mask outcomes);
* minimization preserves behaviour and never grows the machine;
* unparse∘parse is the identity on the AST;
* anchored machines accept a strict subset of unanchored ones.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.rescan import RescanDetector
from repro.core.registry import EventRegistry
from repro.core.trigger_def import build_int_fsm
from repro.events.ast import (
    BasicEvent,
    EventExpr,
    Masked,
    Plus,
    Relative,
    Seq,
    Star,
    Union,
)
from repro.events.compile import compile_expression
from repro.events.parser import parse

SYMBOLS = ["A", "B", "C"]
MASKS = ["m1", "m2"]


def _leaf():
    return st.sampled_from([BasicEvent("user", s) for s in SYMBOLS])


def _expr(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda p: Seq(tuple(p))),
        st.lists(children, min_size=2, max_size=3).map(lambda p: Union(tuple(p))),
        children.map(Star),
        children.map(Plus),
        st.tuples(children, st.sampled_from(MASKS)).map(lambda t: Masked(*t)),
        st.tuples(children, children).map(lambda t: Relative(*t)),
    )


EXPRS = st.recursive(_leaf(), _expr, max_leaves=6)
STREAMS = st.lists(st.sampled_from(SYMBOLS), max_size=30)
MASK_SEEDS = st.integers(0, 2**16)


def _non_nullable(expr: EventExpr) -> bool:
    return not expr.nullable()


class _RecordedMasks:
    """Random mask outcomes, recorded so the oracle can replay them."""

    def __init__(self, seed: int):
        import random

        self.rng = random.Random(seed)
        self.current: dict[str, bool] = {}

    def fresh(self) -> dict[str, bool]:
        self.current = {m: self.rng.random() < 0.5 for m in MASKS}
        return dict(self.current)

    def evaluate(self, name: str) -> bool:
        return self.current[name]


def _run_time_machine(compiled):
    """The integer-keyed machine the engine builds from *compiled*, and
    the map from stream symbols to its event integers."""
    registry = EventRegistry()
    event_ints = {symbol: registry.assign("T", symbol) for symbol in SYMBOLS}
    return build_int_fsm(compiled, event_ints, registry, "T"), event_ints


#: ``(*A) & m1, B`` puts the start state under ``m1``, whose false edge
#: restarts the same obligation: a cascade that must stop at its fixpoint.
_NULLABLE_LOOP_MASK = Seq(
    (Masked(Star(BasicEvent("user", "A")), "m1"), BasicEvent("user", "B"))
)


@pytest.mark.parametrize("machine", ["symbols", "event-ints"])
@settings(max_examples=200, deadline=None)
@given(expr=EXPRS.filter(_non_nullable), stream=STREAMS, seed=MASK_SEEDS)
@example(expr=_NULLABLE_LOOP_MASK, stream=["A", "B", "A", "B"], seed=0)
def test_fsm_agrees_with_rescan_oracle(machine, expr, stream, seed):
    """Both the symbol-keyed machine and the run-time machine built from
    it agree with the oracle (seed 0 makes ``m1`` false at activation)."""
    compiled = compile_expression(expr, SYMBOLS)
    fsm, event_of = compiled.fsm, {symbol: symbol for symbol in SYMBOLS}
    if machine == "event-ints":
        fsm, event_of = _run_time_machine(compiled)
    masks = _RecordedMasks(seed)
    state = fsm.start
    # Quiesce once for expressions with start-state obligations; the
    # oracle gets the same activation-time snapshot.
    activation = masks.fresh()
    oracle = RescanDetector(expr, activation_masks=activation)
    state, _ = fsm.quiesce(state, masks.evaluate)
    for symbol in stream:
        outcomes = masks.fresh()
        result = fsm.advance(state, event_of[symbol], masks.evaluate)
        state = result.state
        oracle_hit = oracle.post(symbol, outcomes)
        assert result.accepted == oracle_hit, (
            expr.unparse(),
            stream,
            symbol,
            outcomes,
        )


@settings(max_examples=150, deadline=None)
@given(expr=EXPRS.filter(_non_nullable), stream=STREAMS, seed=MASK_SEEDS)
def test_minimization_preserves_behaviour(expr, stream, seed):
    small = compile_expression(expr, SYMBOLS, minimize=True)
    big = compile_expression(expr, SYMBOLS, minimize=False)
    assert len(small.fsm) <= len(big.fsm)
    masks_a, masks_b = _RecordedMasks(seed), _RecordedMasks(seed)
    state_a, state_b = small.fsm.start, big.fsm.start
    masks_a.fresh()
    masks_b.fresh()
    state_a, _ = small.fsm.quiesce(state_a, masks_a.evaluate)
    state_b, _ = big.fsm.quiesce(state_b, masks_b.evaluate)
    for symbol in stream:
        masks_a.fresh()
        masks_b.current = dict(masks_a.current)
        result_a = small.fsm.advance(state_a, symbol, masks_a.evaluate)
        result_b = big.fsm.advance(state_b, symbol, masks_b.evaluate)
        assert result_a.accepted == result_b.accepted
        state_a, state_b = result_a.state, result_b.state


@settings(max_examples=200, deadline=None)
@given(expr=EXPRS)
def test_unparse_parse_roundtrip(expr):
    text = expr.unparse()
    reparsed, anchored = parse(text)
    assert not anchored
    assert reparsed == expr


@settings(max_examples=100, deadline=None)
@given(expr=EXPRS.filter(_non_nullable), stream=STREAMS)
def test_anchored_accepts_subset_of_unanchored(expr, stream):
    """Every anchored match is also an unanchored match (never vice versa
    being required)."""
    unanchored = compile_expression(expr, SYMBOLS)
    anchored = compile_expression(expr, SYMBOLS, anchored=True)
    state_u, state_a = unanchored.fsm.start, anchored.fsm.start
    evaluate = lambda name: True
    state_u, _ = unanchored.fsm.quiesce(state_u, evaluate)
    state_a, _ = anchored.fsm.quiesce(state_a, evaluate)
    for symbol in stream:
        result_u = unanchored.fsm.advance(state_u, symbol, evaluate)
        result_a = anchored.fsm.advance(state_a, symbol, evaluate)
        if result_a.accepted:
            assert result_u.accepted
        state_u, state_a = result_u.state, result_a.state


@settings(max_examples=100, deadline=None)
@given(expr=EXPRS.filter(_non_nullable), stream=STREAMS)
def test_machine_is_total_over_declared_events(expr, stream):
    """Unanchored machines never get stuck: every declared symbol is
    either consumed or explicitly ignored, and state numbers stay valid."""
    compiled = compile_expression(expr, SYMBOLS)
    state = compiled.fsm.start
    evaluate = lambda name: False
    state, _ = compiled.fsm.quiesce(state, evaluate)
    for symbol in stream:
        result = compiled.fsm.advance(state, symbol, evaluate)
        assert 0 <= result.state < len(compiled.fsm)
        assert result.consumed  # unanchored machines are complete
        state = result.state
