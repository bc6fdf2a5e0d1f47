"""Baseline-detector tests and three-way equivalence properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DenseFsm,
    EventGraphDetector,
    IntEventTable,
    RescanDetector,
    SentinelEventTable,
)
from repro.core.registry import EventRegistry
from repro.core.trigger_def import build_int_fsm
from repro.errors import EventError
from repro.events.compile import compile_expression
from repro.events.parser import parse

DECLS = ["A", "B", "C"]


class TestSentinelTables:
    def test_int_table_delivers(self):
        table = IntEventTable()
        hits = []
        table.subscribe(7, lambda: hits.append(1))
        table.subscribe(7, lambda: hits.append(2))
        assert table.post(7) == 2
        assert hits == [1, 2]
        assert table.post(8) == 0

    def test_sentinel_table_delivers(self):
        table = SentinelEventTable()
        hits = []
        table.subscribe("CredCard", "void PayBill(float)", "end", lambda: hits.append(1))
        assert table.post("CredCard", "void PayBill(float)", "end") == 1
        assert table.post("CredCard", "void PayBill(float)", "begin") == 0
        assert hits == [1]

    def test_tables_count_posts(self):
        int_table, sent_table = IntEventTable(), SentinelEventTable()
        int_table.post(1)
        sent_table.post("C", "p", "end")
        assert int_table.posts == sent_table.posts == 1


class TestRescan:
    def test_simple_sequence(self):
        expr, _ = parse("A, B")
        detector = RescanDetector(expr)
        assert [detector.post(s) for s in ["A", "B", "B"]] == [False, True, False]

    def test_anchored(self):
        expr, _ = parse("A, B")
        detector = RescanDetector(expr, anchored=True)
        assert [detector.post(s) for s in ["C", "A", "B"]] == [False, False, False]

    def test_masks_recorded_at_post_time(self):
        expr, _ = parse("A & hot")
        detector = RescanDetector(expr)
        assert detector.post("A", {"hot": False}) is False
        assert detector.post("A", {"hot": True}) is True

    def test_scan_cost_grows_with_history(self):
        expr, _ = parse("A, B")
        detector = RescanDetector(expr)
        for _ in range(50):
            detector.post("C")
        early = detector.positions_visited
        for _ in range(50):
            detector.post("C")
        late = detector.positions_visited - early
        assert late > early  # superlinear accumulation

    def test_reset(self):
        expr, _ = parse("A")
        detector = RescanDetector(expr)
        detector.post("A")
        detector.reset()
        assert detector.history == []


class TestEventGraph:
    def test_simple_sequence(self):
        expr, _ = parse("A, B")
        graph = EventGraphDetector(expr)
        assert [graph.post(s) for s in ["A", "B", "B"]] == [False, True, False]

    def test_rejects_masks(self):
        expr, _ = parse("A & m")
        with pytest.raises(EventError):
            EventGraphDetector(expr)

    def test_partial_state_accumulates(self):
        expr, _ = parse("A, B")
        graph = EventGraphDetector(expr)
        for _ in range(20):
            graph.post("A")  # left completions pile up
        assert graph.partial_state_size() >= 20

    def test_reset_clears_state(self):
        expr, _ = parse("A, B")
        graph = EventGraphDetector(expr)
        graph.post("A")
        graph.reset()
        assert graph.partial_state_size() == 0
        assert graph.post("B") is False


class TestDenseFsm:
    def _int_fsm(self, text):
        cm = compile_expression(text, DECLS)
        registry = EventRegistry()
        event_ints = {s: registry.assign("T", s) for s in cm.event_symbols}
        return build_int_fsm(cm, event_ints, registry, "T"), registry

    def test_dense_matches_sparse_moves(self):
        """Same move on every state and event integer, anchored or not —
        including an event outside the alphabet, which both ignore, and
        integers beyond the dense array's width."""
        for text in ("A, B", "^(A, B)"):
            fsm, registry = self._int_fsm(text)
            unrelated = registry.assign("U", "Unrelated")
            dense = DenseFsm(fsm, len(registry))
            assert fsm.move(fsm.start, unrelated) == (fsm.start, False)
            for state in range(len(fsm)):
                for eventnum in range(len(registry) + 3):
                    assert dense.move(state, eventnum) == fsm.move(state, eventnum)

    def test_dense_cells_scale_with_global_events(self):
        fsm, registry = self._int_fsm("A, B")
        small = DenseFsm(fsm, len(registry))
        huge = DenseFsm(fsm, 4096)
        assert huge.cells() > small.cells() * 100
        assert huge.used_cells() == small.used_cells()
        assert huge.occupancy() < small.occupancy()

    def test_dense_approx_bytes(self):
        fsm, registry = self._int_fsm("A")
        dense = DenseFsm(fsm, len(registry))
        assert dense.approx_bytes() == dense.cells() * 8


_EXPRS = st.sampled_from(
    [
        "A",
        "A, B",
        "A || B",
        "A, B, C",
        "(A || B), C",
        "A, *B, C",
        "+A, B",
        "(A, B) || (B, C)",
        "A, *(B || C), A",
    ]
)
_STREAMS = st.lists(st.sampled_from(DECLS), max_size=50)


@settings(max_examples=120, deadline=None)
@given(text=_EXPRS, stream=_STREAMS)
def test_three_detectors_agree(text, stream):
    """FSM, rescan, and event-graph detect identical occurrences."""
    cm = compile_expression(text, DECLS)
    expr, _ = parse(text)
    rescan = RescanDetector(expr)
    graph = EventGraphDetector(expr)
    state = cm.fsm.start
    for symbol in stream:
        result = cm.fsm.advance(state, symbol, lambda m: False)
        state = result.state
        assert result.accepted == rescan.post(symbol) == graph.post(symbol)
