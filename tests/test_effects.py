"""Effect inference (``repro.analysis.effects``) and its consumers.

Covers the inference itself (AST walking, string actions, lambdas, tag
protocol, widening), the DFA helpers the termination/confluence passes
build on, the repo-wide sweep (inference must never crash on any trigger
shipped in workloads/ or examples/), a database's analysis, the
typed ``trigger_info`` errors, and the activation-order firing of a
ready set whose actions do not commute.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import (
    analyze_classes,
    analyze_database,
    infer_callable_effects,
    infer_trigger_effects,
)
from repro.analysis.effects import EffectSet
from repro.core.declarations import trigger
from repro.errors import SchemaError, UnknownTriggerError
from repro.events.compile import compile_expression
from repro.events.dfa import (
    acceptance_avoiding,
    acceptance_through,
    firing_symbols,
)
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from tests import analysis_fixtures as fx
from tests.test_analysis import _ExampleLoader

pytestmark = pytest.mark.analysis

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# inference over the paper's credit-card triggers
# ---------------------------------------------------------------------------


class TestCreditCardInference:
    @pytest.fixture(scope="class")
    def metatype(self):
        from repro.workloads.credit_card import CredCard

        return CredCard.__metatype__

    def test_deny_credit(self, metatype):
        info = metatype.trigger_by_name("DenyCredit")
        eff = infer_trigger_effects(info, metatype)
        assert eff.analyzed and not eff.unknown
        assert "black_mark" in eff.calls
        assert eff.aborts  # ctx.tabort
        # inlined black_mark body: black_marks = black_marks + [problem]
        assert "black_marks" in eff.writes
        assert "black_marks" in eff.reads

    def test_string_action_auto_raise_limit(self, metatype):
        info = metatype.trigger_by_name("AutoRaiseLimit")
        eff = infer_trigger_effects(info, metatype)
        assert eff.calls == {"raise_limit"}
        assert "cred_lim" in eff.writes
        assert "cred_lim" in eff.reads  # += reads before writing

    def test_string_action_auto_pay_down(self, metatype):
        info = metatype.trigger_by_name("AutoPayDown")
        eff = infer_trigger_effects(info, metatype)
        assert eff.calls == {"pay_bill"}
        assert "curr_bal" in eff.writes
        assert not eff.aborts


# ---------------------------------------------------------------------------
# inference mechanics on synthetic actions
# ---------------------------------------------------------------------------


class _Widget(Persistent):
    hits = field(int, default=0)
    notes = field(list, default=[])

    __events__ = ["after poke", "WidgetJolt"]
    __triggers__ = [
        trigger(
            "Note",
            "after poke",
            action=lambda self, ctx: self.post_event("WidgetJolt"),
            posts=("WidgetJolt",),
            perpetual=True,
        ),
    ]

    def poke(self) -> None:
        self.hits += 1


class TestInferenceMechanics:
    def test_lambda_action_from_declaration_line(self):
        metatype = _Widget.__metatype__
        eff = infer_trigger_effects(metatype.trigger_by_name("Note"), metatype)
        assert eff.analyzed
        assert eff.posts == {"WidgetJolt"}

    def test_mutator_method_counts_as_write(self):
        eff = infer_callable_effects(
            lambda self, ctx: self.notes.append("x"), _Widget
        )
        assert "notes" in eff.writes

    def test_bare_name_call_widens(self):
        eff = infer_callable_effects(lambda self, ctx: mystery(self))  # noqa: F821
        assert eff.unknown
        assert any("mystery" in reason for reason in eff.unknown_reasons)

    def test_non_literal_post_widens(self):
        def action(self, ctx):
            self.post_event(self.notes[0])

        eff = infer_callable_effects(action)
        assert eff.unknown
        assert eff.posts == frozenset()

    def test_evaled_lambda_is_unanalyzed(self):
        opaque = eval("lambda self, ctx: None")
        eff = infer_callable_effects(opaque)
        assert not eff.analyzed
        assert eff.unknown

    def test_raise_means_abort_without_widening(self):
        def action(self, ctx):
            raise ValueError(f"bad count {self.hits}")

        eff = infer_callable_effects(action)
        assert eff.aborts
        assert not eff.unknown
        assert "hits" in eff.reads

    def test_conflicts_is_symmetric_rw_overlap(self):
        a = EffectSet(reads=frozenset({"x"}), writes=frozenset({"y"}))
        b = EffectSet(reads=frozenset({"y"}), writes=frozenset({"z"}))
        assert a.conflicts(b) == {"y"}
        assert b.conflicts(a) == {"y"}
        assert a.conflicts(EffectSet(reads=frozenset({"x"}))) == frozenset()


# ---------------------------------------------------------------------------
# repo-wide sweep: inference must hold up on every shipped trigger
# ---------------------------------------------------------------------------


def _example_classes():
    """Persistent classes defined by workloads and examples/ scripts."""
    import repro.workloads.credit_card as credit_card
    import repro.workloads.trading as trading

    modules = [credit_card, trading]
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        # The lint tests' loader: one module per example in this process,
        # so its classes are registered once.
        modules.append(_ExampleLoader.load(path))
    classes = []
    for module in modules:
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Persistent)
                and value is not Persistent
                and value.__metatype__.all_trigger_infos
            ):
                classes.append(value)
    return classes


class TestRepoWideSweep:
    def test_inference_covers_every_shipped_trigger(self):
        covered = 0
        for cls in _example_classes():
            metatype = cls.__metatype__
            for info in metatype.all_trigger_infos:
                eff = infer_trigger_effects(info, metatype)  # must not raise
                assert eff.analyzed, (metatype.name, info.name)
                # declared posts= is a subset of what inference sees: the
                # metadata pass (ODE203) keeps the declarations honest.
                assert set(info.posts) <= eff.posts, (metatype.name, info.name)
                covered += 1
        assert covered >= 5  # the sweep actually found the shipped triggers


# ---------------------------------------------------------------------------
# DFA helpers used by the termination/confluence passes
# ---------------------------------------------------------------------------


class TestDfaHelpers:
    def test_acceptance_avoiding_mask_guards(self):
        guarded = compile_expression("A & m", ["A", "B"]).fsm
        assert not acceptance_avoiding(guarded, {"true:m"})
        plain = compile_expression("A", ["A", "B"]).fsm
        assert acceptance_avoiding(plain, {"true:m"})
        escape = compile_expression("(A & m) || B", ["A", "B"]).fsm
        assert acceptance_avoiding(escape, {"true:m"})

    def test_acceptance_through_anchored(self):
        fsm = compile_expression("A, B", ["A", "B", "C"], anchored=True).fsm
        assert acceptance_through(fsm, "A")
        assert acceptance_through(fsm, "B")
        assert not acceptance_through(fsm, "C")

    def test_acceptance_through_ignores_foreign_symbols(self):
        fsm = compile_expression("A, B", ["A", "B", "C"]).fsm
        assert acceptance_through(fsm, "B")
        assert not acceptance_through(fsm, "D")  # not in the alphabet

    def test_firing_symbols_sequence_fires_on_last(self):
        fsm = compile_expression("A, B", ["A", "B", "C"]).fsm
        assert firing_symbols(fsm) == {"B"}

    def test_firing_symbols_union_fires_on_either(self):
        fsm = compile_expression("A || B", ["A", "B", "C"]).fsm
        assert firing_symbols(fsm) == {"A", "B"}

    def test_firing_symbols_attributes_masked_accept_to_consumer(self):
        fsm = compile_expression(
            "relative((A & m), B)", ["A", "B", "C"]
        ).fsm
        assert firing_symbols(fsm) == {"B"}


# ---------------------------------------------------------------------------
# a database's analysis: declaration passes, then the persistent states
# ---------------------------------------------------------------------------


class TestCheckTriggers:
    def test_reports_cascade_findings_for_targets(self, disk_db):
        report = analyze_classes([fx.BadImmediateCascade])
        report.extend(analyze_database(disk_db).diagnostics)
        assert "ODE030" in report.codes()


# ---------------------------------------------------------------------------
# typed trigger_info errors
# ---------------------------------------------------------------------------


class TestUnknownTriggerError:
    def test_negative_index_raises_instead_of_wrapping(self):
        metatype = _Widget.__metatype__
        with pytest.raises(UnknownTriggerError) as err:
            metatype.trigger_info(-1)
        assert "_Widget" in str(err.value)

    def test_out_of_range_names_the_class_and_count(self):
        metatype = _Widget.__metatype__
        with pytest.raises(UnknownTriggerError) as err:
            metatype.trigger_info(99)
        assert "99" in str(err.value)

    def test_unknown_name(self):
        with pytest.raises(UnknownTriggerError):
            _Widget.__metatype__.trigger_by_name("NoSuchTrigger")

    def test_is_a_schema_error_for_legacy_callers(self):
        assert issubclass(UnknownTriggerError, SchemaError)


# ---------------------------------------------------------------------------
# firing order of a racy ready set
# ---------------------------------------------------------------------------


def _racy_add(self, ctx) -> None:
    self.total = self.total + 5


def _racy_clamp(self, ctx) -> None:
    self.total = min(self.total, 3)


class _RacyCounter(Persistent):
    total = field(int, default=0)

    __events__ = ["after bump"]
    __triggers__ = [
        trigger(
            "AddFive",
            "after bump",
            action=_racy_add,
            perpetual=True,
            suppress=("ODE202",),
        ),
        trigger(
            "ClampLow",
            "after bump",
            action=_racy_clamp,
            perpetual=True,
        ),
    ]

    def bump(self) -> None:
        pass


def test_racy_ready_set_fires_in_activation_order(disk_db):
    """AddFive and ClampLow do not commute (ODE202, suppressed here); the
    engine fires them in activation order: 0 + 5, then clamped to 3."""
    db = disk_db
    with db.transaction():
        counter = db.pnew(_RacyCounter)
        ptr = counter.ptr
        counter.AddFive()
        counter.ClampLow()
        counter.bump()
    with db.transaction():
        assert db.deref(ptr).total == 3
