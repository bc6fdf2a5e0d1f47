"""E14 — static analysis cost vs trigger count.

The ODE2xx passes (effect inference, termination, confluence, metadata)
run over declarations — the lint CLI, or ``analyze_registry`` on a
schema load — so their cost must stay proportional to the schema, not
the data.  We synthesize
schemas of growing trigger count and measure the full ``analyze_classes``
pipeline against effect inference alone.

Expected shape: cost grows roughly linearly in the trigger count (the
confluence pass is quadratic per class, but class size is bounded in
practice), and a full analysis of dozens of triggers stays in the
single-digit-millisecond range — cheap enough to run on every schema
load.
"""

import pytest

from repro.analysis import analyze_classes, infer_trigger_effects
from repro.core.declarations import trigger
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import emit_table, time_per_op

TRIGGERS_PER_CLASS = 4

_RESULTS: list[list[str]] = []


def _action_a(self, ctx):
    self.a_count = self.a_count + 1


def _action_b(self, ctx):
    self.b_log = self.b_log + [self.a_count]


def _action_c(self, ctx):
    if self.a_count > 10:
        ctx.tabort("overflow")


def _action_d(self, ctx):
    self.d_total = self.d_total + self.a_count


_ACTIONS = [_action_a, _action_b, _action_c, _action_d]


def _make_classes(count: int, tag: str) -> list[type]:
    """*count* persistent classes, each with TRIGGERS_PER_CLASS triggers."""
    classes = []
    for i in range(count):
        events = [f"Ev{tag}{i}_{j}" for j in range(TRIGGERS_PER_CLASS)]
        triggers = [
            trigger(
                f"T{j}",
                events[j],
                action=_ACTIONS[j % len(_ACTIONS)],
                perpetual=True,
            )
            for j in range(TRIGGERS_PER_CLASS)
        ]
        classes.append(
            type(
                f"BenchE14{tag}{i}",
                (Persistent,),
                {
                    "a_count": field(int, default=0),
                    "b_log": field(list, default=[]),
                    "d_total": field(int, default=0),
                    "__events__": events,
                    "__triggers__": triggers,
                },
            )
        )
    return classes


@pytest.mark.parametrize("n_classes", [1, 4, 16])
def test_analysis_cost(benchmark, n_classes):
    classes = _make_classes(n_classes, f"n{n_classes}")
    n_triggers = n_classes * TRIGGERS_PER_CLASS

    full_us = time_per_op(lambda: analyze_classes(classes), 1, repeats=5)

    infos = [
        (cls.__metatype__, info)
        for cls in classes
        for info in cls.__metatype__.all_trigger_infos
    ]

    def infer_all():
        for metatype, info in infos:
            infer_trigger_effects(info, metatype)

    infer_us = time_per_op(infer_all, 1, repeats=5)
    benchmark.pedantic(lambda: analyze_classes(classes), rounds=2, iterations=1)

    report = analyze_classes(classes)
    assert report.codes() == set()  # the synthetic schema is clean

    _RESULTS.append(
        [
            n_triggers,
            f"{full_us / 1000:8.3f}",
            f"{infer_us / 1000:8.3f}",
            f"{full_us / n_triggers:8.1f}",
        ]
    )


def teardown_module(module):
    emit_table(
        "E14",
        "static trigger analysis cost vs schema size",
        ["triggers", "full analysis ms", "effect inference ms", "us/trigger"],
        _RESULTS,
        notes=(
            "Full pipeline = masks + subsumption + cascade/termination + "
            "confluence + metadata over inferred effects.  Cost scales with "
            "the declaration count, so running the analyzer on every schema "
            "load (analyze_registry) is affordable."
        ),
    )
