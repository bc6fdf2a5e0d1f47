"""E10 — posting cost vs active-trigger fan-out and mask cascades.

Section 5.4.5: PostEvent advances *every* active trigger on the object
(the index maps an object to all its triggers), and a single posting may
generate several pseudo-events "before the system quiesces".  This bench
sweeps both dimensions:

* fan-out: 1..32 active triggers on one object,
* cascade depth: chained masks ``e & m1 & ... & mk``.

Expected shape: cost linear in the number of active triggers (each is a
state read + FSM advance + possible write) and linear in the mask chain
length (one pseudo-event per mask).

The engine always serves from the compiled tier; the "interp" columns
are a bench-only baseline (``interpreted_baseline``: the tier generates
no group function, so ``posting.interpreted`` serves every posting).
"""

import pytest

from repro.core.declarations import trigger
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import emit_table, interpreted_baseline, ratio, us, time_per_op

EVENTS = 300

_FANOUT: list[list[str]] = []
_MASKS: list[list[str]] = []


class FanTarget(Persistent):
    n = field(int, default=0)
    __events__ = ["Tick"]
    __triggers__ = [
        trigger("Watch", "Tick", action=lambda s, c: None, perpetual=True)
    ]


def _mask_class(depth):
    masks = {f"m{i}": (lambda self: True) for i in range(depth)}
    expression = "Tick & " + " & ".join(f"m{i}" for i in range(depth))
    return type(
        f"MaskDepth{depth}",
        (Persistent,),
        {
            "__events__": ["Tick"],
            "__masks__": masks,
            "__triggers__": [
                trigger(
                    "Deep", expression, action=lambda s, c: None, perpetual=True
                )
            ],
        },
    )


@pytest.mark.parametrize("fanout", [1, 8, 32])
def test_posting_vs_fanout(benchmark, tmp_path, fanout):
    db = Database.open(str(tmp_path / f"e10-f{fanout}"), engine="mm")
    try:
        with db.transaction():
            handle = db.pnew(FanTarget)
            ptr = handle.ptr
            for _ in range(fanout):
                handle.Watch()

        def post_all():
            with db.transaction():
                h = db.deref(ptr)
                for _ in range(EVENTS):
                    h.post_event("Tick")

        def measure():
            db.trigger_system.stats.reset()
            return time_per_op(post_all, EVENTS, repeats=2)

        with interpreted_baseline():
            interp = measure()
        compiled = measure()
        benchmark.pedantic(post_all, rounds=1, iterations=1)
        stats = db.trigger_system.stats
        _FANOUT.append(
            [
                fanout,
                us(interp),
                us(compiled),
                ratio(interp, compiled),
                stats.fsm_advances,
                stats.firings,
            ]
        )
    finally:
        db.close()


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_posting_vs_mask_depth(benchmark, tmp_path, depth):
    cls = _mask_class(depth)
    db = Database.open(str(tmp_path / f"e10-m{depth}"), engine="mm")
    try:
        with db.transaction():
            handle = db.pnew(cls)
            ptr = handle.ptr
            handle.Deep()

        def post_all():
            with db.transaction():
                h = db.deref(ptr)
                for _ in range(EVENTS):
                    h.post_event("Tick")

        def measure():
            db.trigger_system.stats.reset()
            return time_per_op(post_all, EVENTS, repeats=2)

        with interpreted_baseline():
            interp = measure()
        compiled = measure()
        benchmark.pedantic(post_all, rounds=1, iterations=1)
        stats = db.trigger_system.stats
        masks_per_event = stats.masks_evaluated_posting / max(stats.events_posted, 1)
        _MASKS.append(
            [
                depth,
                us(interp),
                us(compiled),
                ratio(interp, compiled),
                f"{masks_per_event:.1f}",
            ]
        )
        # One pseudo-event per chained mask (the Section 5.4.5 cascade);
        # the compiled tier pins constant-outcome masks but still counts
        # the steps, so the figure is mode-independent.
        assert masks_per_event == pytest.approx(depth, rel=0.01)
    finally:
        db.close()


def teardown_module(module):
    emit_table(
        "E10a",
        f"posting cost vs active triggers on one object ({EVENTS} events)",
        [
            "active triggers",
            "us/event interp",
            "us/event compiled",
            "speedup",
            "fsm advances",
            "firings",
        ],
        _FANOUT,
        notes=(
            "compiled = ODE4xx-gated generated-code tier (DESIGN.md §14); "
            "interp = the bench-only interpreted baseline (every advance a "
            "counted fallback)."
        ),
    )
    emit_table(
        "E10b",
        "posting cost vs chained-mask cascade depth",
        [
            "mask chain",
            "us/event interp",
            "us/event compiled",
            "speedup",
            "masks evaluated/event",
        ],
        _MASKS,
        notes="Each chained mask adds one pseudo-event before quiescence.",
    )
