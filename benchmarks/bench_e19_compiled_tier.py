"""E10 and E19 — posting cost vs fan-out and mask cascades, and the
generated-code tier against the interpreter.

Section 5.4.5: PostEvent advances *every* active trigger on the object
(the index maps an object to all its triggers), and a single posting may
generate several pseudo-events "before the system quiesces".  E10 sweeps
both dimensions on the engine as it serves (always from the compiled
tier):

* **E10a** — fan-out: 1/8/32 always-firing triggers on one object.
  Expected shape: cost linear in the number of active triggers (each is
  an FSM advance and a firing).
* **E10b** — cascade depth: chained masks ``Tick & m1 & ... & mk``,
  k = 1/4/8/16.  Expected shape: one pseudo-event, so one mask
  evaluation, per chained mask.  The generated code has one branch per
  state the machine rests in and per posted event, so a chain adds a
  constant number of decision-tree nodes per mask and every depth is
  compiled (no fallback).

E19 compares the compile tier (DESIGN.md §14) with the interpreter.  The
tier replaces the posting kernel's per-machine interpretation — a fresh
mask-evaluation closure, the linear transition search, one pseudo-event
hop per mask — with one call of a cached generated function per group
per posting, every trigger machine's cascade (within the unroll budget)
inlined in it.  The decoded state and the registry
resolution are cached per transaction by the state store for *both*
modes (they used to be the tier's alone, which is why this table once
read 6.65x), so what is measured here is code generation by itself.  The
interpreted column is a bench-only baseline (``interpreted_baseline``:
``plan_unroll`` refuses every kind, so every entry of the generated
group function is one interpreter step, each advance a counted
fallback).  Two workloads:

* **mask-gated** at fan-out 1/8/32 — every trigger is ``Tick & armed``
  with the mask false throughout, so no trigger ever fires.  This is the
  monitoring steady state (program-trading watchlists, fraud thresholds:
  thousands of postings per firing) and the tier's headline case: the
  interpreted cost is pure per-machine dispatch the generated code
  elides.  The acceptance gate lives here: **>= 1.5x at fan-out 32**.
* **always-firing** at fan-out 32 — E10a's workload, every advance
  fires.  The firing path (action dispatch, write-back, firing records)
  is shared by both modes, so the speedup is honestly modest; the row
  keeps the headline from overclaiming.
"""

import pytest

from repro.core.declarations import trigger
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import emit_table, interpreted_baseline, ratio, us, time_per_op

EVENTS = 300

_FANOUT: list[list[object]] = []
_MASKS: list[list[object]] = []
_ROWS: list[list[object]] = []
_GATED_SPEEDUPS: dict[int, float] = {}


class GateTarget(Persistent):
    """Mask-gated watcher: advances on every Tick, fires only when armed."""

    n = field(int, default=0)
    __events__ = ["Tick"]
    __masks__ = {"armed": lambda self: self.n > 0}
    __triggers__ = [
        trigger("Gate", "Tick & armed", action=lambda s, c: None, perpetual=True)
    ]


class FireTarget(Persistent):
    """Always-firing watcher: the shared firing path dominates."""

    __events__ = ["Tick"]
    __triggers__ = [
        trigger("Always", "Tick", action=lambda s, c: None, perpetual=True)
    ]


def mask_class(depth):
    """A class whose one trigger ``Deep`` is ``Tick & m0 & ... &
    m{depth-1}``, every mask always true."""
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


def _open(tmp_path, label, cls, activate, count):
    """An mm database holding one *cls* object with *count* triggers
    activated by *activate(handle)*; returns ``(db, ptr)``."""
    db = Database.open(str(tmp_path / label), engine="mm")
    with db.transaction():
        handle = db.pnew(cls)
        for _ in range(count):
            activate(handle)
    return db, handle.ptr


def _measure(db, ptr):
    """Best-of-3 us/event of one transaction posting EVENTS Ticks; the
    trigger system's counters then hold what the three runs did."""

    def post_all():
        with db.transaction():
            h = db.deref(ptr)
            for _ in range(EVENTS):
                h.post_event("Tick")

    db.trigger_system.stats.reset()
    return time_per_op(post_all, EVENTS, repeats=3)


@pytest.mark.parametrize("fanout", [1, 8, 32])
def test_mask_gated_fanout(benchmark, tmp_path, fanout):
    db, ptr = _open(tmp_path, f"e19-g{fanout}", GateTarget, lambda h: h.Gate(), fanout)
    try:
        with interpreted_baseline():
            interp = _measure(db, ptr)
        compiled = _measure(db, ptr)
        stats = db.trigger_system.stats
        assert stats.compiled_fallbacks == 0  # Gate is generated code
        assert stats.firings == 0  # the mask really gated everything
        _GATED_SPEEDUPS[fanout] = interp / compiled
        _ROWS.append(
            ["mask-gated", fanout, us(interp), us(compiled), ratio(interp, compiled)]
        )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        db.close()


@pytest.mark.parametrize("fanout", [1, 8, 32])
def test_always_firing_fanout(benchmark, tmp_path, fanout):
    db, ptr = _open(tmp_path, f"e19-f{fanout}", FireTarget, lambda h: h.Always(), fanout)
    try:
        if fanout == 32:
            with interpreted_baseline():
                interp = _measure(db, ptr)
        compiled = _measure(db, ptr)
        stats = db.trigger_system.stats
        assert stats.compiled_fallbacks == 0
        assert stats.firings > 0
        _FANOUT.append([fanout, us(compiled), stats.fsm_advances, stats.firings])
        if fanout == 32:
            _ROWS.append(
                ["always-firing", fanout, us(interp), us(compiled), ratio(interp, compiled)]
            )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        db.close()


@pytest.mark.parametrize("depth", [1, 4, 8, 16])
def test_posting_vs_mask_depth(benchmark, tmp_path, depth):
    db, ptr = _open(tmp_path, f"e10-m{depth}", mask_class(depth), lambda h: h.Deep(), 1)
    try:
        cost = _measure(db, ptr)
        stats = db.trigger_system.stats
        masks_per_event = stats.masks_evaluated_posting / max(stats.events_posted, 1)
        assert stats.compiled_fallbacks == 0  # every depth is within ODE402
        _MASKS.append([depth, us(cost), f"{masks_per_event:.1f}"])
        # One pseudo-event per chained mask (the Section 5.4.5 cascade);
        # the compiled tier pins constant-outcome masks but still counts
        # the steps.
        assert masks_per_event == depth
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    finally:
        db.close()


def test_acceptance_speedup_at_dense_fanout():
    """The gate: >= 1.5x on mask-gated posting at fan-out 32."""
    assert _GATED_SPEEDUPS.get(32, 0.0) >= 1.5, _GATED_SPEEDUPS


def teardown_module(module):
    emit_table(
        "E10a",
        f"posting cost vs active triggers on one object ({EVENTS} events)",
        ["active triggers", "us/event", "fsm advances", "firings"],
        _FANOUT,
        notes=(
            "Every trigger is an always-firing Tick watcher; the counts "
            "are over the three measured runs.  The compiled tier serves "
            "(DESIGN.md §14); E19 compares it with the interpreter."
        ),
    )
    emit_table(
        "E10b",
        "posting cost vs chained-mask cascade depth",
        ["mask chain", "us/event", "masks evaluated/event"],
        _MASKS,
        notes=(
            "Each chained mask adds one pseudo-event before quiescence.  "
            "Every row is served by generated code (no fallback): it "
            "branches only on the states a posting can leave the machine "
            "in and the events a posting can carry, so a chain of k masks "
            "unrolls to 4k + 2 nodes, far inside the 256-node budget."
        ),
    )
    emit_table(
        "E19",
        f"compiled posting tier vs interpreter ({EVENTS} events, one object)",
        ["workload", "active triggers", "us/event interp", "us/event compiled", "speedup"],
        _ROWS,
        notes=(
            "mask-gated = monitoring steady state (no firings): the tier "
            "elides the interpreter's per-machine dispatch (both modes share "
            "the per-transaction state cache).  always-firing shares "
            "the firing path with the interpreter, so its ratio is the "
            "honest lower bound.  interp = the bench-only interpreted "
            "baseline (every advance a counted fallback)."
        ),
    )
