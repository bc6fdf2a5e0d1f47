"""The generated-code posting fast path and its ODE4xx gate (DESIGN.md §14).

Three families:

* **Differential**: hypothesis-generated event scripts replayed through
  every state store ({2pl, mvcc} persistent plus local rules), served by
  the compiled tier and by the interpreted reference
  (:func:`interpreted_reference`), posting one event at a time and in
  batches,
  must produce identical firing orders, ``statenum`` trajectories and
  posting stats — one posting kernel, so one property rather than one
  per pair of modes.
* **Invalidation**: any trigger add/remove/strict-mode flip bumps the
  schema version and evicts the tier's verdicts and group functions; a
  redefined class must never fire a stale action — including
  mid-transaction.
* **Judgments**: each ODE400–ODE404 refusal has a fixture, falls back
  cleanly, and `CompiledTier.explain` names the reason.
"""

import contextlib
import dataclasses
import itertools
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.compilable import classify_trigger
from repro.core import compiled
from repro.core.compiled import (
    CompiledTier,
    PlanError,
    bump_schema_version,
    generate_group_advance,
    global_compiled_tier,
    last_bump_reason,
    schema_version,
)
from repro.core.constraints import CONSTRAINT_PREFIX
from repro.core.declarations import set_strict_analysis, trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.posting import PostingStats, interpreted
from repro.core.trigger_def import IntFsm
from repro.events.fsm import DEAD, Fsm, FsmState
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field


def _refuse(infos, proofs=None):
    raise PlanError("interpreted reference: no generated code")


@contextlib.contextmanager
def interpreted_reference():
    """The interpreted reference: inside, the compile tier generates no
    group function (``generate_group_advance`` refuses every group), so
    :func:`repro.core.posting.interpreted` serves every posting (each
    advance a counted fallback).  The tier's memo outlives any database,
    so the schema version is bumped on the way in and on the way out: a
    function memoized outside does not serve inside, nor one memoized
    inside after."""
    bump_schema_version("interpreted reference: in")
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compiled, "generate_group_advance", _refuse)
            yield
    finally:
        bump_schema_version("interpreted reference: out")


def _is_interpreted(function) -> bool:
    """Whether *function* is :func:`repro.core.posting.interpreted`'s."""
    return function.__code__ is interpreted(()).__code__


# Firing log shared by the fixture actions; cleared per replay.
_FIRED: list[str] = []
# Side channel observed by the deliberately impure mask.
_PROBES: list[int] = []


def _gadget_declarations():
    """Differential fixture: sequences, pure masks of every arity, params,
    once-only, deferred coupling, one deliberately non-compilable trigger,
    and a constraint (whose mask the tier does not compile either)."""
    return {
        "__events__": ["Tick", "Tock", "Bump"],
        "__masks__": {
            "hot": lambda self: self.n > 3,
            "low": lambda self, params: self.n < params["floor"],
            "odd": lambda self, params, event: self.n % 2 == 1 and not event.args,
        },
        "__constraints__": {"bounded": lambda self: self.n < 1000},
        "__triggers__": [
            trigger(
                "Odd",
                "Tock & odd",
                action=lambda self, ctx: _FIRED.append("Odd"),
                perpetual=True,
            ),
            trigger(
                "Pair",
                "Tick, Tock",
                action=lambda self, ctx: _FIRED.append("Pair"),
                perpetual=True,
            ),
            trigger(
                "Hot",
                "Tick & hot",
                action=lambda self, ctx: _FIRED.append("Hot"),
                perpetual=True,
            ),
            trigger(
                "Low",
                "Bump & low",
                action=lambda self, ctx: _FIRED.append("Low"),
                params=("floor",),
            ),
            trigger(
                "Deferred",
                "Tock",
                action=lambda self, ctx: _FIRED.append("Deferred"),
                coupling="end",
                perpetual=True,
            ),
            trigger(
                "Impure",
                "Tick & noisy",
                action=lambda self, ctx: _FIRED.append("Impure"),
                masks={"noisy": lambda self: (_PROBES.append(1), True)[1]},
                perpetual=True,
            ),
        ],
    }


TierGadget = type(
    "TierGadget", (Persistent,), {"n": field(int, default=0), **_gadget_declarations()}
)


#: Local-rule twin of TierGadget: the same declarations on a volatile
#: class, so the same script runs through ``VolatileStates``.
LocalGadget = type(
    "LocalGadget",
    (Monitored,),
    {"__init__": lambda self: setattr(self, "n", 0), **_gadget_declarations()},
)


#: One transaction's ops: a posting, ``inc`` (a field write a mask reads),
#: or ``arm`` (activate ``Low`` again, between postings).
_BATCH = st.lists(
    st.sampled_from(["tick", "tock", "bump", "inc", "arm"]), min_size=1, max_size=6
)
_SCRIPT = st.lists(_BATCH, min_size=1, max_size=8)

_NOT_POSTED = ("inc", "arm")

COMPILABLE_TRIGGERS = ("Odd", "Pair", "Hot", "Low", "Deferred")
#: The gadget's constraint trigger, activated by ``pnew`` (ODE404: its
#: mask calls the declared predicate, a bare name).
BOUNDED = CONSTRAINT_PREFIX + "bounded"


def _posting_runs(batch):
    """One transaction's ops as ``("inc", None)`` / ``("arm", None)`` steps
    and maximal runs of consecutive postings ``("post", [event names])``."""
    for is_post, ops in itertools.groupby(batch, key=lambda op: op not in _NOT_POSTED):
        if is_post:
            yield "post", [op.capitalize() for op in ops]
        else:
            yield from ((op, None) for op in ops)


def _activate_all(handle):
    handle.Odd()
    handle.Pair()
    handle.Hot()
    handle.Low(5)
    handle.Deferred()
    handle.Impure()


def _outcome(fired, trajectory, stats):
    snapshot = stats.snapshot()
    tier_counters = {
        k: snapshot.pop(k) for k in ("compiled_hits", "compiled_fallbacks")
    }
    return fired, trajectory, snapshot, tier_counters


def _replay(base_path, script, compiled, trigger_cc="2pl", batched=False):
    """Run *script* on a fresh database, served by the compile tier or,
    without *compiled*, by the interpreted reference; return (firings,
    per-transaction (trigger, statenum) trajectory, posting stats, tier
    counters).  With *batched*, each run of consecutive postings is one
    ``post_many``."""
    serving = contextlib.nullcontext() if compiled else interpreted_reference()
    with serving, contextlib.closing(
        Database.open(base_path, engine="mm", trigger_cc=trigger_cc)
    ) as db:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            _activate_all(h)
        _FIRED.clear()
        stats = db.trigger_system.stats
        stats.reset()
        trajectory = []
        for batch in script:
            with db.transaction():
                h = db.deref(ptr)
                for kind, events in _posting_runs(batch):
                    if kind == "inc":
                        h.n += 1
                    elif kind == "arm":
                        h.Low(5)
                    elif batched:
                        db.post_many([(ptr, event) for event in events])
                    else:
                        for event in events:
                            h.post_event(event)
                # Read through the transaction's own state store.
                trajectory.append(sorted(
                    (info.name, ts.statenum)
                    for _, ts, info in db.trigger_system.active_triggers(ptr)
                ))
        return _outcome(list(_FIRED), trajectory, stats)


def _replay_local(script, compiled):
    """The same script against local rules; "commit" drains the end list."""
    system = LocalTriggerSystem()
    obj = LocalGadget()
    handle = system.monitor(obj)
    getattr(handle, BOUNDED)()  # what pnew does for a persistent object
    _activate_all(handle)
    _FIRED.clear()
    trajectory = []
    with contextlib.nullcontext() if compiled else interpreted_reference():
        for batch in script:
            for op in batch:
                if op == "inc":
                    obj.n += 1
                elif op == "arm":
                    handle.Low(5)
                else:
                    handle.post_event(op.capitalize())
            trajectory.append(sorted(
                (machine.info.name, machine.state.statenum)
                for machine in system._groups.get(id(obj), ())
            ))
            system.drain_end_list()
    return _outcome(list(_FIRED), trajectory, system.stats)


#: Counters every store must agree on (``state_writes`` is a property of
#: where the state lives; ``batched`` of the entry point).
_SHARED_COUNTERS = (
    "events_posted", "fsm_advances", "masks_evaluated_posting", "firings",
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_SCRIPT)
def test_every_store_tier_and_entry_point_agrees(tmp_path_factory, script):
    """{2pl, mvcc} x {interpreted, compiled} x {N post_event, post_many}
    plus the local-rule twin: one firing order (incl. the deferred
    drain), one statenum trajectory, one set of posting counters — with
    ``Low`` activated again between postings of a transaction."""
    root = tmp_path_factory.mktemp("diffstores")
    runs = {
        (cc, compiled, batched): _replay(
            str(root / f"{cc}-{compiled:d}{batched:d}"), script, compiled, cc, batched
        )
        for cc, compiled, batched in itertools.product(
            ("2pl", "mvcc"), (False, True), (False, True)
        )
    }
    runs.update(
        {("local", compiled, False): _replay_local(script, compiled)
         for compiled in (False, True)}
    )
    reference = runs["2pl", False, False]
    posted = reference[2]["events_posted"]
    for (store, compiled, batched), (fired, trajectory, stats, tier) in runs.items():
        cell = (store, compiled, batched)
        assert fired == reference[0], cell
        assert trajectory == reference[1], cell
        for counter in _SHARED_COUNTERS:
            assert stats[counter] == reference[2][counter], (cell, counter)
        assert stats["batched"] == (posted if batched else 0), cell
        if store == "2pl":
            # Same store: every posting.* counter matches, state_writes too.
            assert {**stats, "batched": 0} == reference[2], cell
        else:
            # MVCC merges through storage.write_merged, local rules assign:
            # neither writes a state record from the posting path.
            assert stats["state_writes"] == 0, cell
        if compiled:
            # Every posting advances the always-active Impure and constraint
            # machines, whose ODE400/ODE404 verdicts fall back once per
            # advance each; the rest hit.
            assert tier["compiled_fallbacks"] == 2 * posted, cell
            assert tier["compiled_hits"] == stats["fsm_advances"] - 2 * posted, cell
        else:
            assert tier == {
                "compiled_hits": 0, "compiled_fallbacks": stats["fsm_advances"]
            }, cell


def test_fast_path_engages_and_impure_falls_back(tmp_path):
    script = [["tick", "tock", "bump"], ["inc", "inc", "inc", "inc", "tick"]]
    fired, _trajectory, stats, tier_counters = _replay(
        str(tmp_path / "engage"), script, compiled=True
    )
    # Six postings saw 4 compilable machines; the Impure trigger fell
    # back on each with an ODE4xx verdict cached in the tier.
    assert tier_counters["compiled_hits"] > 0
    assert tier_counters["compiled_fallbacks"] > 0
    assert stats["fsm_advances"] == (
        tier_counters["compiled_hits"] + tier_counters["compiled_fallbacks"]
    )
    assert "Impure" in fired  # the fallback still fires correctly

    tier = global_compiled_tier()
    metatype = TierGadget.__metatype__
    for name in COMPILABLE_TRIGGERS:
        info = metatype.trigger_by_name(name)
        assert tier.compiles(info, metatype)
        assert tier.explain(info) == ()
    impure = metatype.trigger_by_name("Impure")
    assert not tier.compiles(impure, metatype)
    assert [d.code for d in tier.explain(impure)] == ["ODE400"]


def test_verdicts_match_tier_behaviour():
    metatype = TierGadget.__metatype__
    for name in COMPILABLE_TRIGGERS:
        verdict = classify_trigger(metatype.trigger_by_name(name), metatype)
        assert verdict.compilable, (name, verdict.diagnostics)
    verdict = classify_trigger(metatype.trigger_by_name("Impure"), metatype)
    assert not verdict.compilable
    assert "ODE400" in verdict.codes


class _Occurrence:
    args = ()


def _hot_twice():
    """``Hot`` re-wired by hand so one cascade crosses the mask ``hot`` at
    two states: after a Tick, state 1 asks ``hot`` and state 2 asks it
    again — accepting at 3 when it holds, revisiting 1 when it does not."""
    info = TierGadget.__metatype__.trigger_by_name("Hot")
    states = [
        FsmState(0, False, (), {"Tick": 1}),
        FsmState(1, False, ("hot",), {"true:hot": 2, "false:hot": 2}),
        FsmState(2, False, ("hot",), {"true:hot": 3, "false:hot": 1}),
        FsmState(3, True, (), {"Tick": 1}),
    ]
    machine = Fsm(states, 0, info.compiled.fsm.alphabet, anchored=False)
    compiled = dataclasses.replace(info.compiled, fsm=machine)
    fsm = IntFsm(compiled, info.fsm.symbol_to_int, info.fsm.pseudo)
    return dataclasses.replace(info, compiled=compiled, fsm=fsm)


@pytest.mark.parametrize(
    "name, call",
    [
        ("Hot", "_m0(obj)"),
        ("Low", "_m0(obj, params)"),
        ("Odd", "_m0(obj, params, event)"),
        ("HotTwice", "_m0(obj)"),
    ],
)
def test_generated_code_calls_each_mask_as_declared(name, call):
    """A one-entry group function calls the mask (bound as ``_k0m0``, its
    params ``params[0]``) with as many arguments as it declares; one with
    no declared form (a run-time bridge's) goes through the adapter.
    Either function agrees with the interpreter on every state and every
    event a posting can carry (``tests/test_postable_events.py``), and
    counts as many mask calls as the interpreter makes — the count
    ``posting.masks_evaluated_posting`` adds up in both tiers, also when a
    cascade meets one mask twice (``HotTwice``)."""
    if name == "HotTwice":
        info = _hot_twice()
    else:
        info = TierGadget.__metatype__.trigger_by_name(name)
    declared = generate_group_advance([info])
    adapted = generate_group_advance([dataclasses.replace(info, mask_specs={})])
    assert call.replace("_m0", "_k0m0").replace("params", "params[0]") in declared[1]
    assert "_k0m0(obj, params[0], event)" in adapted[1]
    events = sorted(info.fsm.symbol_to_int.values())
    crossed_twice = False
    for n, statenum, eventnum in itertools.product(
        range(6), range(len(info.fsm)), events
    ):
        obj = TierGadget(n=n)
        params = {"floor": 3}
        calls = []

        def evaluate(mask_name):
            calls.append(mask_name)
            return bool(info.masks[mask_name](obj, params, _Occurrence))

        result = info.fsm.advance(statenum, eventnum, evaluate)
        crossed_twice = crossed_twice or result.pseudo_steps > len(calls)
        expected = (result.state, result.accepted, len(calls))
        for function, _source in (declared, adapted):
            working, stats = [statenum], PostingStats()
            accepted = function(working, eventnum, obj, [params], _Occurrence, [], stats, None)
            assert (working[0], accepted == [0], stats.masks_evaluated_posting) == expected
    assert crossed_twice == (name == "HotTwice")


# ---------------------------------------------------------------------------
# The group function: kernel == loop
# ---------------------------------------------------------------------------


#: A fully compilable group fixture (no constraint, so ``pnew`` activates
#: nothing): a sequence, a mask of each arity, a mask that raises at
#: n == 13, one impure trigger and one once-only trigger.
KernelGadget = type(
    "KernelGadget",
    (Persistent,),
    {
        "n": field(int, default=0),
        "__events__": ["Tick", "Tock"],
        "__masks__": {
            "hot": lambda self: self.n > 3,
            "low": lambda self, params: self.n < params["floor"],
            "odd": lambda self, params, event: self.n % 2 == 1,
            "shaky": lambda self: 10 // (self.n - 13) > 0,
        },
        "__triggers__": [
            trigger("Seq", "Tick, Tock", action=lambda s, c: _FIRED.append("Seq"),
                    perpetual=True),
            trigger("Hot", "Tick & hot", action=lambda s, c: _FIRED.append("Hot"),
                    perpetual=True),
            trigger("Low", "Tock & low", action=lambda s, c: _FIRED.append("Low"),
                    params=("floor",), perpetual=True),
            trigger("Odd", "Tock & odd", action=lambda s, c: _FIRED.append("Odd"),
                    coupling="end", perpetual=True),
            trigger("Shaky", "Tick & shaky",
                    action=lambda s, c: _FIRED.append("Shaky"), perpetual=True),
            trigger("Noisy", "Tick & noisy",
                    action=lambda s, c: _FIRED.append("Noisy"),
                    masks={"noisy": lambda self: (_PROBES.append(1), True)[1]},
                    perpetual=True),
            trigger("Brittle", "Tick & brittle",
                    action=lambda s, c: _FIRED.append("Brittle"),
                    masks={"brittle": lambda self: (
                        _PROBES.append(1), 10 // (self.n - 13) > 0)[1]},
                    perpetual=True),
            trigger("Once", "Tock, Tock", action=lambda s, c: _FIRED.append("Once")),
        ],
    },
)

#: Activation calls per fixture group, in entry order.
_INTERLEAVED = [("Seq",), ("Seq",), ("Hot",), ("Seq",), ("Low", 5), ("Odd",), ("Once",)]
_WITHHELD = [("Seq",), ("Hot",), ("Noisy",), ("Seq",)]
_SHAKY = [("Seq",), ("Seq",), ("Shaky",), ("Seq",)]
_BRITTLE = [("Seq",), ("Seq",), ("Brittle",), ("Seq",)]

#: Each transaction's ops: an event name, ("n", value) or "materialize".
_MIXED_SCRIPT = [
    ["Tick", "Tock", ("n", 1), "Tock"],
    [("n", 5), "Tick", "Tick", "Tock", "Tock"],
    ["Tock", ("n", 2), "Tick", "Tock"],
    [("n", 4), "Tick", "materialize", "Tock", "Tick"],
    ["Tick", "Tock", "Tock"],
]


@pytest.fixture(params=["mm", "disk"])
def engine(request):
    return request.param


def _kernel_calls(monkeypatch) -> list:
    """Count the postings the group function serves, persistent or local."""
    from repro.core import monitored, posting

    calls = []
    real = posting.advance_group

    def counted(*args):
        calls.append(getattr(args[3], "rid", None))
        return real(*args)

    monkeypatch.setattr(posting, "advance_group", counted)
    monkeypatch.setattr(monitored, "advance_group", counted)
    return calls


def _tier_answers(monkeypatch) -> list:
    """Record what the tier answers each time it is asked for a group
    function (see :func:`_is_interpreted`)."""
    answers = []
    real = CompiledTier.group_function

    def asked(self, key, entries):
        answers.append(real(self, key, entries))
        return answers[-1]

    monkeypatch.setattr(CompiledTier, "group_function", asked)
    return answers


def _stored_statenums(db, ptr):
    with db.transaction() as txn:
        return [m.state.statenum for m in db.trigger_system.index.lookup(txn, ptr.rid)]


def _run_group(path, engine, activations, script, cls=KernelGadget):
    """Run *script* on one object carrying *activations* (under
    :func:`interpreted_reference`, the interpreter serves every posting).
    Returns what must not depend on which one served: firings, each
    transaction's (statenums, stats delta, whether the group was marked
    dirty), and the committed statenums."""
    db = Database.open(path, engine=engine)
    try:
        with db.transaction():
            h = db.pnew(cls)
            ptr = h.ptr
            for name, *args in activations:
                getattr(h, name)(*args)
        _FIRED.clear()
        system = db.trigger_system
        seen = []
        for ops in script:
            before = system.stats.snapshot()
            with db.transaction() as txn:
                h = db.deref(ptr)
                raised = []
                for op in ops:
                    if op == "materialize":
                        system.active_triggers(ptr)
                    elif isinstance(op, tuple):
                        h.n = op[1]
                    else:
                        try:
                            h.post_event(op)
                        except ZeroDivisionError:
                            raised.append(op)  # caught inside the transaction
                group = system.index.lookup(txn, ptr.rid)
                dirty = group.rid in system.states(txn).dirty
                statenums = [m.state.statenum for m in group]
            seen.append((statenums, system.stats.diff(before), dirty, raised))
        return list(_FIRED), seen, _stored_statenums(db, ptr)
    finally:
        db.close()


#: What the tier counts: which function served, not what it did.
_TIER_COUNTERS = ("compiled_hits", "compiled_fallbacks")


def _without_tier_counters(run):
    fired, seen, stored = run
    return fired, [
        (statenums, {k: v for k, v in delta.items() if k not in _TIER_COUNTERS},
         dirty, raised)
        for statenums, delta, dirty, raised in seen
    ], stored


def _kernel_equals_loop(tmp_path, monkeypatch, engine, activations, script):
    """Run *script* interpreted, then compiled: everything but the tier's
    own counters must agree.  Returns the compiled run and the postings
    the group function served."""
    with interpreted_reference(), pytest.MonkeyPatch.context() as patch:
        answers = _tier_answers(patch)
        looped = _run_group(str(tmp_path / "loop"), engine, activations, script)
    assert answers and all(map(_is_interpreted, answers))  # interpreted serves each group
    calls = _kernel_calls(monkeypatch)
    served = _run_group(str(tmp_path / "kernel"), engine, activations, script)
    assert _without_tier_counters(served) == _without_tier_counters(looped)
    return served, calls


def _postings(script):
    return sum(isinstance(op, str) and op != "materialize" for ops in script for op in ops)


def test_group_function_matches_each_closure():
    """The generated group function against the interpreter
    (``info.fsm.advance`` with the same masks), one entry after the
    other, on every state of every entry and every event a posting can
    carry: the same new states, moves, acceptances and mask calls — with
    every entry compiled, and with some entries run by the interpreter
    step inside the function.  A compiled entry on a state no posting
    leaves it in takes that step too."""
    metatype = KernelGadget.__metatype__
    infos = [metatype.trigger_by_name(name) for name, *_ in _INTERLEAVED]
    for interpreted in ((), (2,), (0, 3, 6)):
        _group_function_matches_the_interpreter(infos, interpreted)


def _resting_states(fsm) -> set:
    """The states *fsm* can be in between postings: where activation's
    cascade ends, closed under advancing on each postable event, for
    every assignment of mask outcomes (the dead state included)."""
    masks = sorted({mask for state in fsm.states for mask in state.masks})
    outcomes = [
        dict(zip(masks, bits)).__getitem__
        for bits in itertools.product((True, False), repeat=len(masks))
    ]
    rests = {DEAD} | {fsm.quiesce(fsm.start, outcome)[0] for outcome in outcomes}
    todo = list(rests)
    while todo:
        state = todo.pop()
        for eventnum, outcome in itertools.product(fsm.symbol_to_int.values(), outcomes):
            nxt = fsm.advance(state, eventnum, outcome).state
            if nxt not in rests:
                rests.add(nxt)
                todo.append(nxt)
    return rests


def _group_function_matches_the_interpreter(infos, interpreted):
    proofs = [i not in interpreted for i in range(len(infos))]
    function, source = generate_group_advance(infos, proofs)
    assert source.count("s = statenums[") == len(infos)
    assert source.count("_step(") == len(infos)
    params = [{"floor": 5} if info.params else {} for info in infos]
    events = sorted(set().union(*(info.fsm.symbol_to_int.values() for info in infos)))
    rng = random.Random(1996)
    starts = [
        [rng.randrange(-1, len(info.fsm)) for info in infos] for _ in range(100)
    ]
    rests = [_resting_states(info.fsm) for info in infos]
    for n, statenums in itertools.product((1, 4, 6), starts):
        stepped = sum(
            proof and old not in rests[i] for i, (proof, old) in enumerate(zip(proofs, statenums))
        )
        obj = KernelGadget(n=n)
        for eventnum in events:
            expected_states, expected_moved, expected_accepted = [], [], []
            expected_calls = 0
            for i, (info, old) in enumerate(zip(infos, statenums)):
                calls = []

                def evaluate(mask_name, info=info, i=i, calls=calls):
                    calls.append(mask_name)
                    return bool(info.masks[mask_name](obj, params[i], _Occurrence))

                result = info.fsm.advance(old, eventnum, evaluate)
                expected_states.append(result.state)
                if result.state != old:
                    expected_moved.append((i, old))
                if result.accepted:
                    expected_accepted.append(i)
                expected_calls += len(calls)
            working, moved = list(statenums), []
            stats = PostingStats()
            accepted = function(
                working, eventnum, obj, params, _Occurrence, moved, stats, None
            )
            assert (working, moved, accepted) == (
                expected_states, expected_moved, expected_accepted
            )
            assert stats.fsm_advances == len(infos)
            assert stats.compiled_hits == len(infos) - len(interpreted) - stepped
            assert stats.compiled_fallbacks == len(interpreted) + stepped
            assert stats.masks_evaluated_posting == expected_calls


def test_interleaved_kinds_kernel_equals_loop(tmp_path, monkeypatch, engine):
    """Kinds interleaved in one group (Seq, Seq, Hot, Seq, ...), with a
    deferred, a once-only and a params mask: the group function serves
    every posting, also after the group's machines are built — by a
    caller ("materialize") or by the once-only trigger's deactivation —
    and changes nothing anyone can see."""
    (fired, seen, _stored), calls = _kernel_equals_loop(
        tmp_path, monkeypatch, engine, _INTERLEAVED, _MIXED_SCRIPT
    )
    assert {"Seq", "Hot", "Low", "Odd", "Once"} <= set(fired)
    assert len(calls) == _postings(_MIXED_SCRIPT)
    for _statenums, delta, _dirty, _raised in seen:
        assert delta["compiled_fallbacks"] == 0
        assert delta["compiled_hits"] == delta["fsm_advances"]


def test_a_withheld_proof_sends_the_whole_group_to_the_loop(
    tmp_path, monkeypatch, engine
):
    """One entry without an ODE4xx proof in the middle of the group: the
    group function still serves every posting, that entry interpreted
    inside it, and ``compiled_fallbacks`` counts that entry once per
    advance."""
    script = [["Tick", ("n", 5), "Tick", "Tock"], ["Tock", "Tick"]]
    (fired, seen, _stored), calls = _kernel_equals_loop(
        tmp_path, monkeypatch, engine, _WITHHELD, script
    )
    assert len(calls) == _postings(script)
    assert "Noisy" in fired
    for ops, (_statenums, delta, _dirty, _raised) in zip(script, seen):
        posted = sum(isinstance(op, str) for op in ops)
        assert delta["compiled_fallbacks"] == posted
        assert delta["compiled_hits"] == 3 * posted


def test_a_mask_raising_mid_group_leaves_what_the_loop_leaves(
    tmp_path, monkeypatch, engine
):
    """Shaky's mask raises at n == 13, third in the group; the transaction
    catches it and goes on.  The entries before it advanced, moved (so the
    group is X-locked and dirty) and are counted; Shaky and the entry
    after it are not — in the generated group function as in the
    interpreted one."""
    script = [
        [("n", 13), "Tick", ("n", 14), "Tock", "Tick"],
        ["Tick", ("n", 13), "Tock", "Tick"],
    ]
    (_fired, seen, _stored), calls = _kernel_equals_loop(
        tmp_path, monkeypatch, engine, _SHAKY, script
    )
    assert calls
    assert [raised for *_, raised in seen] == [["Tick"], ["Tick"]]
    first = _run_group(
        str(tmp_path / "first"), engine, _SHAKY, [[("n", 13), "Tick"]]
    )[1][0]
    assert first[0] == [1, 1, 0, 0]  # Seq, Seq advanced; Shaky raised; the last not
    assert first[1]["fsm_advances"] == first[1]["compiled_hits"] == 2
    assert first[1]["masks_evaluated_posting"] == 0
    assert first[1]["state_writes"] == 2
    assert first[2]


def test_an_interpreted_mask_raising_between_compiled_entries(
    tmp_path, monkeypatch, engine
):
    """Brittle has no ODE4xx proof (its mask is impure) and its mask
    raises at n == 13, between compiled entries.  The group function
    interprets it in place and leaves what the loop leaves: the entries
    before it moved (the group dirty) and are counted, Brittle and the
    entry after it are not advanced, and the raising call is no mask
    evaluation."""
    script = [
        [("n", 13), "Tick", ("n", 14), "Tock", "Tick"],
        ["Tick", ("n", 13), "Tock", "Tick"],
    ]
    (_fired, seen, _stored), calls = _kernel_equals_loop(
        tmp_path, monkeypatch, engine, _BRITTLE, script
    )
    assert len(calls) == _postings(script)
    assert [raised for *_, raised in seen] == [["Tick"], ["Tick"]]
    first = _run_group(
        str(tmp_path / "first"), engine, _BRITTLE, [[("n", 13), "Tick"]]
    )[1][0]
    assert first[0] == [1, 1, 0, 0]  # Seq, Seq advanced; Brittle raised; the last not
    assert first[1]["fsm_advances"] == first[1]["compiled_hits"] == 2
    assert first[1]["compiled_fallbacks"] == 1
    assert first[1]["masks_evaluated_posting"] == 0
    assert first[1]["state_writes"] == 2
    assert first[2]


def test_a_group_too_large_to_unroll_takes_the_loop(tmp_path, monkeypatch, engine):
    """Past ``GROUP_UNROLL_BUDGET`` nodes a signature gets no generated
    function: the tier serves its groups by ``interpreted``, entry by
    entry, every advance a counted fallback."""
    monkeypatch.setattr(compiled, "GROUP_UNROLL_BUDGET", 10)
    compiled.bump_schema_version("test: a smaller group budget")
    answers = _tier_answers(monkeypatch)
    script = [["Tick", "Tock"], [("n", 5), "Tick"]]
    try:
        (fired, seen, _stored), _calls = _kernel_equals_loop(
            tmp_path, monkeypatch, engine, _INTERLEAVED[:4], script
        )
    finally:
        monkeypatch.undo()
        compiled.bump_schema_version("test: the group budget restored")
    assert answers and all(map(_is_interpreted, answers))  # interpreted serves each group
    assert fired == ["Seq"] * 3 + ["Hot"]
    for ops, (_statenums, delta, _dirty, _raised) in zip(script, seen):
        posted = sum(isinstance(op, str) for op in ops)
        assert delta["compiled_hits"] == 0
        assert delta["compiled_fallbacks"] == delta["fsm_advances"] == 4 * posted


#: A monitored twin of KernelGadget's Seq, Hot and Noisy, for local rules.
LocalKernelGadget = type(
    "LocalKernelGadget",
    (Monitored,),
    {
        "__init__": lambda self: setattr(self, "n", 5),
        "__events__": ["Tick", "Tock"],
        "__masks__": {"hot": lambda self: self.n > 3},
        "__triggers__": [
            trigger("Seq", "Tick, Tock", action=lambda s, c: _FIRED.append("Seq"),
                    perpetual=True),
            trigger("Hot", "Tick & hot", action=lambda s, c: _FIRED.append("Hot"),
                    perpetual=True),
            trigger("Noisy", "Tick & noisy",
                    action=lambda s, c: _FIRED.append("Noisy"),
                    masks={"noisy": lambda self: (_PROBES.append(1), True)[1]},
                    perpetual=True),
        ],
    },
)


@pytest.mark.parametrize("cell", ["lazy", "listed", "activated", "mvcc", "local"])
def test_the_group_function_serves_every_store(tmp_path, monkeypatch, cell):
    """One group function per posting in every compiled cell: a lazily
    loaded 2PL group, a 2PL group whose machines ``active_triggers`` or an
    activation built, an MVCC buffered group and local rules — each with
    an entry (Noisy) interpreted inside it."""
    calls = _kernel_calls(monkeypatch)
    _FIRED.clear()
    if cell == "local":
        system = LocalTriggerSystem()
        handle = system.monitor(LocalKernelGadget())
        handle.Seq()
        handle.Hot()
        handle.Noisy()
        handle.post_event("Tick")
        handle.post_event("Tock")
        stats = system.stats.snapshot()
    else:
        cc = "mvcc" if cell == "mvcc" else "2pl"
        db = Database.open(str(tmp_path / cell), engine="mm", trigger_cc=cc)
        try:
            with db.transaction():
                h = db.pnew(KernelGadget)
                ptr = h.ptr
                for name in ("Seq", "Hot", "Noisy"):
                    getattr(h, name)()
            db.trigger_system.stats.reset()
            with db.transaction():
                h = db.deref(ptr)
                h.n = 5
                if cell == "listed":
                    db.trigger_system.active_triggers(ptr)
                elif cell == "activated":
                    h.Seq()
                h.post_event("Tick")
                h.post_event("Tock")
            stats = db.trigger_system.stats.snapshot()
        finally:
            db.close()
    assert len(calls) == 2
    assert sorted(_FIRED) == ["Hot", "Noisy", "Seq"] + (["Seq"] if cell == "activated" else [])
    assert stats["compiled_fallbacks"] == 2
    assert stats["compiled_hits"] == stats["fsm_advances"] - 2


#: Patterns of compilable kinds, one distinct signature each.
_SIGNATURES = ["".join(p) for p in itertools.product("SH", repeat=3)]


def _serve_signatures(path, cell):
    """Post a Tick to one group per pattern of ``_SIGNATURES`` (``S`` a
    ``Seq``, ``H`` a ``Hot``) in *cell* — ``"2pl"`` or ``"mvcc"`` on a
    database at *path*, or ``"local"`` — checking after each that the
    tier's memo is within its bound; returns the posting stats."""
    tier = global_compiled_tier()
    if cell == "local":
        system = LocalTriggerSystem()
        for pattern in _SIGNATURES:
            handle = system.monitor(LocalKernelGadget())
            for letter in pattern:
                (handle.Seq if letter == "S" else handle.Hot)()
            handle.post_event("Tick")
            assert 0 < tier.cached_count() <= compiled.KERNEL_MEMO_MAX
        return system.stats.snapshot()
    db = Database.open(path, engine="mm", trigger_cc=cell)
    try:
        ptrs = []
        with db.transaction():
            for pattern in _SIGNATURES:
                h = db.pnew(KernelGadget, n=5)
                for letter in pattern:
                    (h.Seq if letter == "S" else h.Hot)()
                ptrs.append(h.ptr)
        db.trigger_system.stats.reset()
        for ptr in ptrs:
            with db.transaction():
                db.deref(ptr).post_event("Tick")
            assert 0 < tier.cached_count() <= compiled.KERNEL_MEMO_MAX
        return db.trigger_system.stats.snapshot()
    finally:
        db.close()


@pytest.mark.parametrize("cell", ["2pl", "mvcc", "local"])
def test_past_the_memo_bound_a_new_signature_is_still_generated(
    tmp_path, monkeypatch, cell
):
    """The tier's memo holds at most ``KERNEL_MEMO_MAX`` keys and is
    emptied when full: more signatures than that are each still served
    by generated code, with no fallback, and the memo never holds more
    than its bound."""
    monkeypatch.setattr(compiled, "KERNEL_MEMO_MAX", 3)
    bump_schema_version("test: a small group-function memo")
    try:
        stats = _serve_signatures(str(tmp_path / "bound"), cell)
    finally:
        monkeypatch.undo()
        bump_schema_version("test: the group-function memo bound restored")
    assert stats["fsm_advances"] == 3 * len(_SIGNATURES)
    assert stats["compiled_fallbacks"] == 0
    assert stats["compiled_hits"] == stats["fsm_advances"]


def test_a_function_memoized_before_the_reference_does_not_serve_inside(tmp_path):
    """The tier's memo outlives its databases, so the interpreted
    reference bumps the schema version around itself: a group whose
    function was generated before it is interpreted inside it, and
    generated code serves that group again after it."""
    db = Database.open(str(tmp_path / "stand-in"), engine="mm")
    try:
        with db.transaction():
            h = db.pnew(KernelGadget, n=5)
            h.Seq()
            h.Hot()
            ptr = h.ptr
        stats = db.trigger_system.stats

        def tick():
            before = stats.snapshot()
            with db.transaction():
                db.deref(ptr).post_event("Tick")
            return stats.diff(before)

        assert tick()["compiled_hits"] == 2  # memoized before
        with interpreted_reference():
            inside = tick()
        after = tick()
    finally:
        db.close()
    assert inside["compiled_hits"] == 0
    assert inside["compiled_fallbacks"] == inside["fsm_advances"] == 2
    assert after["compiled_hits"] == 2 and after["compiled_fallbacks"] == 0


def _define_stale_group(tag):
    """(Re)define StaleGroupDemo, whose actions log *tag* and their name."""
    return type(
        "StaleGroupDemo",
        (Persistent,),
        {
            "__events__": ["Ping", "Pong"],
            "__triggers__": [
                trigger("W", "Ping", perpetual=True,
                        action=lambda s, c, _tag=tag: _FIRED.append((_tag, "W"))),
                trigger("X", "Pong", perpetual=True,
                        action=lambda s, c, _tag=tag: _FIRED.append((_tag, "X"))),
            ],
        },
    )


@pytest.mark.parametrize("loop", [False, True], ids=["kernel", "loop"])
def test_a_schema_bump_after_a_lazy_load_and_after_a_partial_build(
    tmp_path, monkeypatch, engine, loop
):
    """A group loaded lazily, then the class is redefined: the next
    posting fires the new actions.  Then X's machine is built (it
    accepted), the class is redefined again, and X fires the newest action
    — the built machine is re-resolved before it fires — as do the W
    entries the group function never built.  With *loop* every machine
    is built before the first bump, and is re-resolved the same way."""
    calls = _kernel_calls(monkeypatch)
    _define_stale_group("v1")
    db = Database.open(str(tmp_path / "bump"), engine=engine)
    try:
        cls = db.registry.find("StaleGroupDemo").pyclass
        with db.transaction():
            h = db.pnew(cls)
            ptr = h.ptr
            for name in ("W", "W", "X", "W"):
                getattr(h, name)()
        _FIRED.clear()
        with db.transaction() as txn:
            h = db.deref(ptr)
            group = db.trigger_system.index.lookup(txn, ptr.rid)
            assert len(group) == 4
            if loop:
                list(group)
            _define_stale_group("v2")  # after the lazy load
            h.post_event("Pong")
            h.post_event("Ping")
            _define_stale_group("v3")  # after X's machine was built
            h.post_event("Pong")
            h.post_event("Ping")
            assert group.statenums == [m.state.statenum for m in group]
        assert _FIRED == (
            [("v2", "X")] + [("v2", "W")] * 3 + [("v3", "X")] + [("v3", "W")] * 3
        )
        assert len(calls) == 4
    finally:
        db.close()


def test_a_listed_group_is_still_served_from_its_heads(
    tmp_path, monkeypatch, engine
):
    """Listing a group's entries (``index.lookup`` iterated,
    ``active_triggers``) builds views of them and leaves the group's
    working form alone: every later posting in the transaction advances
    the same ``statenums`` the group function left in place, and a later
    listing shows where the entries moved to."""
    calls = _kernel_calls(monkeypatch)
    db = Database.open(str(tmp_path / "materialize"), engine=engine)
    try:
        with db.transaction():
            h = db.pnew(KernelGadget)
            ptr = h.ptr
            for name, *args in _INTERLEAVED[:4]:
                getattr(h, name)(*args)
        system = db.trigger_system
        with db.transaction() as txn:
            h = db.deref(ptr)
            h.post_event("Tick")  # the group function: Seq entries 0 -> 1
            assert len(calls) == 1
            group = system.index.lookup(txn, ptr.rid)
            assert [m.state.statenum for m in group] == [1, 1, 0, 1]
            assert group.statenums == [1, 1, 0, 1]
            _FIRED.clear()
            h.post_event("Tock")
            assert len(calls) == 2  # served from the same heads
            assert [m.state.statenum for m in group] == [2, 2, 0, 2]
            assert _FIRED == ["Seq"] * 3
        assert _stored_statenums(db, ptr) == [2, 2, 0, 2]
        with db.transaction():
            db.deref(ptr).post_event("Tick")
        assert len(calls) == 3
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Invalidation (satellite: stale-closure firing is the scary bug)
# ---------------------------------------------------------------------------


def _define_stale_demo(tag):
    """(Re)define a class named StaleDemo whose action logs *tag*."""
    return type(
        "StaleDemo",
        (Persistent,),
        {
            "__events__": ["Ping"],
            "__triggers__": [
                trigger(
                    "Watch",
                    "Ping",
                    action=lambda self, ctx, _tag=tag: _FIRED.append(_tag),
                    perpetual=True,
                )
            ],
        },
    )


def test_class_compilation_and_strict_flip_bump_schema_version():
    before = schema_version()
    _define_stale_demo("v-bump")
    assert schema_version() == before + 1
    assert "StaleDemo" in last_bump_reason()

    before = schema_version()
    previous = set_strict_analysis(True)
    try:
        assert schema_version() == before + 1
        assert "strict_analysis" in last_bump_reason()
    finally:
        set_strict_analysis(previous)
    assert schema_version() == before + 2  # restoring flips again


def test_register_shim_bumps_schema_version():
    from repro.objects.metatype import global_type_registry

    before = schema_version()
    global_type_registry().register_shim(
        "CompiledTierShimFixture", object()
    )
    assert schema_version() == before + 1


def test_bump_evicts_cached_artifacts():
    """A schema bump empties the tier's group-function memo."""
    tier = global_compiled_tier()
    metatype = TierGadget.__metatype__
    info = metatype.trigger_by_name("Pair")
    entries = [types.SimpleNamespace(info=info, defining=metatype)]
    function = tier.group_function((info,), lambda key: entries)
    assert function.masks is not None  # generated
    assert tier.cached_count() > 0
    _define_stale_demo("evict")
    assert tier.cached_count() == 0  # version check dropped everything
    again = tier.group_function((info,), lambda key: entries)
    assert again.masks is not None and again is not function


def test_redefined_class_never_fires_stale_closure(tmp_path):
    _never_fires_stale_closure(str(tmp_path / "stale"), "2pl")


def test_redefined_class_never_fires_stale_closure_under_mvcc(tmp_path):
    _never_fires_stale_closure(str(tmp_path / "stale"), "mvcc")


def _never_fires_stale_closure(path, trigger_cc):
    _define_stale_demo("v1")
    db = Database.open(path, engine="mm", trigger_cc=trigger_cc)
    try:
        cls_v1 = db.registry.find("StaleDemo").pyclass
        with db.transaction():
            h = db.pnew(cls_v1)
            ptr = h.ptr
            h.Watch()
        _FIRED.clear()
        with db.transaction():
            h = db.deref(ptr)
            h.post_event("Ping")  # compiled against v1
            # Mid-transaction redefinition: the schema version bumps, the
            # per-txn cache's pinned version goes stale, and the very next
            # posting must resolve the *new* trigger info.
            _define_stale_demo("v2")
            h.post_event("Ping")
        assert _FIRED == ["v1", "v2"]
        # And across transactions too.
        _FIRED.clear()
        with db.transaction():
            db.deref(ptr).post_event("Ping")
        assert _FIRED == ["v2"]
    finally:
        db.close()


def test_deactivation_purges_txn_cache(tmp_path):
    db = Database.open(str(tmp_path / "purge"), engine="mm")
    try:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            h.Low(1)  # once-only: fires, then deactivates mid-transaction
            h.Pair()
        _FIRED.clear()
        with db.transaction():
            h = db.deref(ptr)
            h.n = -5
            h.post_event("Bump")  # Low fires and self-deactivates
            h.post_event("Bump")  # its cached closure must be gone
            h.post_event("Tick")
        assert _FIRED.count("Low") == 1
        with db.transaction():
            names = [
                info.name
                for _, _ts, info in db.trigger_system.active_triggers(ptr)
            ]
        assert names == [BOUNDED, "Pair"]
    finally:
        db.close()


def test_a_traced_posting_is_served_by_the_tier(tmp_path):
    """Tracing watches the generated code: it does not switch it off."""
    db = Database.open(str(tmp_path / "traced"), engine="mm")
    try:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            h.Hot()
        stats = db.trigger_system.stats
        stats.reset()
        obs.enable(capacity=4096)
        try:
            with db.transaction():
                db.deref(ptr).post_event("Tick")
        finally:
            recorder = obs.disable()
        assert stats.compiled_hits == 1
        # The constraint's entry (interpreted, ODE404) then Hot's (compiled).
        masks = [r for r in recorder.records() if r.kind == "mask.eval"]
        assert [(m.get("trigger"), m.get("mask")) for m in masks] == [
            (BOUNDED, "violated_bounded"), ("Hot", "hot")
        ]
        stats.reset()
        with db.transaction():
            db.deref(ptr).post_event("Tick")
        assert stats.compiled_hits == 1
    finally:
        db.close()


def _spans(recorder):
    """Each span's records as ``(kind, data)``, in span order."""
    assert recorder.stats.records_dropped == 0
    spans: dict[int, list] = {}
    for record in recorder.records():
        if record.span:
            spans.setdefault(record.span, []).append((record.kind, dict(record.data)))
    return list(spans.values())


def _traced_spans(base_path, script, compiled, trigger_cc):
    """:func:`_replay` traced: its outcome and its spans."""
    with obs.enabled() as recorder:
        outcome = _replay(base_path, script, compiled, trigger_cc)
    return outcome, _spans(recorder)


@pytest.mark.parametrize("cc", ["2pl", "mvcc"])
def test_traced_compiled_and_interpreted_runs_emit_the_same_spans(tmp_path, cc):
    """A trace cannot tell which function served: from the tier and from
    the interpreted reference, every span holds the same records, kinds
    and data — over a group whose compiled entries surround the
    interpreted ``Impure`` and constraint entries, with ``Low`` armed
    again mid-transaction."""
    script = [
        ["tick", "tock", "bump"],
        ["inc", "tick", "tock", "arm", "bump", "bump"],
        ["inc", "inc", "inc", "tick", "tick", "tock", "inc", "tock"],
    ]
    compiled, compiled_spans = _traced_spans(str(tmp_path / "on"), script, True, cc)
    interpreted, interpreted_spans = _traced_spans(str(tmp_path / "off"), script, False, cc)
    assert compiled[3]["compiled_hits"] > 0
    assert interpreted[3] == {
        "compiled_hits": 0, "compiled_fallbacks": interpreted[2]["fsm_advances"]
    }
    assert compiled[:3] == interpreted[:3]
    assert compiled_spans == interpreted_spans
    kinds = {kind for span in compiled_spans for kind, _data in span}
    assert {"mask.eval", "fsm.advance", "fire"} <= kinds


@pytest.mark.parametrize("activations", [_SHAKY, _BRITTLE], ids=["compiled", "interpreted"])
def test_a_traced_posting_whose_mask_raises_emits_the_entries_it_completed(
    tmp_path, activations
):
    """Traced, a posting whose third entry's mask raises emits the two
    entries the call completed, and nothing of the entry that raised or
    the one after it — from the generated function as from the
    interpreter; the next posting emits all four."""
    script = [[("n", 13), "Tick", ("n", 14), "Tick"]]
    runs = []
    for serving in (contextlib.nullcontext(), interpreted_reference()):
        with obs.enabled() as recorder, serving:
            _run_group(str(tmp_path / f"loop{len(runs)}"), "mm", activations, script)
        runs.append(_spans(recorder))
    assert runs[0] == runs[1]
    raised, after = runs[0]
    assert [data["trigger"] for kind, data in raised if kind == "fsm.advance"] == [
        "Seq", "Seq"
    ]
    assert not [kind for kind, _ in raised if kind == "mask.eval"]
    assert [data["trigger"] for kind, data in after if kind == "fsm.advance"] == [
        "Seq", "Seq", activations[2][0], "Seq"
    ]


# ---------------------------------------------------------------------------
# The five judgments
# ---------------------------------------------------------------------------


def _single_trigger_class(name, **trigger_kwargs):
    kwargs = {"action": lambda self, ctx: None, "perpetual": True}
    kwargs.update(trigger_kwargs)
    expression = kwargs.pop("expression", "Go")
    events = kwargs.pop("events", ["Go"])
    masks = kwargs.pop("class_masks", {})
    return type(
        name,
        (Persistent,),
        {
            "__events__": events,
            "__masks__": masks,
            "__triggers__": [trigger("T", expression, **kwargs)],
        },
    )


def _codes_for(cls):
    metatype = cls.__metatype__
    return classify_trigger(metatype.trigger_infos[0], metatype).codes


def test_ode400_impure_mask():
    cls = _single_trigger_class(
        "Ode400Fixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
    )
    assert "ODE400" in _codes_for(cls)


def test_ode401_unresolvable_free_name():
    cls = _single_trigger_class(
        "Ode401Fixture",
        expression="Go & phantom",
        masks={"phantom": lambda self: _no_such_helper_anywhere(self)},  # noqa: F821
    )
    assert "ODE401" in _codes_for(cls)


def test_ode402_unroll_budget(monkeypatch):
    from repro.core import compiled

    monkeypatch.setattr(compiled, "UNROLL_BUDGET", 1)
    metatype = TierGadget.__metatype__
    verdict = classify_trigger(metatype.trigger_by_name("Hot"), metatype)
    assert "ODE402" in verdict.codes


def _chain_nodes(fsm) -> int:
    """The decision-tree nodes of a one-entry group of *fsm*: the least
    limit ``generate_group_source`` emits it within."""
    mask_calls = {mask: f"_m{i}(obj)" for i, mask in enumerate(compiled._used_masks(fsm))}
    low, high = 0, 1
    while True:
        try:
            compiled.generate_group_source([(fsm, mask_calls, 0)], high)
            break
        except PlanError:
            low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        try:
            compiled.generate_group_source([(fsm, mask_calls, 0)], middle)
            high = middle
        except PlanError:
            low = middle
    return high


def test_a_mask_chain_grows_by_a_constant_per_mask():
    """``Tick & m1 & ... & mk`` has one live path per step.  Its generated
    code covers only the events a posting can carry and the states the
    machine can rest in, so each mask adds the same number of nodes, and
    ODE402 refuses no depth up to 16."""
    nodes = []
    for k in range(1, 17):
        cls = _single_trigger_class(
            f"TierChain{k}",
            events=["Tick"],
            expression="Tick & " + " & ".join(f"m{i}" for i in range(k)),
            class_masks={f"m{i}": (lambda self: True) for i in range(k)},
        )
        assert _codes_for(cls) == (), k
        nodes.append(_chain_nodes(cls.__metatype__.trigger_infos[0].fsm))
    steps = {b - a for a, b in zip(nodes, nodes[1:])}
    assert len(steps) == 1, nodes


def test_an_entry_on_a_transient_mask_state_takes_the_interpreter_step():
    """No posting leaves ``Hot`` on its mask state, so the generated code
    has no branch for it; an entry stored there is advanced by the
    interpreter step inside the same function, lands where
    ``info.fsm.advance`` lands and counts one ``compiled_fallbacks``.  A
    state out of range raises ``IndexError`` from that step."""
    info = TierGadget.__metatype__.trigger_by_name("Hot")
    transient = info.fsm.mask_states()
    assert transient and not set(transient) & _resting_states(info.fsm)
    function, source = generate_group_advance([info])
    assert f"s == {transient[0]}:" not in source
    tick = info.fsm.symbol_to_int["Tick"]
    for n, statenum in itertools.product((1, 5), transient):
        obj = TierGadget(n=n)
        result = info.fsm.advance(
            statenum, tick, lambda mask: bool(info.masks[mask](obj, {}, _Occurrence))
        )
        working, moved, stats = [statenum], [], PostingStats()
        accepted = function(working, tick, obj, [{}], _Occurrence, moved, stats, None)
        assert (working, accepted == [0]) == ([result.state], result.accepted)
        assert moved == ([] if result.state == statenum else [(0, statenum)])
        assert (stats.compiled_fallbacks, stats.compiled_hits, stats.fsm_advances) == (1, 0, 1)
    for statenum in (len(info.fsm), -2):
        with pytest.raises(IndexError):
            function([statenum], tick, obj, [{}], _Occurrence, [], PostingStats(), None)


def test_ode403_immediate_action_reenters():
    cls = _single_trigger_class(
        "Ode403Fixture",
        events=["Go", "Echo"],
        posts=("Echo",),
    )
    assert "ODE403" in _codes_for(cls)
    # Deferred coupling runs after the advance completes: exempt.
    deferred = _single_trigger_class(
        "Ode403Deferred",
        events=["Go", "Echo"],
        posts=("Echo",),
        coupling="end",
    )
    assert "ODE403" not in _codes_for(deferred)


def test_ode404_unknown_action_effects():
    cls = _single_trigger_class(
        "Ode404Fixture",
        action=eval("lambda self, ctx: None"),  # no retrievable source
    )
    assert "ODE404" in _codes_for(cls)


def test_every_judgment_falls_back_cleanly(tmp_path):
    """A non-compilable trigger must still post and fire via the interpreter."""
    hits = []
    cls = _single_trigger_class(
        "FallbackFixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
        action=lambda self, ctx, _hits=hits: _hits.append("fired"),
    )
    db = Database.open(str(tmp_path / "fallback"), engine="mm")
    try:
        stats = db.trigger_system.stats
        with db.transaction():
            h = db.pnew(cls)
            h.T()
            stats.reset()
            h.post_event("Go")
        assert hits == ["fired"]
        assert stats.compiled_fallbacks == 1
        assert stats.compiled_hits == 0
        info = cls.__metatype__.trigger_infos[0]
        codes = [d.code for d in global_compiled_tier().explain(info)]
        assert "ODE400" in codes
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Analysis surfaces
# ---------------------------------------------------------------------------


def test_analyze_classes_opt_in_pass():
    from repro.analysis import analyze_classes

    cls = _single_trigger_class(
        "SurfaceFixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
    )
    without = analyze_classes([cls])
    assert "ODE400" not in without.codes()
    with_pass = analyze_classes([cls], compilability=True)
    assert "ODE400" in with_pass.codes()


def test_ode205_is_pass_aware_for_ode4xx():
    from repro.analysis import analyze_classes

    cls = _single_trigger_class(
        "SuppressFixture", suppress=("ODE400",)
    )  # compilable trigger: the suppression is stale iff the pass runs
    without = analyze_classes([cls])
    assert not [
        d for d in without.by_code("ODE205") if "ODE400" in d.message
    ]
    with_pass = analyze_classes([cls], compilability=True)
    assert [d for d in with_pass.by_code("ODE205") if "ODE400" in d.message]


def test_check_triggers_and_metrics_surface(tmp_path):
    db = Database.open(str(tmp_path / "surface"), engine="mm")
    try:
        report = db.check_triggers([TierGadget], compilability=True)
        assert "ODE400" in report.codes()
        with db.transaction():
            h = db.pnew(TierGadget)
            h.Pair()
            h.post_event("Tick")
        snapshot = db.metrics.snapshot()
        assert snapshot["posting.compiled_hits"] >= 1
        assert "posting.compiled_fallbacks" in snapshot
    finally:
        db.close()


def test_transition_table_export():
    from repro.events.dfa import transition_table

    info = TierGadget.__metatype__.trigger_by_name("Hot")
    table = transition_table(info.fsm)
    assert len(table) == len(info.fsm)
    assert all(
        set(row) == {"state", "accept", "masks", "transitions"} for row in table
    )
    # The symbolic compile-time machine exports through the same helper.
    symbolic = transition_table(info.compiled.fsm)
    assert len(symbolic) == len(table)
