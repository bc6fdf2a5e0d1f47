"""The generated-code posting fast path and its ODE4xx codes (DESIGN.md §14).

Three families:

* **Differential**: hypothesis-generated event scripts replayed through
  every state store ({2pl, mvcc} persistent plus local rules), served by
  the compiled tier and by the interpreted reference
  (``benchmarks/common.py``'s :func:`interpreted_baseline`), posting one
  event at a time and in batches, must produce identical firing orders,
  ``statenum`` trajectories and posting stats — one posting kernel, so
  one property rather than one per pair of modes.  Impure masks,
  immediate actions that post back to their anchor and constraints are
  generated like any other trigger.
* **Invalidation**: any trigger add/remove bumps the schema version and
  evicts the tier's group functions; a redefined class must never fire
  a stale action — including mid-transaction.
* **Judgments**: ODE401 (a mask naming what resolves nowhere) and ODE402
  (a machine past the unroll budget, whose entries the group function
  interprets) have fixtures, and an ODE402 entry still posts and fires.
"""

import contextlib
import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.common import interpreted_baseline
from repro import obs
from repro.analysis.compilable import check_compilable
from repro.core import compiled, posting
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
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.posting import PostingStats
from repro.core.trigger_def import IntFsm
from repro.events.fsm import DEAD, Fsm, FsmState
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field


# Firing log shared by the fixture actions; cleared per replay.
_FIRED: list[str] = []
# Side channel observed by the deliberately impure masks.
_PROBES: list[int] = []


def _gadget_declarations():
    """Differential fixture: sequences, pure masks of every arity, params,
    once-only, deferred coupling, one deliberately impure mask, and a
    constraint."""
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

#: The gadget's constraint trigger, activated by ``pnew``.
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
    return fired, trajectory, snapshot, tier_counters, len(_PROBES)


def _replay(base_path, script, compiled, trigger_cc="2pl", batched=False):
    """Run *script* on a fresh database, served by the compile tier or,
    without *compiled*, by the interpreted reference; return (firings,
    per-transaction (trigger, statenum) trajectory, posting stats, tier
    counters).  With *batched*, each run of consecutive postings is one
    ``post_many``."""
    serving = contextlib.nullcontext() if compiled else interpreted_baseline()
    with serving, contextlib.closing(
        Database.open(base_path, engine="mm", trigger_cc=trigger_cc)
    ) as db:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            _activate_all(h)
        _FIRED.clear()
        _PROBES.clear()
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
    _PROBES.clear()
    trajectory = []
    with contextlib.nullcontext() if compiled else interpreted_baseline():
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
    drain), one statenum trajectory, one set of posting counters and, per
    store, as many calls of the impure mask — with ``Low`` activated
    again between postings of a transaction."""
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
    for (store, compiled, batched), (fired, trajectory, stats, tier, probes) in runs.items():
        cell = (store, compiled, batched)
        assert fired == reference[0], cell
        assert trajectory == reference[1], cell
        assert probes == runs[store, False, False][4], cell
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
            assert tier == {
                "compiled_hits": stats["fsm_advances"], "compiled_fallbacks": 0
            }, cell
        else:
            assert tier == {
                "compiled_hits": 0, "compiled_fallbacks": stats["fsm_advances"]
            }, cell


def test_fast_path_engages_and_an_impure_mask_compiles(tmp_path):
    """Generated code serves every advance of the gadget, the impure
    mask's and the constraint's included: no fallback, and ``Impure``
    fires as the interpreter fires it."""
    script = [["tick", "tock", "bump"], ["inc", "inc", "inc", "inc", "tick"]]
    fired, _trajectory, stats, tier_counters, probes = _replay(
        str(tmp_path / "engage"), script, compiled=True
    )
    assert tier_counters == {
        "compiled_hits": stats["fsm_advances"], "compiled_fallbacks": 0
    }
    assert stats["fsm_advances"] > 0
    assert fired.count("Impure") == probes == 2


def _nodes(fsm) -> int:
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


def test_verdicts_match_tier_behaviour(monkeypatch):
    """ODE402 and the tier judge by the same dry run: with the unroll
    budget between the gadget's machine sizes, exactly the triggers the
    lint reports as ODE402 get a one-entry group function with no
    compiled branch (their entry is one interpreter step)."""
    infos = TierGadget.__metatype__.trigger_infos
    sizes = {info.name: _nodes(info.fsm) for info in infos}
    assert len(set(sizes.values())) > 1, sizes
    monkeypatch.setattr(compiled, "UNROLL_BUDGET", sorted(sizes.values())[len(sizes) // 2] - 1)
    past = set()
    for info in infos:
        codes = [d.code for d in check_compilable(info, "TierGadget")]
        source = generate_group_advance([info])[1]
        if "ODE402" in codes:
            past.add(info.name)
        assert ("s == " not in source) == ("ODE402" in codes), info.name
        assert (sizes[info.name] > compiled.UNROLL_BUDGET) == ("ODE402" in codes), info.name
    assert past and past != set(sizes)


# ---------------------------------------------------------------------------
# Effectful triggers are generated code
# ---------------------------------------------------------------------------

#: Each call of ``EchoGadget``'s counting mask; cleared per run.
_MASK_CALLS: list[int] = []


def _echo(self, ctx):
    """An immediate action that posts back to its own anchor."""
    _FIRED.append("Echo")
    self.post_event("Pong")


def _count(self, ctx):
    _FIRED.append("Count")
    self.n += 1


#: An immediate action posting to its anchor, a mask that counts its
#: calls and a constraint: generated like any other trigger, so a run
#: must show the interpreter's firings and the interpreter's mask calls.
EchoGadget = type(
    "EchoGadget",
    (Persistent,),
    {
        "n": field(int, default=0),
        "__events__": ["Ping", "Pong"],
        "__masks__": {"even": lambda self: (_MASK_CALLS.append(1), self.n % 2 == 0)[1]},
        "__constraints__": {"small": lambda self: self.n < 1000},
        "__triggers__": [
            trigger("Echo", "Ping", action=_echo, posts=("Pong",), perpetual=True),
            trigger("Even", "Pong & even", perpetual=True,
                    action=lambda self, ctx: _FIRED.append("Even")),
            trigger("Count", "Ping, Pong", action=_count, perpetual=True),
        ],
    },
)

#: One transaction's postings each; ``n`` moves only through ``Count``.
_ECHO_SCRIPT = [["Ping"], ["Pong", "Ping"], ["Ping", "Ping", "Pong"], ["Pong"]]


def _echo_run(path, engine, trigger_cc, batched):
    """Run ``_ECHO_SCRIPT`` on one ``EchoGadget``: the firings, the mask's
    calls, each transaction's statenums and the posting counters."""
    db = Database.open(path, engine=engine, trigger_cc=trigger_cc)
    try:
        with db.transaction():
            h = db.pnew(EchoGadget)
            ptr = h.ptr
            h.Echo()
            h.Even()
            h.Count()
        _FIRED.clear()
        _MASK_CALLS.clear()
        stats = db.trigger_system.stats
        stats.reset()
        statenums = []
        for events in _ECHO_SCRIPT:
            with db.transaction():
                h = db.deref(ptr)
                if batched:
                    db.post_many([(ptr, event) for event in events])
                else:
                    for event in events:
                        h.post_event(event)
            statenums.append(_stored_statenums(db, ptr))
        return list(_FIRED), len(_MASK_CALLS), statenums, stats.snapshot()
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["mm", "disk"])
@pytest.mark.parametrize("cc", ["2pl", "mvcc"])
@pytest.mark.parametrize("batched", [False, True], ids=["post_event", "post_many"])
def test_effectful_triggers_are_generated_and_agree_with_the_interpreter(
    tmp_path, engine, cc, batched
):
    """Generated code serves ``EchoGadget`` with no fallback, and changes
    nothing the interpreted reference shows: the firing log, how often the
    counting mask ran (MVCC's settle included, which asks only what the
    advance did not), the statenums and the posting counters."""
    served = _echo_run(str(tmp_path / "compiled"), engine, cc, batched)
    with interpreted_baseline():
        reference = _echo_run(str(tmp_path / "interpreted"), engine, cc, batched)
    fired, mask_calls, statenums, stats = served
    assert fired.count("Echo") == 4 and "Even" in fired and "Count" in fired
    assert stats["compiled_fallbacks"] == 0
    assert stats["compiled_hits"] == stats["fsm_advances"] > 0
    assert reference[3]["compiled_hits"] == 0
    tier = ("compiled_hits", "compiled_fallbacks")
    assert (fired, mask_calls, statenums) == reference[:3]
    assert {k: v for k, v in stats.items() if k not in tier} == {
        k: v for k, v in reference[3].items() if k not in tier
    }


_NO_ANALYSIS = """
import sys
from repro import Database, Persistent, field
from repro.core.declarations import trigger

class AnalysisFreeGadget(Persistent):
    n = field(int, default=0)
    __events__ = ["Tick", "Tock"]
    __masks__ = {"hot": lambda self: self.n > 3}
    __triggers__ = [
        trigger("Hot", "Tick & hot", action=lambda s, c: None, perpetual=True),
        trigger("Seq", "Tick, Tock", action=lambda s, c: None, perpetual=True),
    ]

db = Database.open(sys.argv[1], engine="mm")
with db.transaction():
    h = db.pnew(AnalysisFreeGadget, n=5)
    h.Hot()
    h.Seq()
    h.post_event("Tick")  # fires Hot
    h.post_event("Tock")  # fires Seq
stats = db.trigger_system.stats
assert (stats.compiled_hits, stats.compiled_fallbacks, stats.firings) == (4, 0, 2), stats
db.close()
print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
"""


def test_posting_to_a_compiled_group_loads_no_analysis_module(tmp_path):
    """Generating and calling a group function needs no analysis: a fresh
    process that posts to a compiled group has imported no
    ``repro.analysis`` module."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = tmp_path / "post.py"
    script.write_text(_NO_ANALYSIS)
    result = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "db")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


_TWO_READY = """
import sys
from repro import Database, Persistent
from repro.core.declarations import trigger

class TwoReadyGadget(Persistent):
    __events__ = ["Tick"]
    __triggers__ = [
        trigger("First", "Tick", action=lambda s, c: None, perpetual=True),
        trigger("Second", "Tick", action=lambda s, c: None, perpetual=True),
    ]

db = Database.open(sys.argv[1], engine="mm")
with db.transaction():
    h = db.pnew(TwoReadyGadget)
    h.First()
    h.Second()
    h.post_event("Tick")  # readies both: they fire in activation order
assert db.trigger_system.stats.firings == 2
db.close()
print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
"""


def test_posting_that_readies_two_triggers_loads_no_analysis_module(tmp_path):
    """A ready set of two fires in activation order without asking the
    analyzer: a fresh process that readies two triggers with one posting
    has imported no ``repro.analysis`` module."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = tmp_path / "post.py"
    script.write_text(_TWO_READY)
    result = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "db")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_shipped_trigger_is_served_by_generated_code():
    """Each trigger of every shipped class (``examples/``, the library
    workloads, ``perf/workloads.py``) gets a compiled entry from the tier,
    constraints and actions that post included."""
    from tests.test_postable_events import _shipped_classes

    tier = global_compiled_tier()
    checked = 0
    for cls in _shipped_classes():
        for info in cls.__metatype__.all_trigger_infos:
            entries = [types.SimpleNamespace(info=info)]
            function = tier.group_function((info,), lambda key: entries)
            # ``_A0`` is bound only for a compiled kind 0.
            assert "_A0" in function.__globals__, (cls.__name__, info.name)
            checked += 1
    assert checked >= 18


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


#: A group fixture with no constraint, so ``pnew`` activates nothing: a
#: sequence, a mask of each arity, a mask that raises at n == 13, impure
#: masks (one of which raises at n == 13 too) and a once-only trigger.
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
    function."""
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
    :func:`interpreted_baseline`, the interpreter serves every posting).
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
    with interpreted_baseline():
        looped = _run_group(str(tmp_path / "loop"), engine, activations, script)
    for _statenums, delta, _dirty, raised in looped[1]:
        # The interpreter step served each advance (and each raising mask).
        assert delta["compiled_hits"] == 0
        assert delta["compiled_fallbacks"] == delta["fsm_advances"] + len(raised)
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
    every entry compiled, and with the kinds of some entries past the
    unroll budget, run by the interpreter step inside the function.  A
    compiled entry on a state no posting leaves it in takes that step
    too.  Given a log, every entry writes in it what its masks said, as
    the interpreter step does."""
    metatype = KernelGadget.__metatype__
    infos = [metatype.trigger_by_name(name) for name, *_ in _INTERLEAVED]
    _group_function_matches_the_interpreter(infos, [])
    for past in (("Hot",), ("Seq", "Once")):
        interpreted = [i for i, info in enumerate(infos) if info.name in past]
        with interpreted_baseline(*(metatype.trigger_by_name(name) for name in past)):
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
    unrolled = [i not in interpreted for i in range(len(infos))]
    function, source = generate_group_advance(infos)
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
            unroll and old not in rests[i]
            for i, (unroll, old) in enumerate(zip(unrolled, statenums))
        )
        obj = KernelGadget(n=n)
        for eventnum in events:
            expected_states, expected_moved, expected_accepted = [], [], []
            expected_calls, expected_log = 0, {-1: len(infos)}
            for i, (info, old) in enumerate(zip(infos, statenums)):
                said = {}

                def evaluate(mask_name, info=info, i=i, said=said):
                    said[mask_name] = bool(info.masks[mask_name](obj, params[i], _Occurrence))
                    return said[mask_name]

                result = info.fsm.advance(old, eventnum, evaluate)
                expected_states.append(result.state)
                if result.state != old:
                    expected_moved.append((i, old))
                if result.accepted:
                    expected_accepted.append(i)
                expected_calls += len(said)
                if said:
                    expected_log[i] = said
            working, moved, log = list(statenums), [], {}
            stats = PostingStats()
            accepted = function(
                working, eventnum, obj, params, _Occurrence, moved, stats, log
            )
            assert (working, moved, accepted) == (
                expected_states, expected_moved, expected_accepted
            )
            # An interpreted entry's step logs also when its masks said nothing.
            assert {i: said for i, said in log.items() if said != {}} == expected_log
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
    """One entry whose machine is past the unroll budget (ODE402, the one
    specialization the tier withholds) in the middle of the group: the
    group function still serves every posting, that entry interpreted
    inside it, and ``compiled_fallbacks`` counts that entry once per
    advance."""
    script = [["Tick", ("n", 5), "Tick", "Tock"], ["Tock", "Tick"]]
    with interpreted_baseline(KernelGadget.__metatype__.trigger_by_name("Noisy")):
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
    """Brittle's machine is past the unroll budget here and its mask
    raises at n == 13, between compiled entries.  The group function
    interprets it in place and leaves what the loop leaves: the entries
    before it moved (the group dirty) and are counted, Brittle and the
    entry after it are not advanced, and the raising call is no mask
    evaluation."""
    script = [
        [("n", 13), "Tick", ("n", 14), "Tock", "Tick"],
        ["Tick", ("n", 13), "Tock", "Tick"],
    ]
    with interpreted_baseline(KernelGadget.__metatype__.trigger_by_name("Brittle")):
        (_fired, seen, _stored), calls = _kernel_equals_loop(
            tmp_path, monkeypatch, engine, _BRITTLE, script
        )
        assert len(calls) == _postings(script)
        first = _run_group(
            str(tmp_path / "first"), engine, _BRITTLE, [[("n", 13), "Tick"]]
        )[1][0]
    assert [raised for *_, raised in seen] == [["Tick"], ["Tick"]]
    assert first[0] == [1, 1, 0, 0]  # Seq, Seq advanced; Brittle raised; the last not
    assert first[1]["fsm_advances"] == first[1]["compiled_hits"] == 2
    assert first[1]["compiled_fallbacks"] == 1
    assert first[1]["masks_evaluated_posting"] == 0
    assert first[1]["state_writes"] == 2
    assert first[2]


def test_a_group_too_large_to_unroll_takes_the_loop(tmp_path, monkeypatch, engine):
    """Past ``GROUP_UNROLL_BUDGET`` nodes a signature's generated function
    unrolls nothing: every entry is one interpreter step, and every
    advance a counted fallback."""
    monkeypatch.setattr(compiled, "GROUP_UNROLL_BUDGET", 10)
    compiled.bump_schema_version("test: a smaller group budget")
    answers = _tier_answers(monkeypatch)
    sources = {}
    real = compiled.generate_group_advance

    def generate(infos):
        function, source = real(infos)
        sources[function] = source
        return function, source

    monkeypatch.setattr(compiled, "generate_group_advance", generate)
    script = [["Tick", "Tock"], [("n", 5), "Tick"]]
    try:
        (fired, seen, _stored), _calls = _kernel_equals_loop(
            tmp_path, monkeypatch, engine, _INTERLEAVED[:4], script
        )
    finally:
        monkeypatch.undo()
        compiled.bump_schema_version("test: the group budget restored")
    assert answers
    for answer in answers:  # generated code, one interpreter step per entry
        source = sources[answer]
        assert source.count("_step(") == source.count("s = statenums[") == 4
        assert "eventnum ==" not in source
    assert fired == ["Seq"] * 3 + ["Hot"]
    for ops, (_statenums, delta, _dirty, _raised) in zip(script, seen):
        posted = sum(isinstance(op, str) for op in ops)
        assert delta["compiled_hits"] == 0
        assert delta["compiled_fallbacks"] == delta["fsm_advances"] == 4 * posted


def test_a_codegen_error_propagates_and_nothing_is_memoized(monkeypatch):
    """A generator bug is an error, not a quiet fallback: the tier raises
    what generation raised and keeps no function for the group."""
    tier = global_compiled_tier()
    info = TierGadget.__metatype__.trigger_by_name("Pair")
    entries = [types.SimpleNamespace(info=info)]
    bump_schema_version("test: a codegen error")  # no memo hit for the key
    before = tier.cached_count()

    def broken(entries, limit=None):
        raise RuntimeError("codegen bug")

    monkeypatch.setattr(compiled, "generate_group_source", broken)
    with pytest.raises(RuntimeError, match="codegen bug"):
        tier.group_function((info,), lambda key: entries)
    assert tier.cached_count() == before


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
    activation built, an MVCC buffered group and local rules — each entry
    compiled, the impure Noisy's too."""
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
    assert stats["compiled_fallbacks"] == 0
    assert stats["compiled_hits"] == stats["fsm_advances"] > 0


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
        with interpreted_baseline():
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
    """A class compilation bumps the schema version."""
    before = schema_version()
    _define_stale_demo("v-bump")
    assert schema_version() == before + 1
    assert "StaleDemo" in last_bump_reason()


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
    entries = [types.SimpleNamespace(info=info)]
    function = tier.group_function((info,), lambda key: entries)
    assert tier.cached_count() > 0
    _define_stale_demo("evict")
    assert tier.cached_count() == 0  # version check dropped everything
    again = tier.group_function((info,), lambda key: entries)
    assert again is not function


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
        assert (stats.compiled_hits, stats.compiled_fallbacks) == (2, 0)
        # The constraint's entry, then Hot's, each from the group function's log.
        masks = [r for r in recorder.records() if r.kind == "mask.eval"]
        assert [(m.get("trigger"), m.get("mask")) for m in masks] == [
            (BOUNDED, "violated_bounded"), ("Hot", "hot")
        ]
        stats.reset()
        with db.transaction():
            db.deref(ptr).post_event("Tick")
        assert (stats.compiled_hits, stats.compiled_fallbacks) == (2, 0)
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
    and data — over a group with an impure mask and a constraint, with
    ``Low`` armed again mid-transaction."""
    script = [
        ["tick", "tock", "bump"],
        ["inc", "tick", "tock", "arm", "bump", "bump"],
        ["inc", "inc", "inc", "tick", "tick", "tock", "inc", "tock"],
    ]
    compiled, compiled_spans = _traced_spans(str(tmp_path / "on"), script, True, cc)
    interpreted, interpreted_spans = _traced_spans(str(tmp_path / "off"), script, False, cc)
    assert compiled[3] == {
        "compiled_hits": compiled[2]["fsm_advances"], "compiled_fallbacks": 0
    }
    assert interpreted[3] == {
        "compiled_hits": 0, "compiled_fallbacks": interpreted[2]["fsm_advances"]
    }
    assert compiled[:3] == interpreted[:3]
    assert compiled_spans == interpreted_spans
    kinds = {kind for span in compiled_spans for kind, _data in span}
    assert {"mask.eval", "fsm.advance", "fire"} <= kinds


def test_a_trace_replay_that_disagrees_with_the_log_raises():
    """The trace emitter replays each advanced entry over the call's log
    and refuses a log it cannot reproduce — one that lacks a mask the
    replay asks, holds one it does not ask, or says what lands the entry
    elsewhere — before it emits anything."""
    system = LocalTriggerSystem()
    obj = LocalKernelGadget()
    system.monitor(obj).Hot()
    group = system._groups[id(obj)]
    info = group.entry(0).info
    tick = info.fsm.symbol_to_int["Tick"]
    start = group.statenums[0]
    landed = info.fsm.advance(start, tick, lambda mask: True)
    assert landed.accepted and landed.state != start
    group.statenums[0] = landed.state
    replay = functools.partial(
        posting._trace_advance, system._store, group, tick, [(0, start)], [0]
    )
    with obs.enabled() as recorder:
        replay({-1: 1, 0: {"hot": True}}, obs.NO_SPAN)
        for log in (
            {-1: 1},
            {-1: 1, 0: {"hot": True, "cold": True}},
            {-1: 1, 0: {"hot": False}},
        ):
            with pytest.raises(RuntimeError, match="diverged"):
                replay(log, obs.NO_SPAN)
    evals = [r.get("outcome") for r in recorder.records() if r.kind == "mask.eval"]
    assert evals == [True]


@pytest.mark.parametrize("activations", [_SHAKY, _BRITTLE], ids=["compiled", "interpreted"])
def test_a_traced_posting_whose_mask_raises_emits_the_entries_it_completed(
    tmp_path, activations
):
    """Traced, a posting whose third entry's mask raises emits the two
    entries the call completed, and nothing of the entry that raised or
    the one after it — from the generated function (with Brittle's
    machine past the unroll budget, interpreted inside it) as from the
    interpreter; the next posting emits all four."""
    script = [[("n", 13), "Tick", ("n", 14), "Tick"]]
    brittle = KernelGadget.__metatype__.trigger_by_name("Brittle")
    runs = []
    with interpreted_baseline(brittle):
        for serving in (contextlib.nullcontext(), interpreted_baseline()):
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
# The two judgments
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
    info = cls.__metatype__.trigger_infos[0]
    return tuple(d.code for d in check_compilable(info, cls.__name__))


#: Events of the wide trigger: two branches per event (one from each of
#: its states) put its machine past ``UNROLL_BUDGET``.
_WIDE_EVENTS = [f"W{i}" for i in range(compiled.UNROLL_BUDGET // 2 + 2)]


@functools.cache
def _wide_class():
    """A trigger firing on any of ``_WIDE_EVENTS``: a two-state machine
    too wide to unroll (ODE402), whose entry the tier interprets."""
    return _single_trigger_class(
        "TierWideFixture",
        events=_WIDE_EVENTS,
        expression=" || ".join(_WIDE_EVENTS),
        action=lambda self, ctx: _FIRED.append("Wide"),
    )


def test_ode401_unresolvable_free_name():
    cls = _single_trigger_class(
        "Ode401Fixture",
        expression="Go & phantom",
        masks={"phantom": lambda self: _no_such_helper_anywhere(self)},  # noqa: F821
    )
    assert "ODE401" in _codes_for(cls)


def test_ode402_unroll_budget():
    """A machine whose generated code passes the budget is ODE402, in the
    default lint run too; the gadget's machines are not."""
    from repro.analysis import analyze_class

    cls = _wide_class()
    assert len(cls.__metatype__.trigger_infos[0].fsm) == 2
    assert _codes_for(cls) == ("ODE402",)
    assert "ODE402" in analyze_class(cls).codes()
    assert "ODE402" not in analyze_class(TierGadget).codes()


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
        nodes.append(_nodes(cls.__metatype__.trigger_infos[0].fsm))
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


def test_every_judgment_falls_back_cleanly(tmp_path):
    """A trigger whose machine is past the unroll budget still posts and
    fires, through the interpreter step inside its group function."""
    cls = _wide_class()
    db = Database.open(str(tmp_path / "fallback"), engine="mm")
    try:
        stats = db.trigger_system.stats
        _FIRED.clear()
        with db.transaction():
            h = db.pnew(cls)
            h.T()
            stats.reset()
            h.post_event(_WIDE_EVENTS[-1])
        assert _FIRED == ["Wide"]
        assert (stats.compiled_fallbacks, stats.compiled_hits) == (1, 0)
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Analysis surfaces
# ---------------------------------------------------------------------------


def test_analyze_classes_opt_in_pass():
    """ODE4xx is no opt-in pass: a default run reports ODE401, and the
    ``compilability=`` switch is gone."""
    from repro.analysis import analyze_classes

    cls = _single_trigger_class(
        "SurfaceFixture",
        expression="Go & phantom",
        masks={"phantom": lambda self: _no_such_surface_helper(self)},  # noqa: F821
    )
    assert "ODE401" in analyze_classes([cls]).codes()
    with pytest.raises(TypeError):
        analyze_classes([cls], compilability=True)


def test_ode205_is_pass_aware_for_ode4xx():
    """ODE4xx runs in every lint run, so a ``suppress=`` of ODE402 on a
    machine within the budget is judged stale by default; an ODE3xx one
    is judged only when its opt-in pass runs."""
    from repro.analysis import analyze_classes

    cls = _single_trigger_class("SuppressFixture", suppress=("ODE402", "ODE300"))
    stale = [d.message for d in analyze_classes([cls]).by_code("ODE205")]
    assert [m for m in stale if "ODE402" in m]
    assert not [m for m in stale if "ODE300" in m]


def test_check_triggers_and_metrics_surface(tmp_path):
    from repro.analysis import analyze_classes, analyze_database

    db = Database.open(str(tmp_path / "surface"), engine="mm")
    try:
        report = analyze_classes([TierGadget])
        report.extend(analyze_database(db).diagnostics)
        assert not {code for code in report.codes() if code.startswith("ODE4")}
        with db.transaction():
            h = db.pnew(TierGadget)
            h.Pair()
            h.post_event("Tick")
        snapshot = db.metrics.snapshot()
        assert snapshot["posting.compiled_hits"] >= 1
        assert snapshot["posting.compiled_fallbacks"] == 0
    finally:
        db.close()
