"""E6 — triggers turn read access into write access.

Section 6: "We also discovered that triggers turn read access into write
access, increasing both the amount of time the transactions spend waiting
for locks and the likelihood of deadlock."

Since the multi-session refactor this experiment runs the *real* system:
N concurrent sessions over one shared in-memory database, interleaved by
the deterministic cooperative scheduler, each transaction dereferencing
hot objects and posting their observation events.  The two configurations
run **identical client code** — the only difference is whether ``Watch``
triggers were activated on the hot set, so every extra X lock, wait, and
deadlock is attributable to the trigger machinery itself.

Sweep: session count × triggers per object over a small hot set.
Expected shape: with 0 triggers the workload is share-everything — zero
waits, zero deadlocks at any session count.  With triggers, every posting
writes the object's persistent trigger group (S→X upgrades under strict
2PL), so waits appear and grow with the session count, and deadlock
abort/retry kicks in once several sessions upgrade on the same hot
records.  All of an object's triggers share its one group record, so
more triggers per object mean more state writes but not more locks.
"""

import pytest

from repro.workloads.locksim import HotObject, run_hot_set

from benchmarks.common import emit_table

HOT_OBJECTS = 6
TXNS = 120

_RESULTS: list[list[str]] = []


@pytest.mark.parametrize("cc", ["2pl", "mvcc"])
@pytest.mark.parametrize("sessions", [2, 8, 16])
@pytest.mark.parametrize("triggers", [0, 1, 3])
def test_lock_amplification(benchmark, sessions, triggers, cc):
    results = []

    def run():
        result = run_hot_set(
            HOT_OBJECTS,
            triggers,
            n_sessions=sessions,
            transactions=TXNS,
            seed=1996,
            trigger_cc=cc,
        )
        results.append(result)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    _RESULTS.append(
        [
            cc,
            sessions,
            triggers,
            result.s_locks,
            result.x_locks,
            result.lock_waits,
            f"{result.wait_fraction:.3f}",
            result.deadlock_aborts,
            result.state_writes,
            result.buffered_advances,
            result.conflicts,
        ]
    )

    assert result.committed == TXNS  # retries recover every victim
    if triggers == 0:
        assert result.x_locks == 0
        assert result.lock_waits == 0
        assert result.deadlock_aborts == 0
    elif cc == "2pl":
        assert result.x_locks > 0
        assert result.state_writes > 0
        if sessions > 1:
            assert result.lock_waits > 0  # the paper's added lock waiting
    else:
        # The §6 pathology eliminated: identical client code, triggers
        # active, and the posting path takes zero X locks — advances are
        # buffered and merged at commit (DESIGN.md §15).
        assert result.x_locks == 0
        assert result.lock_waits == 0
        assert result.deadlock_aborts == 0
        assert result.state_writes == 0
        assert result.buffered_advances > 0


def _static_predictions():
    """The ODE3xx analyzer's verdict on the workload class: which triggers
    amplify reads into writes (ODE300) and whether a deadlock cycle is
    predicted (ODE301).  Witness replay is off — the bench measures, the
    test suite confirms."""
    from repro.analysis import analyze_classes, infer_lock_footprint

    report = analyze_classes([HotObject], concurrency=True)
    amplifiers = sorted(
        str(d.location) for d in report.by_code("ODE300")
    )
    metatype = HotObject.__metatype__
    locksets = {
        f"{info.defining_type}.{info.name}": " -> ".join(
            str(step) for step in infer_lock_footprint(info, metatype).x_steps()
        )
        for info in metatype.trigger_infos
    }
    return amplifiers, bool(report.by_code("ODE301")), locksets


def teardown_module(module):
    amplifiers, cycle_predicted, locksets = _static_predictions()
    _RESULTS.sort(key=lambda row: (row[0], row[2], row[1]))
    for row in _RESULTS:
        cc, triggers, aborts = row[0], row[2], row[7]
        # ODE300/ODE301 model the 2PL advance path (X lock per state
        # write); under MVCC the amplification it predicts is engineered
        # away, so the prediction applies to the baseline scheme only.
        predicted = cycle_predicted and triggers > 0 and cc == "2pl"
        # A may-analysis is judged asymmetrically: an observed deadlock
        # the analyzer did not predict is a model failure; a prediction
        # with no observed deadlock just means contention stayed low.
        if predicted and aborts > 0:
            agreement = "hit"
        elif predicted:
            agreement = "unconfirmed"
        elif aborts > 0:
            agreement = "MISS"
        else:
            agreement = "ok"
        row.append("yes" if predicted else "no")
        row.append(agreement)
    offender_notes = "; ".join(
        f"{name} amplifies via {locksets.get(name, '?')}" for name in amplifiers
    )
    emit_table(
        "E6",
        f"lock amplification on a {HOT_OBJECTS}-object hot set "
        f"({TXNS} interleaved txns, real engine)",
        [
            "cc",
            "sessions",
            "triggers/obj",
            "S locks",
            "X locks",
            "lock waits",
            "wait frac",
            "deadlock aborts",
            "state writes",
            "buffered adv",
            "conflicts",
            "ODE301 pred",
            "agreement",
        ],
        _RESULTS,
        notes=(
            "Section 6: FSM advances write trigger state, so read-only "
            "transactions acquire X locks -> waits and deadlocks that a "
            "passive database never sees.  An object's triggers share one "
            "group record: one S and at most one X lock per object and "
            "transaction, however many triggers.  Identical client code in both "
            "configurations; deterministic cooperative interleaving.  The "
            "mvcc rows run the same workload with trigger_cc='mvcc' "
            "(DESIGN.md S15): advances buffer against copy-on-write state "
            "versions and merge at commit, so X locks, waits, and deadlock "
            "aborts all drop to zero.\n"
            f"Static analysis (lint --concurrency): ODE300 {offender_notes}; "
            "'hit' = predicted deadlock cycle observed, 'unconfirmed' = "
            "predicted but contention too low, 'MISS' would mean an "
            "unpredicted deadlock (model failure)."
        ),
    )
