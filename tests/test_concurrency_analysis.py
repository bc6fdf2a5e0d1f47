"""ODE3xx static concurrency analysis: footprints, witnesses, ODE310.

Per-code gadget classes isolate each finding (each suppresses the other
two, so one class produces exactly one ODE3xx code), the locksim and
credit-card workloads provide the acceptance targets from the paper's
Section 6, and the dynamic lockset checker is exercised both on a
synthetic contradictory trace and on real ``repro.obs`` captures (live
and after a JSONL round-trip).  The threaded class at the bottom runs
under ``pytest -m concurrency`` and shows that a scheduler-CONFIRMED
ODE301 prediction deadlocks for real with preemptive threads.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.analysis import (
    analyze_classes,
    check_lock_trace,
    infer_lock_footprint,
    observed_lock_profile,
    static_lock_profile,
)
from repro.analysis.concurrency import (
    advancing_symbols,
    replay_witness,
    start_advancing_symbols,
)
from repro.core.declarations import trigger
from repro.obs.trace import TraceRecord, records_from_jsonl, records_to_jsonl
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.workloads.credit_card import CredCard, CreditCardWorkload
from repro.workloads.locksim import HotObject, run_hot_set

pytestmark = pytest.mark.analysis

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _ode3(report):
    """The ODE3xx subset of a report, post-suppression."""
    return [d for d in report.diagnostics if d.code.startswith("ODE3")]


# --------------------------------------------------------------------------
# gadget classes — one ODE3xx code each (the other two acknowledged)


def _noop(self, ctx):
    pass


class AmplifyGadget(Persistent):
    """ODE300 isolated: a user event drives a sequence machine, so a
    read-only poster takes X on the TriggerState."""

    n = field(int, default=0)

    __events__ = ["Go"]
    __triggers__ = [
        trigger(
            "Amp",
            "Go, Go",
            action=_noop,
            perpetual=True,
            suppress=("ODE301", "ODE302"),
        )
    ]


class CycleGadget(Persistent):
    """ODE301 isolated: the per-instance X on the TriggerState gives the
    multi-instance self-edge, so two sessions visiting two instances in
    opposite orders close the cycle."""

    __events__ = ["Tick"]
    __triggers__ = [
        trigger(
            "Spin",
            "Tick",
            action=_noop,
            perpetual=True,
            suppress=("ODE300", "ODE302"),
        )
    ]


class UpgradeGadget(Persistent):
    """ODE302 isolated: ``Fire`` at the start state only reads the
    TriggerState (S); ``Arm`` advances (X) — the classic upgrade race."""

    __events__ = ["Arm", "Fire"]
    __triggers__ = [
        trigger(
            "Up",
            "Arm, Fire",
            action=_noop,
            perpetual=True,
            suppress=("ODE300", "ODE301"),
        )
    ]


class WriterOnlyGadget(Persistent):
    """ODE300 negative control: the only watched event wraps a member
    function that writes, so no posting path is read-only."""

    total = field(int, default=0)

    __events__ = ["after bump"]
    __triggers__ = [
        trigger(
            "Tally",
            "after bump",
            action=_noop,
            perpetual=True,
            suppress=("ODE301", "ODE302"),
        )
    ]

    def bump(self):
        self.total += 1


class InertBox(Persistent):
    """Zero-trigger control: no footprints, no ODE3xx, empty static
    profile (its name also anchors the synthetic ODE310 traces)."""

    payload = field(int, default=0)

    __events__ = ["Poke"]


class StaleDynamicSuppress(Persistent):
    """ODE310 is dynamic-only, so suppressing it statically is stale —
    but only judgeable when the concurrency pass actually runs."""

    __events__ = ["Hop"]
    __triggers__ = [
        trigger(
            "Jumpy",
            "Hop",
            action=_noop,
            perpetual=True,
            suppress=("ODE300", "ODE301", "ODE302", "ODE310"),
        )
    ]


# --------------------------------------------------------------------------
# shared expensive captures


@pytest.fixture(scope="module")
def locksim_trace():
    """One traced locksim run: (obs records, WorkloadResult)."""
    trace: list[TraceRecord] = []
    result = run_hot_set(
        4, 2, n_sessions=4, transactions=24, seed=1996, trace_out=trace
    )
    return trace, result


# --------------------------------------------------------------------------
# footprint inference


class TestFootprintInference:
    def test_watch_footprint_order(self):
        metatype = HotObject.__metatype__
        (info,) = metatype.trigger_infos
        fp = infer_lock_footprint(info, metatype)
        # The paper's Section 5.4.5 posting path, in acquisition order:
        # dereference, read the group the object's header names, X-lock
        # it on an advance.  A posting locks no trigger-index bucket.
        assert [(s.resource, s.mode) for s in fp.steps] == [
            ("object:HotObject", "S"),
            ("state-group:HotObject", "S"),
            ("state-group:HotObject", "X"),
        ]
        assert fp.advancing == frozenset({"Ping", "Pong"})
        assert fp.readonly_postable >= frozenset({"Ping", "Pong"})
        assert not fp.detached_action
        assert fp.upgrades() == (("state-group:HotObject", ("object:HotObject",)),)
        assert "X(state-group:HotObject)" in fp.describe()

    def test_watched_writer_takes_object_exclusive(self):
        metatype = WriterOnlyGadget.__metatype__
        (info,) = metatype.trigger_infos
        fp = infer_lock_footprint(info, metatype)
        object_x = [
            s
            for s in fp.x_steps()
            if s.resource == "object:WriterOnlyGadget"
        ]
        assert object_x and object_x[0].why.startswith(
            "watched member function"
        )
        # bump() writes, so nothing is postable read-only.
        assert fp.readonly_postable == frozenset()

    def test_advancing_vs_start_advancing(self):
        (info,) = UpgradeGadget.__metatype__.trigger_infos
        assert advancing_symbols(info.compiled) == frozenset({"Arm", "Fire"})
        # Fire only advances once Arm has moved the machine off start.
        assert start_advancing_symbols(info.compiled) == frozenset({"Arm"})

    def test_action_writer_includes_anchor_exclusive(self):
        metatype = CredCard.__metatype__
        infos = {i.name: i for i in metatype.trigger_infos}
        fp = infer_lock_footprint(infos["AutoPayDown"], metatype)
        assert "object:CredCard" in {s.resource for s in fp.x_steps()}


# --------------------------------------------------------------------------
# static passes (ODE300 / ODE301 / ODE302)


class TestStaticPasses:
    def test_ode300_isolated(self):
        report = analyze_classes([AmplifyGadget], concurrency=True)
        findings = _ode3(report)
        assert [d.code for d in findings] == ["ODE300"]
        message = findings[0].message
        assert "X(state-group:AmplifyGadget)" in message
        assert "'Go'" in message
        assert "read access becomes write access" in message

    def test_ode300_needs_a_readonly_poster(self):
        report = analyze_classes([WriterOnlyGadget], concurrency=True)
        assert _ode3(report) == []

    def test_ode301_isolated_and_possible_without_confirm(self):
        report = analyze_classes([CycleGadget], concurrency=True)
        findings = _ode3(report)
        assert [d.code for d in findings] == ["ODE301"]
        assert "state-group:CycleGadget" in findings[0].message
        assert "POSSIBLE" in findings[0].message

    def test_ode301_confirmed_by_witness(self):
        report = analyze_classes(
            [CycleGadget], concurrency=True, confirm_witnesses=True
        )
        (finding,) = _ode3(report)
        assert finding.code == "ODE301"
        assert "CONFIRMED" in finding.message

    def test_ode302_confirmed_by_witness(self):
        report = analyze_classes(
            [UpgradeGadget], concurrency=True, confirm_witnesses=True
        )
        (finding,) = _ode3(report)
        assert finding.code == "ODE302"
        assert "state-group:UpgradeGadget" in finding.message
        assert "CONFIRMED" in finding.message

    def test_no_triggers_no_findings(self):
        assert _ode3(analyze_classes([InertBox], concurrency=True)) == []

    def test_pass_is_opt_in(self):
        assert _ode3(analyze_classes([AmplifyGadget])) == []

    def test_pass_is_opt_in_on_hot_object(self):
        assert _ode3(analyze_classes([HotObject])) == []

    def test_witness_handles_unbuildable_plans(self):
        metatype = CredCard.__metatype__
        infos = {i.name: i for i in metatype.trigger_infos}
        # AutoRaiseLimit takes an activation parameter, so the witness
        # degrades to POSSIBLE instead of raising.
        witness = replay_witness(metatype, infos["AutoRaiseLimit"], "cross")
        assert not witness.confirmed
        assert witness.tag().startswith("POSSIBLE")

    def test_locksim_acceptance(self):
        """ISSUE acceptance: ODE300 on Watch with the exact amplifying X
        set, and a scheduler-CONFIRMED ODE301 cycle."""
        report = analyze_classes(
            [HotObject], concurrency=True, confirm_witnesses=True
        )
        codes = {d.code for d in _ode3(report)}
        assert {"ODE300", "ODE301", "ODE302"} <= codes
        (ode300,) = report.by_code("ODE300")
        assert str(ode300.location) == "HotObject.Watch"
        assert "X(state-group:HotObject)" in ode300.message
        assert "'Ping', 'Pong'" in ode300.message
        assert any(
            "CONFIRMED" in d.message for d in report.by_code("ODE301")
        )


# --------------------------------------------------------------------------
# suppression interplay


class TestSuppressionInterplay:
    def test_stale_dynamic_suppress_flagged_when_pass_runs(self):
        report = analyze_classes([StaleDynamicSuppress], concurrency=True)
        stale = report.by_code("ODE205")
        assert len(stale) == 1
        assert "'ODE310'" in stale[0].message
        # The three genuinely-produced codes are acknowledged, not stale.
        assert _ode3(report) == []

    def test_ode3_suppressions_unjudged_when_pass_off(self):
        report = analyze_classes([StaleDynamicSuppress])
        assert report.by_code("ODE205") == []


# --------------------------------------------------------------------------
# the dynamic lockset checker (ODE310)


def _synthetic_trace() -> list[TraceRecord]:
    """A trace that contradicts InertBox's (empty) static model three
    ways: unpredicted X, unpredicted upgrade, unpredicted deadlock."""
    return [
        TraceRecord(
            seq=1,
            ts=0.0,
            kind="post.begin",
            span=1,
            data=(("rid", 7), ("type", "InertBox")),
        ),
        TraceRecord(
            seq=2,
            ts=0.001,
            kind="lock.acquire",
            span=1,
            data=(("txid", 1), ("resource", 7), ("mode", "S"), ("upgrade", False)),
        ),
        TraceRecord(
            seq=3,
            ts=0.002,
            kind="lock.acquire",
            span=1,
            data=(("txid", 1), ("resource", 7), ("mode", "X"), ("upgrade", True)),
        ),
        TraceRecord(
            seq=4,
            ts=0.003,
            kind="lock.deadlock",
            span=1,
            data=(("txid", 2), ("cycle", [2, 1])),
        ),
    ]


class TestDynamicLockset:
    def test_synthetic_contradictions(self):
        findings = check_lock_trace(
            _synthetic_trace(), [InertBox.__metatype__]
        )
        assert [d.code for d in findings] == ["ODE310"] * 3
        messages = " | ".join(d.message for d in findings)
        assert "acquired X(object:InertBox)" in messages
        assert "upgraded object:InertBox" in messages
        assert "predicts no cycle" in messages

    def test_jsonl_round_trip_preserves_findings(self):
        records = _synthetic_trace()
        reloaded = records_from_jsonl(records_to_jsonl(records))
        assert reloaded == records
        direct = check_lock_trace(records, [InertBox.__metatype__])
        via_jsonl = check_lock_trace(reloaded, [InertBox.__metatype__])
        assert [(d.code, d.message) for d in direct] == [
            (d.code, d.message) for d in via_jsonl
        ]

    def test_wait_only_grants_still_count(self):
        """A lock granted after waiting emits only ``lock.wait`` — the
        checker must still see the acquisition."""
        records = [
            TraceRecord(
                seq=1,
                ts=0.0,
                kind="post.begin",
                span=1,
                data=(("rid", 9), ("type", "InertBox")),
            ),
            TraceRecord(
                seq=2,
                ts=0.001,
                kind="lock.wait",
                span=1,
                data=(("txid", 3), ("resource", 9), ("mode", "X"), ("blockers", [1])),
            ),
        ]
        findings = check_lock_trace(records, [InertBox.__metatype__])
        assert [d.code for d in findings] == ["ODE310"]
        assert "X(object:InertBox)" in findings[0].message

    def test_locksim_trace_is_model_clean(self, locksim_trace):
        """ISSUE acceptance: the dynamic checker round-trips an E6-style
        trace without contradicting the static lock-order graph."""
        trace, result = locksim_trace
        assert trace, "tracing captured nothing"
        assert result.deadlock_aborts > 0  # the run actually contended
        metatypes = [HotObject.__metatype__]
        assert check_lock_trace(trace, metatypes) == []
        reloaded = records_from_jsonl(records_to_jsonl(trace))
        assert check_lock_trace(reloaded, metatypes) == []

    def test_observed_profile_within_static_locksim(self, locksim_trace):
        """Property: footprint inference over-approximates every traced
        object/group acquisition (meta records are engine plumbing the
        per-posting footprints do not name rid-by-rid)."""
        trace, _ = locksim_trace
        metatypes = [HotObject.__metatype__]
        observed = observed_lock_profile(trace, metatypes)
        static = static_lock_profile(metatypes)
        checked = 0
        for cls, modes in observed.items():
            if cls.split(":", 1)[0] not in ("object", "state-group"):
                continue
            checked += 1
            assert modes <= static.get(cls, set()), cls
        assert checked >= 2  # object:HotObject and state-group:HotObject
        assert "X" in observed["state-group:HotObject"]

    def test_observed_profile_within_static_credit_card(self, mm_db):
        workload = CreditCardWorkload(seed=7)
        ptrs = workload.setup(
            mm_db, 4, activate_deny=True, activate_raise=True
        )
        with obs.enabled() as recorder:
            workload.run(mm_db, ptrs, 60)
            records = recorder.records()
        assert records
        metatypes = [CredCard.__metatype__]
        observed = observed_lock_profile(records, metatypes)
        static = static_lock_profile(metatypes)
        for cls, modes in observed.items():
            if cls.split(":", 1)[0] not in ("object", "state"):
                continue
            assert modes <= static.get(cls, set()), cls
        # buy() writes the card, so the object class must be observed X
        # and statically predicted X.
        assert "X" in observed["object:CredCard"]
        assert "X" in static["object:CredCard"]


# --------------------------------------------------------------------------
# determinism of the cooperative workload (and its retry backoff)


class TestDeterminism:
    def test_run_hot_set_is_replayable(self):
        first = run_hot_set(3, 1, n_sessions=3, transactions=9, seed=7)
        second = run_hot_set(3, 1, n_sessions=3, transactions=9, seed=7)
        assert first.key() == second.key()
        assert first.committed == 9


# --------------------------------------------------------------------------
# CLI contract (subprocesses, so gadget classes cannot leak)


class TestCommandLine:
    def test_concurrency_json_findings(self):
        proc = _run_cli(
            "src/repro/workloads/locksim.py",
            "--concurrency",
            "--no-confirm",
            "--format",
            "json",
        )
        assert proc.returncode == 0, proc.stderr  # warnings < error
        payload = json.loads(proc.stdout)
        codes = {d["code"] for d in payload}
        assert {"ODE300", "ODE301", "ODE302"} <= codes

    def test_fail_on_warning_crosses_threshold(self):
        proc = _run_cli(
            "src/repro/workloads/locksim.py",
            "--concurrency",
            "--no-confirm",
            "--fail-on",
            "warning",
        )
        assert proc.returncode == 1

    def test_examples_self_check_stays_clean(self):
        proc = _run_cli(
            "examples", "--fail-on", "info", "--concurrency", "--no-confirm"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# --------------------------------------------------------------------------
# threaded confirmation (pytest -m concurrency)


@pytest.mark.concurrency
class TestThreadedConfirmation:
    def test_confirmed_cycle_deadlocks_with_real_threads(self, mm_db):
        """The scheduler-CONFIRMED ODE301 prediction on HotObject is not
        an artifact of cooperative scheduling: preemptive threads posting
        to two instances in opposite orders deadlock (and recover) too."""
        report = analyze_classes(
            [HotObject], concurrency=True, confirm_witnesses=True
        )
        assert any(
            "CONFIRMED" in d.message for d in report.by_code("ODE301")
        )

        db = mm_db
        with db.transaction():
            handles = [db.pnew(HotObject) for _ in range(2)]
            for handle in handles:
                handle.Watch()
            ptrs = [h.ptr for h in handles]

        stats = db.storage.lock_manager.stats
        deadlocks_before = stats.deadlocks
        n_threads, txns_each = 8, 30
        committed = []
        errors = []

        def worker(index):
            session = db.session(f"cross-{index}")
            order = ptrs if index % 2 == 0 else list(reversed(ptrs))
            try:
                for _ in range(txns_each):

                    def body(txn):
                        for ptr in order:
                            handle = session.deref(ptr)
                            handle.post_event("Ping")
                            handle.post_event("Pong")

                    session.run(body, retries=500)
                    committed.append(index)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"cross-{i}")
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        # Conservation: every transaction committed exactly once despite
        # deadlock victims being aborted and retried.
        assert len(committed) == n_threads * txns_each
        assert db.session_stats.retry_exhausted == 0
        # The predicted cross-order cycle materialized under real threads.
        assert stats.deadlocks > deadlocks_before
