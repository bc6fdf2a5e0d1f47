"""Cross-feature integration: determinism, indexes×triggers, full stack."""

import pytest

from repro.core.declarations import trigger
from repro.events.compile import compile_expression
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class TestCompilationDeterminism:
    """Persistent FSM state numbers are only valid across sessions because
    recompiling the same declarations yields the identical machine — the
    same bet the paper's recompile-every-program strategy makes."""

    @pytest.mark.parametrize(
        "text",
        [
            "after Buy",
            "relative((after Buy & m), after PayBill)",
            "+(after Buy || BigBuy), after PayBill",
            "^(after Buy, (BigBuy & m))",
        ],
    )
    def test_recompilation_is_bit_identical(self, text):
        decls = ["BigBuy", "after PayBill", "after Buy"]
        a = compile_expression(text, decls)
        b = compile_expression(text, decls)
        assert len(a.fsm) == len(b.fsm)
        assert a.fsm.start == b.fsm.start
        for state_a, state_b in zip(a.fsm.states, b.fsm.states):
            assert state_a.statenum == state_b.statenum
            assert state_a.accept == state_b.accept
            assert state_a.masks == state_b.masks
            assert state_a.transitions == state_b.transitions


class Gauge(Persistent):
    """An indexed field updated *by a trigger action* — the index must see
    writes that originate inside the trigger machinery too."""

    level = field(float, default=0.0)
    severity = field(int, default=0)

    __events__ = ["after report"]
    __masks__ = {"high": lambda self: self.level > 100.0}
    __triggers__ = [
        trigger(
            "Escalate",
            "after report & high",
            action=lambda self, ctx: self.escalate(),
            perpetual=True,
        )
    ]

    def report(self, level):
        self.level = level

    def escalate(self):
        self.severity += 1


class TestIndexesMeetTriggers:
    @pytest.fixture
    def db(self, db_path):
        database = Database.open(db_path, engine="disk")
        yield database
        if not database.closed:
            database.close()

    def test_trigger_action_updates_indexed_field(self, db):
        with db.transaction():
            db.create_index(Gauge, "severity")
            gauge = db.pnew(Gauge)
            ptr = gauge.ptr
            gauge.Escalate()
        with db.transaction():
            db.deref(ptr).report(150.0)  # trigger bumps severity to 1
        with db.transaction():
            assert [h.ptr for h in db.find(Gauge, "severity", 1)] == [ptr]
            assert db.find(Gauge, "severity", 0) == []

    def test_aborted_trigger_update_leaves_index_clean(self, db):
        from repro.errors import TransactionAbort

        with db.transaction():
            db.create_index(Gauge, "severity")
            gauge = db.pnew(Gauge)
            ptr = gauge.ptr
            gauge.Escalate()
        with db.transaction():
            db.deref(ptr).report(150.0)
            raise TransactionAbort()
        with db.transaction():
            assert [h.ptr for h in db.find(Gauge, "severity", 0)] == [ptr]
            assert db.find(Gauge, "severity", 1) == []

    def test_index_triggers_and_crash_together(self, db_path):
        db = Database.open(db_path, engine="disk")
        with db.transaction():
            db.create_index(Gauge, "severity")
            gauge = db.pnew(Gauge)
            ptr = gauge.ptr
            gauge.Escalate()
        with db.transaction():
            db.deref(ptr).report(200.0)  # committed escalation
        db.simulate_crash()
        db2 = Database.open(db_path, engine="disk")
        with db2.transaction():
            assert [h.ptr for h in db2.find(Gauge, "severity", 1)] == [ptr]
            assert db2.trigger_system.verify_integrity() == []
        db2.close()


@pytest.mark.obs
class TestTracedCrashRecovery:
    """Observability meets the fault harness: a run that crashes mid-commit
    records a coherent trace, the trace survives a JSONL round trip, and
    the recovered database replays cleanly under tracing too."""

    def test_traced_crash_recovery_round_trips(self, db_path, tmp_path):
        from repro import obs
        from repro.errors import InjectedCrashError
        from repro.faults import FaultInjector
        from repro.obs.trace import load_jsonl, render_trace, summarize_trace
        from repro.workloads.credit_card import CreditCardWorkload

        db = Database.open(db_path, engine="disk")
        workload = CreditCardWorkload(seed=7)
        ptrs = workload.setup(db, 3, activate_deny=True)
        db.close()

        # Crash on a later WAL force — mid-workload, after some commits
        # (reopening the database itself forces the log a few times).
        inj = FaultInjector().crash_on("wal.force", after=8)
        db = Database.open(db_path, engine="disk", injector=inj)
        recorder = obs.enable()
        try:
            with pytest.raises(InjectedCrashError):
                workload.run(db, ptrs, 100)
        finally:
            obs.disable()
        db.simulate_crash()

        # The trace captured work up to the crash and round-trips exactly.
        records = recorder.records()
        assert any(r.kind == "post.begin" for r in records)
        assert any(r.kind == "wal.append" for r in records)
        path = str(tmp_path / "crash-trace.jsonl")
        recorder.export(path)
        reloaded = load_jsonl(path)
        assert reloaded == records
        rendered = render_trace(reloaded)
        assert len(rendered) == len(records)
        assert summarize_trace(reloaded)["txn.begin"] >= 1

        # Recovery replays cleanly — traced as well.
        with obs.enabled() as recovery_recorder:
            recovered = Database.open(db_path, engine="disk")
            with recovered.transaction():
                balances = [recovered.deref(p).curr_bal for p in ptrs]
                assert recovered.trigger_system.verify_integrity() == []
        assert all(b >= 0.0 for b in balances)
        recovery_records = recovery_recorder.records()
        # The verification transaction only read: it is traced, but a
        # transaction that changed nothing never touches the log.
        assert any(r.kind == "txn.begin" for r in recovery_records)
        assert not any(r.kind == "wal.append" for r in recovery_records)
        # The recovery trace round-trips through the same JSONL path.
        rec_path = str(tmp_path / "recovery-trace.jsonl")
        recovery_recorder.export(rec_path)
        assert load_jsonl(rec_path) == recovery_records
        recovered.close()
