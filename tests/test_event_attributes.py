"""Event-attribute tests (Section 8: masks may inspect the member
function's parameters)."""

import pytest

from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.errors import TriggerDeclarationError
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class Teller(Persistent):
    total = field(float, default=0.0)
    alerts = field(list, default=[])

    __events__ = ["after deposit", "after transfer"]
    __masks__ = {
        # (self, params, event): the Section 8 extension — the mask reads
        # the amount argument of the posting member-function invocation.
        "big_amount": lambda self, params, event: (
            event.args and event.args[0] > params.get("threshold", 1e9)
        ),
        # Keyword arguments are visible too.
        "flagged_dest": lambda self, params, event: (
            event.kwargs.get("dest") == "suspicious"
        ),
    }
    __triggers__ = [
        trigger(
            "BigDeposit",
            "after deposit & big_amount",
            action=lambda self, ctx: self.alert("big"),
            params=("threshold",),
            perpetual=True,
        ),
        trigger(
            "BadTransfer",
            "after transfer & flagged_dest",
            action=lambda self, ctx: self.alert("bad-dest"),
            perpetual=True,
        ),
    ]

    def deposit(self, amount):
        self.total += amount

    def transfer(self, amount, dest=""):
        self.total -= amount

    def alert(self, tag):
        self.alerts = self.alerts + [tag]


class TestEventAttributes:
    def test_mask_sees_positional_argument(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            teller = db.pnew(Teller)
            ptr = teller.ptr
            teller.BigDeposit(1000.0)
            teller.deposit(500.0)   # below threshold
            teller.deposit(5000.0)  # above
        with db.transaction():
            assert db.deref(ptr).alerts == ["big"]

    def test_mask_sees_keyword_argument(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            teller = db.pnew(Teller)
            ptr = teller.ptr
            teller.BadTransfer()
            teller.transfer(10.0, dest="normal")
            teller.transfer(10.0, dest="suspicious")
        with db.transaction():
            assert db.deref(ptr).alerts == ["bad-dest"]

    def test_event_method_name_available(self, any_engine_db):
        db = any_engine_db
        seen = []

        class MethodNameProbe(Persistent):
            __events__ = ["after poke"]
            __masks__ = {
                "record": lambda self, params, event: seen.append(event.method)
                or True,
            }
            __triggers__ = [
                trigger(
                    "T", "after poke & record",
                    action=lambda s, c: None, perpetual=True,
                )
            ]

            def poke(self):
                pass

        with db.transaction():
            probe = db.pnew(MethodNameProbe)
            probe.T()
            probe.poke()
        assert seen == ["poke"]

    def test_activation_time_masks_get_null_occurrence(self, any_engine_db):
        db = any_engine_db
        occurrences = []

        class Starter(Persistent):
            __events__ = ["after go"]
            __masks__ = {
                "note": lambda self, params, event: occurrences.append(
                    event.eventnum
                )
                or True,
            }
            __triggers__ = [
                # (+go) & note has a start obligation after each go run —
                # but also evaluates at activation via the start state?  No:
                # non-nullable, so first evaluation happens at first event.
                trigger(
                    "T", "(+(after go)) & note",
                    action=lambda s, c: None, perpetual=True,
                )
            ]

            def go(self):
                pass

        with db.transaction():
            starter = db.pnew(Starter)
            starter.T()
            starter.go()
        assert len(occurrences) == 1
        assert occurrences[0] != 0  # a real posting, not the null occurrence

    def test_local_rules_see_event_attributes(self):
        hits = []

        class Meter(Monitored):
            __events__ = ["after read"]
            __masks__ = {
                "spike": lambda self, params, event: event.args[0] > 100,
            }
            __triggers__ = [
                trigger(
                    "OnSpike", "after read & spike",
                    action=lambda self, ctx: hits.append(1), perpetual=True,
                )
            ]

            def read(self, value):
                pass

        system = LocalTriggerSystem()
        meter = Meter()
        handle = system.monitor(meter)
        handle.OnSpike()
        handle.read(50)
        handle.read(150)
        assert hits == [1]

    def test_zero_arg_mask_rejected(self):
        with pytest.raises(TriggerDeclarationError):

            class ZeroArgMaskClass(Persistent):
                __events__ = ["after f"]
                __masks__ = {"broken": lambda: True}
                __triggers__ = [
                    trigger("T", "after f & broken", action=lambda s, c: None)
                ]

                def f(self):
                    pass

    def test_legacy_one_and_two_arg_masks_still_work(self, any_engine_db):
        db = any_engine_db

        class Mixed(Persistent):
            v = field(int, default=0)
            n = field(int, default=0)
            __events__ = ["after set"]
            __masks__ = {
                "one": lambda self: self.v > 0,
                "two": lambda self, params: self.v > params.get("floor", 0),
            }
            __triggers__ = [
                trigger("A", "after set & one", action="inc", perpetual=True),
                trigger(
                    "B", "after set & two",
                    action=lambda self, ctx: self.inc(),
                    params=("floor",), perpetual=True,
                ),
            ]

            def set(self, v):
                self.v = v

            def inc(self):
                self.n += 1

        with db.transaction():
            mixed = db.pnew(Mixed)
            ptr = mixed.ptr
            mixed.A()
            mixed.B(10)
            mixed.set(5)   # one: fires; two: 5 <= 10 no
            mixed.set(20)  # both fire
        with db.transaction():
            assert db.deref(ptr).n == 3
