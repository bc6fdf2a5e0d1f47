"""No posting carries a mask pseudo-event.

A mask compiles into a mask state whose ``True``/``False`` pseudo-events
the cascade feeds back in (paper §3, §5.1.2).  They are integers of the
same event registry as the declared events (``true:<trigger>:<mask>``,
``false:...``), so an ``IntFsm``'s alphabet holds both.  The generated
group code (DESIGN.md §14) dispatches only on the *postable* integers,
``IntFsm.symbol_to_int.values()``: that is sound only if no entry point
can post a pseudo-event.  This file pins that premise at each one.
"""

from __future__ import annotations

import pytest

import perf.workloads
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.errors import UnknownEventError
from repro.events.fsm import FALSE_PREFIX, TRUE_PREFIX
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.opp import compile_opp_class
from repro.workloads import credit_card, trading
from tests.test_analysis import EXAMPLES_DIR, _ExampleLoader


class PostablePseudoGadget(Persistent):
    __events__ = ["Tick"]
    __masks__ = {"m": lambda self: True}
    __triggers__ = [trigger("Gate", "Tick & m", action=lambda s, c: None, perpetual=True)]


class PostablePseudoMeter(Monitored):
    __events__ = ["Tick"]
    __masks__ = {"m": lambda self: True}
    __triggers__ = [trigger("Gate", "Tick & m", action=lambda s, c: None, perpetual=True)]


def _pseudo_names(cls) -> list[str]:
    """The bare and the registered names of *cls*'s pseudo-events."""
    names = [f"{TRUE_PREFIX}m", f"{FALSE_PREFIX}m"]
    info = cls.__metatype__.trigger_by_name("Gate")
    for mask, outcome in info.fsm.pseudo:
        names.append(f"{TRUE_PREFIX if outcome else FALSE_PREFIX}Gate:{mask}")
    return names


@pytest.mark.parametrize("name", _pseudo_names(PostablePseudoGadget))
def test_no_persistent_entry_point_posts_a_pseudo_event(tmp_path, name):
    db = Database.open(str(tmp_path / "db"), engine="mm")
    try:
        with db.transaction():
            handle = db.pnew(PostablePseudoGadget)
            handle.Gate()
            before = db.trigger_system.stats.events_posted
            with pytest.raises(UnknownEventError):
                handle.post_event(name)
            with pytest.raises(UnknownEventError):
                db.post_many([(handle, name)])
            with pytest.raises(UnknownEventError):
                db.trigger_system.post_user_event(db, handle.ptr, handle._obj, name)
            assert db.trigger_system.stats.events_posted == before
    finally:
        db.close()


@pytest.mark.parametrize("name", _pseudo_names(PostablePseudoMeter))
def test_a_monitored_object_posts_no_pseudo_event(name):
    handle = LocalTriggerSystem().monitor(PostablePseudoMeter())
    handle.Gate()
    with pytest.raises(UnknownEventError):
        handle.post_event(name)


def _shipped_classes() -> list[type]:
    """Every class with triggers that ``examples/`` and
    ``perf/workloads.py`` declare, or import from the library, plus the
    class ``examples/opp_syntax.py`` compiles from O++ inside ``main``."""
    modules = [perf.workloads, credit_card, trading]
    modules += [_ExampleLoader.load(path) for path in sorted(EXAMPLES_DIR.glob("*.py"))]
    classes = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and getattr(value, "__metatype__", None) is not None
    }
    opp = _ExampleLoader.load(EXAMPLES_DIR / "opp_syntax.py")
    classes.add(
        compile_opp_class(
            opp.WAREHOUSE_ITEM,
            methods={"receive": lambda self, qty: None, "pick": lambda self, qty: None,
                     "file_restock": lambda self: None},
            masks={"below_reorder": lambda self: True, "non_negative": lambda self: True},
        )
    )
    return sorted(
        (cls for cls in classes if cls.__metatype__.all_trigger_infos),
        key=lambda cls: cls.__name__,
    )


def test_no_shipped_event_integer_is_a_pseudo_event():
    """The integers method wrappers and transaction events post
    (``metatype.event_ints``) never meet a trigger's pseudo-events, for
    every trigger of every shipped class."""
    checked = 0
    for cls in _shipped_classes():
        metatype = cls.__metatype__
        posted = set(metatype.event_ints.values())
        for info in metatype.all_trigger_infos:
            assert posted.isdisjoint(info.fsm.pseudo.values()), (cls.__name__, info.name)
            assert set(info.fsm.symbol_to_int.values()) <= posted, (cls.__name__, info.name)
            checked += 1
    assert checked >= 10  # the sweep found the shipped triggers
