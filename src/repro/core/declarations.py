"""The active-class declaration processor — our stand-in for the O++ compiler.

An active persistent class declares, alongside its fields and methods::

    class CredCard(Persistent):
        issued_to = field(str)
        cred_lim = field(float, default=0.0)
        curr_bal = field(float, default=0.0)

        __events__ = ["after buy", "after pay_bill", "BigBuy"]
        __masks__ = {
            "over_limit": lambda self: self.curr_bal > self.cred_lim,
            "MoreCred": lambda self: self.more_cred(),
        }
        __triggers__ = [
            trigger("DenyCredit", "after buy & over_limit",
                    action=deny_credit_action, perpetual=True),
            trigger("AutoRaiseLimit",
                    "relative((after buy & MoreCred), after pay_bill)",
                    action="raise_limit", params=("amount",)),
        ]

        def buy(self, store, amount): ...

When the class is created, this module does what the O++ compiler did at
compile time (Sections 5.2–5.4): construct the ``eventRep`` integers,
compile each trigger's event expression to an extended FSM (every program
run — the strategy of Section 5.1.3), generate the mask and action
functions, generate the member-function wrappers that post events, and
store it all in the class's metatype (the ``type_CredCard`` descriptor).

Mask callables may take ``(self)`` or ``(self, params)`` — the latter sees
the trigger's activation arguments.  Actions may be callables taking
``(self, ctx)`` (``self`` is a persistent handle in the action's
transaction, ``ctx`` a :class:`~repro.core.manager.TriggerContext`) or a
string naming a method, which is then called with the activation arguments
(the paper's ``RaiseLimit(amount)``).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.core.registry import global_event_registry
from repro.core.trigger_def import (
    CouplingMode,
    TriggerDecl,
    TriggerInfo,
    build_int_fsm,
)
from repro.errors import TriggerDeclarationError
from repro.events.compile import compile_expression
from repro.events.fsm import EventDecl


def trigger(
    name: str,
    expression: str,
    action: Callable[..., Any] | str,
    params: tuple[str, ...] | list[str] = (),
    perpetual: bool = False,
    coupling: CouplingMode | str = CouplingMode.IMMEDIATE,
    masks: dict[str, Callable[..., bool]] | None = None,
    posts: tuple[str, ...] | list[str] = (),
    suppress: tuple[str, ...] | list[str] = (),
) -> TriggerDecl:
    """Declare a trigger inside a class's ``__triggers__`` list.

    ``posts`` optionally names the user events the action raises; it is
    not enforced at run time but feeds the static analyzer's cascade-cycle
    detection (:mod:`repro.analysis.cascade`).  ``suppress`` lists
    analyzer codes this declaration acknowledges as intended (e.g.
    ``("ODE020",)`` on a deliberate escalation pair).
    """
    return TriggerDecl(
        name=name,
        expression=expression,
        action=action,
        params=tuple(params),
        perpetual=perpetual,
        coupling=CouplingMode.parse(coupling),
        masks=dict(masks or {}),
        posts=tuple(posts),
        suppress=tuple(suppress),
    )


def mask_arity(fn: Callable[..., bool]) -> int:
    """How many positional parameters mask callable *fn* declares (0 when
    it has no inspectable signature).  A mask is called with that many of
    ``(self, params, event)``, all three from 3 up."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(
        p.kind in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for p in parameters
    )


def _adapt_mask(name: str, fn: Callable[..., bool]) -> Callable[..., bool]:
    """Normalize a mask callable to the (instance, params, event) form.

    Masks may take ``(self)``, ``(self, params)`` — the trigger's
    activation arguments — or ``(self, params, event)``, where ``event``
    is an :class:`~repro.core.posting.EventOccurrence` exposing the member
    function's arguments (the Section 8 "attributes of events" extension:
    "allowing each member function event to look at the parameters passed
    to the corresponding member function, at least in masks").
    """
    arity = mask_arity(fn)
    if arity >= 3:
        return fn
    if arity == 2:
        return lambda obj, params, event, _fn=fn: _fn(obj, params)
    if arity == 1:
        return lambda obj, params, event, _fn=fn: _fn(obj)
    raise TriggerDeclarationError(
        f"mask {name!r} must accept (self), (self, params), or "
        "(self, params, event); it accepts nothing"
    )


def _adapt_action(
    cls_name: str, decl: TriggerDecl
) -> Callable[..., Any]:
    """Normalize the action to the (handle, ctx) calling form."""
    action = decl.action
    if isinstance(action, str):
        method_name = action

        def call_method(handle, ctx):
            method = getattr(handle, method_name, None)
            if method is None:
                raise TriggerDeclarationError(
                    f"trigger {cls_name}.{decl.name}: action method "
                    f"{method_name!r} does not exist"
                )
            return method(*ctx.args)

        return call_method
    if not callable(action):
        raise TriggerDeclarationError(
            f"trigger {cls_name}.{decl.name}: action must be callable or a "
            f"method name, got {type(action).__name__}"
        )
    return action


def process_active_class(cls: type) -> None:
    """Compile a class's ``__events__`` / ``__masks__`` / ``__triggers__``.

    Called from ``Persistent.__init_subclass__``.  Inherited events, masks,
    and triggers are merged in (events of a base class are posted to
    derived objects too, Section 4), and each trigger defined *here* is
    compiled against the full inherited alphabet.  A trigger named like
    another the class has (its own or inherited) would be unreachable
    through a handle, so it is refused.
    """
    from repro.objects.metatype import global_type_registry

    registry = global_type_registry()
    metatype = registry.require_by_class(cls)
    event_registry = global_event_registry()

    # -- merge inherited machinery (nearest base first) ----------------------
    inherited_events: list[EventDecl] = []
    inherited_masks: dict[str, Callable[..., bool]] = {}
    inherited_mask_specs: dict[str, Callable[..., bool]] = {}
    inherited_infos: list[TriggerInfo] = []
    for base in reversed(metatype.base_metatypes(registry)):
        for decl in base.declared_events:
            if decl not in inherited_events:
                inherited_events.append(decl)
        inherited_masks.update(base.masks)
        inherited_mask_specs.update(base.mask_specs)
        for info in base.all_trigger_infos:
            if info not in inherited_infos:  # once, though two bases share it
                inherited_infos.append(info)
        metatype.event_ints.update(base.event_ints)
        metatype.event_owner.update(base.event_owner)

    # -- own event declarations ------------------------------------------------
    own_events: list[EventDecl] = []
    for item in cls.__dict__.get("__events__", []):
        decl = item if isinstance(item, EventDecl) else EventDecl.parse(str(item))
        if decl.is_method_event and not callable(getattr(cls, decl.name, None)):
            raise TriggerDeclarationError(
                f"{cls.__name__} declares event {decl.symbol!r} but has no "
                f"method {decl.name!r}"
            )
        if any(decl.symbol == d.symbol for d in own_events):
            raise TriggerDeclarationError(
                f"{cls.__name__} declares event {decl.symbol!r} twice"
            )
        own_events.append(decl)

    declared = list(inherited_events)
    for decl in own_events:
        if all(decl.symbol != d.symbol for d in declared):
            declared.append(decl)
            # Run-time unique-integer assignment (Section 5.2), owned by
            # the declaring class.
            metatype.event_ints[decl.symbol] = event_registry.assign(
                cls.__name__, decl.symbol
            )
            metatype.event_owner[decl.symbol] = cls.__name__

    metatype.declared_events = declared
    for decl in declared:
        if decl.kind == "user":
            eventnum = metatype.event_ints[decl.symbol]
            metatype.user_events.setdefault(decl.name, eventnum)

    # -- masks --------------------------------------------------------------------
    masks = dict(inherited_masks)
    mask_specs = dict(inherited_mask_specs)
    for name, fn in cls.__dict__.get("__masks__", {}).items():
        masks[name] = _adapt_mask(name, fn)
        mask_specs[name] = fn
    metatype.masks = masks
    metatype.mask_specs = mask_specs

    # -- triggers --------------------------------------------------------------------
    from repro.core.constraints import make_constraint_decl

    declared_triggers = list(cls.__dict__.get("__triggers__", []))
    own_constraints = cls.__dict__.get("__constraints__", {})
    if own_constraints and not declared:
        raise TriggerDeclarationError(
            f"{cls.__name__} declares constraints but no events; constraints "
            "are checked after declared events, so declare the mutating "
            "methods' events"
        )
    for name, predicate in own_constraints.items():
        declared_triggers.append(make_constraint_decl(name, predicate))

    own_infos: list[TriggerInfo] = []
    for decl in declared_triggers:
        if not isinstance(decl, TriggerDecl):
            raise TriggerDeclarationError(
                f"{cls.__name__}.__triggers__ entries must come from trigger(); "
                f"got {type(decl).__name__}"
            )
        trigger_masks = dict(masks)
        trigger_mask_specs = dict(mask_specs)
        for name, fn in decl.masks.items():
            trigger_masks[name] = _adapt_mask(name, fn)
            trigger_mask_specs[name] = fn
        compiled = compile_expression(
            decl.expression,
            declared,
            known_masks=trigger_masks.keys(),
        )
        info = TriggerInfo(
            name=decl.name,
            triggernum=len(own_infos),
            defining_type=cls.__name__,
            compiled=compiled,
            fsm=build_int_fsm(
                compiled,
                metatype.event_ints,
                event_registry,
                cls.__name__,
                f"{decl.name}:",
            ),
            action=_adapt_action(cls.__name__, decl),
            perpetual=decl.perpetual,
            coupling=CouplingMode.parse(decl.coupling),
            params=decl.params,
            masks={name: trigger_masks[name] for name in compiled.masks},
            mask_specs={
                name: trigger_mask_specs[name]
                for name in compiled.masks
                if name in trigger_mask_specs
            },
            posts=tuple(decl.posts),
            declared_masks=tuple(sorted(decl.masks)),
            suppress=tuple(decl.suppress),
            action_spec=decl.action,
        )
        own_infos.append(info)

    # -- member functions' events (`declared` holds the inherited events) --------
    event_nums: dict[str, dict[str, int]] = {}
    for decl in declared:
        if decl.is_method_event:
            nums = event_nums.setdefault(decl.name, {})
            nums[decl.kind] = metatype.event_ints[decl.symbol]
    method_events = {
        name: (nums.get("before"), nums.get("after"))
        for name, nums in event_nums.items()
    }
    metatype.install(own_infos, inherited_infos + own_infos, method_events)

    # A class (re)compilation changes the trigger universe — its infos are
    # fresh objects and event integers may have shifted — so every compiled
    # posting artifact keyed by the old schema version must be evicted.
    from repro.core.compiled import bump_schema_version

    bump_schema_version(f"process_active_class:{cls.__name__}")
