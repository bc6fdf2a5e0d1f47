"""Inter-object triggers (paper Section 8 future work).

    "Our current work considers only intra-object triggers, triggers
    involving a single anchor object.  We need to extend this to
    inter-object triggers where there are several anchoring events so that
    triggers like 'if AT&T goes below 60 and the price of gold stabilizes,
    buy 1000 shares of AT&T' can be expressed."

Implementation strategy — built *entirely out of intra-object machinery*,
which is why it made a natural extension:

* A hidden persistent **coordinator** object is created per inter-object
  trigger; its dynamically-built class declares one user-defined event per
  anchor alias and one trigger whose composite expression ranges over those
  alias events.
* Each anchor object gets a perpetual **bridge trigger** (a run-time-
  constructed ``TriggerInfo`` registered under a shim type name) whose
  expression watches that anchor's events; its action posts the alias event
  to the coordinator.
* The coordinator's trigger fires the user action with all anchor pointers
  available in its parameters.

Everything persistent (bridge states, coordinator state) survives sessions;
an application reopening the database re-creates the
:class:`InterObjectTrigger` with the same name, which re-registers the
dynamic classes so ``trigobjtype`` resolution works again — the run-time
analogue of recompiling FSMs with every program (Section 5.1.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.declarations import trigger as trigger_decl
from repro.core.registry import global_event_registry
from repro.core.trigger_def import CouplingMode, TriggerInfo, build_int_fsm
from repro.errors import TriggerDeclarationError, TriggerError
from repro.events.compile import compile_expression
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database


class _BridgeShim:
    """Pseudo-metatype resolving a single run-time bridge trigger."""

    def __init__(self, name: str, info: TriggerInfo):
        self.name = name
        self.pyclass = object  # bridges attach to any anchor class
        self.trigger_infos = [info]

    def trigger_info(self, triggernum: int) -> TriggerInfo:
        if triggernum != 0:
            raise TriggerError(f"bridge {self.name} has only trigger 0")
        return self.trigger_infos[0]


_COORD_CACHE: dict[str, type] = {}


def _coordinator_class(
    name: str,
    aliases: tuple[str, ...],
    expression: str,
    action: Callable[..., Any],
    masks: dict[str, Callable[..., bool]],
    perpetual: bool,
    coupling: CouplingMode | str,
) -> type:
    """Build (or rebuild) the coordinator class for this trigger name."""
    cls_name = f"InterObj_{name}"
    cls = type(
        cls_name,
        (Persistent,),
        {
            "__events__": list(aliases),
            "__masks__": dict(masks),
            "__triggers__": [
                trigger_decl(
                    "Main",
                    expression,
                    action=action,
                    params=("anchors",),
                    perpetual=perpetual,
                    coupling=coupling,
                )
            ],
        },
    )
    _COORD_CACHE[cls_name] = cls
    return cls


class InterObjectTrigger:
    """A trigger anchored at several objects.

    ``anchors`` maps an alias to ``(pointer, fragment_expression)``: when
    the fragment (an ordinary event expression over the anchor's declared
    events, masks allowed via ``anchor_masks``) is satisfied on that
    anchor, the alias fires as a user-defined event of the coordinator.
    ``expression`` is a composite expression over the aliases.  ``action``
    receives the coordinator handle and a context whose parameters include
    ``anchors`` (alias → pointer), so it can reach every anchor object.
    """

    def __init__(
        self,
        db: "Database",
        name: str,
        anchors: dict[str, tuple[PersistentPtr, str]],
        expression: str,
        action: Callable[..., Any],
        *,
        anchor_masks: dict[str, dict[str, Callable[..., bool]]] | None = None,
        masks: dict[str, Callable[..., bool]] | None = None,
        perpetual: bool = False,
        coupling: CouplingMode | str = CouplingMode.IMMEDIATE,
    ):
        if not anchors:
            raise TriggerDeclarationError("an inter-object trigger needs anchors")
        self.db = db
        self.name = name
        self.anchors = dict(anchors)
        aliases = tuple(sorted(anchors))
        anchor_masks = anchor_masks or {}

        coordinator_cls = _coordinator_class(
            name, aliases, expression, action, masks or {}, perpetual, coupling
        )

        catalog_key = f"interobject:{name}"
        manager = db.txn_manager
        own_txn = manager.current_or_none() is None
        if own_txn:
            txn = manager.begin()
        try:
            rid = db.catalog_get(catalog_key)
            fresh = rid is None
            if fresh:
                handle = db.pnew(coordinator_cls)
                db.catalog_set(manager.current(), catalog_key, handle.ptr.rid)
                self.coordinator = handle.ptr
            else:
                self.coordinator = PersistentPtr(db.name, rid)
            self._install_bridges(anchor_masks, fresh)
            if fresh:
                anchors_param = {alias: ptr for alias, (ptr, _) in anchors.items()}
                main_info = coordinator_cls.__metatype__.trigger_by_name("Main")
                self.main_trigger_id = db.trigger_system.activate(
                    db, self.coordinator, main_info, anchors_param
                )
            if own_txn:
                manager.commit(txn)
        except BaseException:
            if own_txn and txn.is_active:
                manager.abort(txn, explicit=False)
            raise

    def _install_bridges(
        self,
        anchor_masks: dict[str, dict[str, Callable[..., bool]]],
        fresh: bool,
    ) -> None:
        db = self.db
        registry = db.registry
        event_registry = global_event_registry()
        coordinator = self.coordinator

        for alias in sorted(self.anchors):
            ptr, fragment = self.anchors[alias]
            anchor_handle = db.deref(ptr)
            anchor_meta = type(anchor_handle.obj).__metatype__
            bridge_type = f"InterObjBridge_{self.name}_{alias}"

            raw_masks = dict(anchor_meta.masks)
            for mask_name, fn in (anchor_masks.get(alias) or {}).items():
                from repro.core.declarations import _adapt_mask

                raw_masks[mask_name] = _adapt_mask(mask_name, fn)

            compiled = compile_expression(
                fragment, anchor_meta.declared_events, known_masks=raw_masks.keys()
            )
            fsm = build_int_fsm(
                compiled, anchor_meta.event_ints, event_registry, bridge_type
            )

            def bridge_action(handle, ctx, _alias=alias, _coord=coordinator):
                coord_handle = db.deref(_coord)
                coord_handle.post_event(_alias)

            info = TriggerInfo(
                name=f"bridge_{alias}",
                triggernum=0,
                defining_type=bridge_type,
                compiled=compiled,
                fsm=fsm,
                action=bridge_action,
                perpetual=True,
                coupling=CouplingMode.IMMEDIATE,
                params=(),
                masks={name: raw_masks[name] for name in compiled.masks},
            )
            registry.register_shim(bridge_type, _BridgeShim(bridge_type, info))
            if fresh:
                db.trigger_system.activate(db, ptr, info)

    def deactivate(self) -> None:
        """Remove the inter-object trigger: bridges, coordinator, catalog."""
        db = self.db
        manager = db.txn_manager
        own_txn = manager.current_or_none() is None
        if own_txn:
            txn = manager.begin()
        try:
            for alias in sorted(self.anchors):
                ptr, _ = self.anchors[alias]
                for trigger_id, tstate, _info in db.trigger_system.active_triggers(ptr):
                    if tstate.trigobjtype == f"InterObjBridge_{self.name}_{alias}":
                        db.trigger_system.deactivate(trigger_id)
            db.pdelete(self.coordinator)
            if own_txn:
                manager.commit(txn)
        except BaseException:
            if own_txn and txn.is_active:
                manager.abort(txn, explicit=False)
            raise
