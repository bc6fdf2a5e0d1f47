"""Run-time type descriptors (the paper's compiler-generated ``type_CredCard``).

For every persistent class the O++ compiler generates a *type descriptor*
holding "the machinery for a trigger (e.g. its FSM, its action code, etc.)"
(paper Section 5.4.1).  Our :class:`Metatype` plays that role: the trigger
declaration processor (:mod:`repro.core.declarations`) fills in declared
events, trigger infos, mask functions, and member wrappers at class-creation
time — the Python analogue of recompiling the FSMs with every program, the
strategy the paper chose over persisting FSMs centrally (Section 5.1.3).

A process-global :class:`TypeRegistry` maps stored type names back to
metatypes, which is how ``trigobjtype`` references in persistent trigger
states are resolved when a database is reopened by another "application".
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TriggerDeclarationError, UnknownTriggerError, UnknownTypeError
from repro.objects.schema import Field, collect_fields

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.events.fsm import EventDecl


#: Names every object, so every handle, answers itself.
_OBJECT_NAMES = frozenset(dir(object))


class Metatype:
    """Run-time descriptor of one persistent class."""

    def __init__(self, pyclass: type):
        self.pyclass = pyclass
        self.name = pyclass.__name__
        self.fields: dict[str, Field] = collect_fields(pyclass)
        # Filled by repro.core.declarations when the class declares
        # events/triggers; empty for passive classes.
        self.declared_events: list["EventDecl"] = []  # own + inherited
        self.masks: dict[str, Callable[..., bool]] = {}
        # The mask callables exactly as declared, before `_adapt_mask`
        # normalizes arity — what generated code calls and ODE401 reads.
        self.mask_specs: dict[str, Callable[..., bool]] = {}
        self.constraints: list[Any] = []
        # Run-time event integers: symbol -> globally-unique eventnum, and
        # symbol -> the class that declared the event (its eventRep owner).
        self.event_ints: dict[str, int] = {}
        self.event_owner: dict[str, str] = {}
        # Declared user-defined event name -> its eventnum (own + inherited).
        self.user_events: dict[str, int] = {}
        self.install([], [], {})

    def install(
        self,
        trigger_infos: list["TriggerInfo"],
        all_trigger_infos: list["TriggerInfo"],
        method_events: dict[str, tuple[int | None, int | None]],
    ) -> None:
        """Set the class's triggers (its own, then with the inherited ones)
        and its member functions' ``(before, after)`` event integers, and
        build :attr:`members`: every callable class attribute that is not
        a type, a field or in ``_OBJECT_NAMES``, and every trigger name,
        each mapped once to a callable ``(db, ptr, obj, *args)`` — its
        event wrapper, else its trigger's activator, else an event-less
        wrapper.  A handle reads :attr:`plain_fields` (the fields that are
        not members) from the instance; a monitored handle reads
        :attr:`method_events` and :attr:`triggers_by_name`.  Two triggers
        of one name (own or inherited) raise, and change nothing."""
        from repro.core.wrappers import make_activator, make_method_wrapper

        triggers_by_name: dict[str, "TriggerInfo"] = {}
        for info in all_trigger_infos:
            first = triggers_by_name.setdefault(info.name, info)
            if first is not info:
                raise TriggerDeclarationError(
                    f"{self.name}: trigger {info.name!r} of {info.defining_type} "
                    f"is named like {first.defining_type}'s; a handle reaches only one"
                )
        self.trigger_infos = trigger_infos  # defined by THIS class
        self.all_trigger_infos = all_trigger_infos  # incl. inherited
        self.triggers_by_name = triggers_by_name
        self.method_events = method_events
        members: dict[str, Callable[..., Any]] = {}
        for name in dir(self.pyclass):
            if name in self.fields or name in _OBJECT_NAMES:
                continue
            value = getattr(self.pyclass, name, None)
            if callable(value) and not isinstance(value, type):
                members[name] = make_method_wrapper(name, None, None)
        for info in all_trigger_infos:
            members[info.name] = make_activator(info)
        for name, (before, after) in method_events.items():
            members[name] = make_method_wrapper(name, before, after)
        self.members = members
        self.plain_fields = frozenset(self.fields).difference(members)

    # -- inheritance ----------------------------------------------------------

    def base_metatypes(self, registry: "TypeRegistry") -> list["Metatype"]:
        """Metatypes of the persistent base classes, nearest first."""
        bases = []
        for klass in self.pyclass.__mro__[1:]:
            metatype = registry.find_by_class(klass)
            if metatype is not None:
                bases.append(metatype)
        return bases

    def is_subtype_of(self, other: "Metatype") -> bool:
        return issubclass(self.pyclass, other.pyclass)

    # -- trigger helpers --------------------------------------------------------

    def trigger_info(self, triggernum: int) -> "TriggerInfo":
        """The descriptor of trigger number *triggernum* defined by this class.

        Raises :class:`UnknownTriggerError` for any number outside the
        defined range — including negative ones, which would otherwise
        silently index from the end of the list.
        """
        if not 0 <= triggernum < len(self.trigger_infos):
            raise UnknownTriggerError(
                f"type {self.name!r} defines no trigger number {triggernum} "
                f"(it defines {len(self.trigger_infos)}, numbered from 0)"
            )
        return self.trigger_infos[triggernum]

    def trigger_by_name(self, name: str) -> "TriggerInfo":
        for info in self.trigger_infos:
            if info.name == name:
                return info
        raise UnknownTriggerError(
            f"type {self.name!r} defines no trigger named {name!r}"
        )

    def has_active_facilities(self) -> bool:
        """Whether this class (or a base) declared any events or triggers."""
        return bool(self.declared_events or self.trigger_infos)

    def __repr__(self) -> str:
        return (
            f"<Metatype {self.name} fields={len(self.fields)} "
            f"events={len(self.declared_events)} triggers={len(self.trigger_infos)}>"
        )


class TypeRegistry:
    """Maps stored type names to metatypes for this process."""

    def __init__(self) -> None:
        self._by_name: dict[str, Metatype] = {}
        self._by_class: dict[type, Metatype] = {}
        # Concurrent sessions can register classes while others resolve
        # them; registration must be atomic (lookups are GIL-safe reads).
        self._mutex = threading.Lock()

    def register(self, pyclass: type) -> Metatype:
        """Create (or return the existing) metatype for *pyclass*.

        Re-registering the same class object is idempotent; registering a
        *different* class under an existing name replaces it, which mirrors
        recompilation of a class definition, and bumps the schema version:
        group functions are memoized by registry and type name.  A
        replacement defined in another module is more likely a name clash
        than a recompilation, so it warns (:class:`RuntimeWarning`).
        """
        existing = self._by_class.get(pyclass)
        if existing is not None:
            return existing
        with self._mutex:
            existing = self._by_class.get(pyclass)
            if existing is not None:
                return existing
            metatype = Metatype(pyclass)
            replaced = self._by_name.get(metatype.name)
            self._by_name[metatype.name] = metatype
            self._by_class[pyclass] = metatype
        if replaced is not None:
            from repro.core.compiled import bump_schema_version

            previous = getattr(replaced, "pyclass", None)
            if previous is not None and previous.__module__ != pyclass.__module__:
                warnings.warn(
                    f"persistent class {metatype.name!r} from module "
                    f"{pyclass.__module__!r} replaces the one from module "
                    f"{previous.__module__!r}: every open database now builds "
                    f"the new class for objects stored as {metatype.name!r}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            bump_schema_version(f"register:{metatype.name}")
        return metatype

    def register_shim(self, name: str, shim: "Metatype | Any") -> None:
        """Register a dynamic pseudo-metatype under *name*.

        Used by run-time-constructed triggers (inter-object bridges): the
        shim only needs ``trigger_info(n)`` and ``pyclass``; it is looked
        up through the same ``trigobjtype`` resolution as real classes.
        """
        with self._mutex:
            self._by_name[name] = shim
        # A new trigger-bearing type changes the trigger universe: evict
        # any compiled posting artifacts keyed by the old schema version.
        from repro.core.compiled import bump_schema_version

        bump_schema_version(f"register_shim:{name}")

    def find(self, name: str) -> Metatype:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTypeError(
                f"type {name!r} is not registered in this process; import the "
                "module defining it before opening the database"
            ) from None

    def find_by_class(self, pyclass: type) -> Metatype | None:
        return self._by_class.get(pyclass)

    def require_by_class(self, pyclass: type) -> Metatype:
        metatype = self._by_class.get(pyclass)
        if metatype is None:
            raise UnknownTypeError(f"{pyclass.__name__} is not a persistent class")
        return metatype

    def names(self) -> frozenset[str]:
        return frozenset(self._by_name)

    def subclasses_of(self, metatype: Metatype) -> list[Metatype]:
        """All registered metatypes whose class derives from *metatype*'s.

        Dynamic shims (no real class behind them) are skipped.
        """
        return [
            candidate
            for candidate in self._by_name.values()
            if isinstance(candidate, Metatype) and candidate.is_subtype_of(metatype)
        ]


_GLOBAL_REGISTRY = TypeRegistry()


def global_type_registry() -> TypeRegistry:
    """The process-wide registry used by :class:`~repro.objects.persistent.Persistent`."""
    return _GLOBAL_REGISTRY
