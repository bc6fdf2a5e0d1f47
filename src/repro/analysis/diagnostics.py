"""Diagnostic records for the static trigger analyzer.

Every finding the analyzer can produce has a *stable* code (``ODE001``,
``ODE002``, ...) so tooling — CI gates, suppression lists, the test suite's
fixture assertions — can match on codes rather than message text.  A
:class:`Diagnostic` pairs a code with a severity, a human-readable message,
and a :class:`Location` naming the class / trigger / FSM state it refers
to.  ``render_text`` and ``render_json`` are the two output formats of
``python -m repro.analysis``.
"""

from __future__ import annotations

import dataclasses
import enum
import json


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the integer order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "warning", not "Severity.WARNING"
        return self.name.lower()

    @classmethod
    def parse(cls, value: "Severity | str") -> "Severity":
        if isinstance(value, cls):
            return value
        try:
            return cls[value.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {value!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


#: The stable diagnostic catalogue: code -> (default severity, title).
#: Codes are grouped by pass: 00x reachability/liveness, 01x masks,
#: 02x subsumption, 03x cascades, 04x coupling modes, 05x database state,
#: 20x effect-inference termination/confluence/metadata, 30x/31x static and
#: dynamic concurrency (lock footprints, Section 6 amplification), 40x
#: the generated-code posting tier (a mask that will raise ``NameError``,
#: a machine the tier interprets because it is too large to unroll).
CODES: dict[str, tuple[Severity, str]] = {
    "ODE001": (Severity.WARNING, "unreachable FSM state"),
    "ODE002": (Severity.WARNING, "FSM state cannot reach an accept state"),
    "ODE003": (Severity.ERROR, "trigger can never fire (empty language)"),
    "ODE010": (Severity.WARNING, "vacuous mask"),
    "ODE011": (Severity.WARNING, "trigger-level mask predicate is never used"),
    "ODE020": (Severity.WARNING, "trigger subsumed by another trigger"),
    "ODE021": (Severity.WARNING, "triggers accept identical event sequences"),
    "ODE030": (Severity.ERROR, "unbounded immediate trigger cascade cycle"),
    "ODE031": (Severity.WARNING, "unbounded cross-transaction trigger cascade cycle"),
    "ODE032": (Severity.WARNING, "action posts an unknown user event"),
    "ODE040": (Severity.WARNING, "tabort from a detached action"),
    "ODE041": (Severity.WARNING, "deferred trigger watches 'before tcomplete'"),
    "ODE050": (Severity.WARNING, "active trigger is stuck in a dead state"),
    "ODE051": (Severity.INFO, "trigger state references a type not loaded"),
    "ODE200": (Severity.ERROR, "irrefutable inferred cascade cycle"),
    "ODE201": (Severity.WARNING, "predicate-guarded cascade cycle"),
    "ODE202": (Severity.WARNING, "non-confluent trigger pair"),
    "ODE203": (Severity.WARNING, "stale posts= declaration"),
    "ODE204": (Severity.INFO, "action posts an undeclared user event"),
    "ODE205": (Severity.INFO, "stale suppress= declaration"),
    "ODE206": (Severity.INFO, "action effects unknown (source unavailable)"),
    "ODE300": (Severity.WARNING, "trigger turns read access into write access"),
    "ODE301": (Severity.WARNING, "predicted lock-order deadlock cycle"),
    "ODE302": (Severity.WARNING, "S->X lock upgrade under held locks"),
    "ODE310": (Severity.WARNING, "observed lock trace contradicts static footprint"),
    "ODE401": (Severity.WARNING, "mask references unresolvable free names"),
    "ODE402": (Severity.INFO, "generated code past the unroll budget"),
}


@dataclasses.dataclass(frozen=True)
class Location:
    """What a diagnostic points at: type, trigger, and/or FSM state."""

    type_name: str = ""
    trigger: str = ""
    state: int | None = None

    def __str__(self) -> str:
        parts = []
        if self.type_name:
            parts.append(self.type_name)
        if self.trigger:
            parts.append(self.trigger)
        label = ".".join(parts) or "<machine>"
        if self.state is not None:
            label += f" state {self.state}"
        return label


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    message: str
    location: Location = dataclasses.field(default_factory=Location)
    severity: Severity | None = None
    #: Names of other triggers involved (the subsuming trigger, the other
    #: members of a cascade cycle, ...) — machine-readable cross references.
    related: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODES[self.code][0])

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def render(self) -> str:
        related = f" (see: {', '.join(self.related)})" if self.related else ""
        return f"{self.code} {self.severity} {self.location}: {self.message}{related}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "title": self.title,
            "type": self.location.type_name,
            "trigger": self.location.trigger,
            "state": self.location.state,
            "message": self.message,
            "related": list(self.related),
        }


def render_text(diagnostics: list[Diagnostic]) -> str:
    """One line per finding plus a severity summary — the CLI's default."""
    lines = [d.render() for d in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity >= Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
    lines.append(
        f"{len(diagnostics)} finding(s): {errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic]) -> str:
    """The findings as a JSON array (stable keys, machine consumption)."""
    return json.dumps([d.to_dict() for d in diagnostics], indent=2)
