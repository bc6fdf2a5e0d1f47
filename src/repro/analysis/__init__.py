"""Static analysis of trigger declarations — the Ode trigger linter.

Because every ``event-expression ==> action`` compiles to an extended FSM
at declaration time, most trigger defects are statically decidable before
a single event is posted.  This package implements a diagnostics framework
(stable ``ODE0xx`` codes, severities, text/JSON renderers) and the passes
that produce them:

=========  =======  ==========================================================
code       level    meaning
=========  =======  ==========================================================
ODE001     warning  FSM state unreachable from the start state
ODE002     warning  FSM state with no path to an accept state (trap)
ODE003     error    trigger's language is empty — it can never fire
ODE010     warning  vacuous mask: its outcome cannot change behaviour
ODE011     warning  trigger-level mask predicate never used
ODE020     warning  trigger subsumed by another (language inclusion)
ODE021     warning  two triggers accept identical languages
ODE030     error    unbounded immediate cascade cycle (posts metadata)
ODE031     warning  unbounded cross-transaction cascade cycle
ODE032     warning  posts= names an unknown user event
ODE040     warning  tabort from a dependent/!dependent action
ODE041     warning  deferred trigger watches 'before tcomplete'
ODE050     warning  persistent trigger state stuck dead (database pass)
ODE051     info     trigger state's type not loaded — states skipped
ODE200     error    irrefutable inferred cascade cycle (no posts= declares it)
ODE201     warning  predicate-guarded cascade cycle (stops when mask is false)
ODE202     warning  non-confluent trigger pair: firing order is observable
ODE203     warning  stale posts=: the action never posts the declared event
ODE204     info     action posts a user event posts= does not declare
ODE205     info     stale suppress=: nothing to acknowledge at this trigger
ODE206     info     action source unavailable — effects degrade to unknown
ODE300     warning  trigger turns read access into write access (§6)
ODE301     warning  predicted lock-order deadlock cycle (CONFIRMED/POSSIBLE)
ODE302     warning  S→X lock upgrade while other locks are held
ODE310     warning  observed lock trace contradicts the static footprints
ODE401     warning  mask references unresolvable free names
ODE402     info     generated code past the unroll budget (plan_unroll)
=========  =======  ==========================================================

The ``ODE2xx`` passes rest on :mod:`repro.analysis.effects`, an
``ast``-based may-analysis of what each action *does* (attributes
read/written, members called, events posted, aborts), with a sound
``unknown`` widening for anything dynamic — see DESIGN.md §9.  The
opt-in ``ODE3xx`` concurrency passes (``analyze_classes(...,
concurrency=True)``, ``lint --concurrency``) lift those effect sets to
ordered lock footprints and predict Section 6 lock amplification and
deadlocks — see DESIGN.md §12 and :mod:`repro.analysis.concurrency`.
The ``ODE4xx`` codes (:mod:`repro.analysis.compilable`) run with the
per-trigger passes: a mask that references names resolving nowhere, and
a machine too large for the generated-code posting tier
(:mod:`repro.core.compiled`) to unroll, whose entries it interprets —
see DESIGN.md §14.

Entry points: :func:`analyze_class` / :func:`analyze_classes` for compiled
declarations, :func:`analyze_machine` for bare machines,
:func:`analyze_registry` for everything registered in the process,
:func:`analyze_database` for persistent trigger states, and
``python -m repro.analysis`` (or ``python -m repro.tools lint``) on the
command line.  Each returns an :class:`AnalysisReport`; the CLI's
``--fail-on`` is the one gate on its findings.  The engine imports
nothing from this package: it fires a ready set in activation order and
asks no pass at run time (DESIGN.md §9).  Names load their submodule on
first use, so ``import repro.analysis`` alone loads no pass.
"""

import importlib

#: Submodule → the names it exports here.
_EXPORTS = {
    "compilable": ("check_compilable",),
    "concurrency": (
        "LockFootprint", "LockStep", "check_lock_trace",
        "infer_lock_footprint", "observed_lock_profile", "static_lock_profile",
    ),
    "diagnostics": (
        "CODES", "Diagnostic", "Location", "Severity", "render_json", "render_text",
    ),
    "effects": ("EffectSet", "infer_callable_effects", "infer_trigger_effects"),
    "runner": (
        "AnalysisReport", "analyze_class", "analyze_classes", "analyze_database",
        "analyze_machine", "analyze_registry", "analyze_trigger",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
