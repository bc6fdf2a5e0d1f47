"""Print the compiled tier's generated ``_advance_group`` source for a
one-entry group of each trigger the benchmark workloads
(``perf/workloads.py``) post to, then for the two group signatures the
fan-out and session workloads post to (16 x ``PerfGate.Gate``,
1 x ``HotObject.Watch``), then for a one-entry group of E10b's depth-8
mask chain (``Tick & m0 & ... & m7``), whose code must stay linear in
the chain.

A change to the FSM or to the code generator that must not move the
benchmark should leave this output byte-identical.  Run it in two
checkouts and compare::

    PYTHONPATH=src:. python benchmarks/generated_sources.py > after.txt
    (cd ../parent && PYTHONPATH=src:. python benchmarks/generated_sources.py) > before.txt
    diff before.txt after.txt

Each section starts with a header line naming its trigger (or its group
signature) and the SHA-256 of its source.
"""

import hashlib

from perf.workloads import CredCard, HotObject, PerfGate, PerfPassive
from repro.core.compiled import generate_group_advance

TRIGGERS = [
    (CredCard, "AutoPayDown"),
    (CredCard, "AutoRaiseLimit"),
    (CredCard, "DenyCredit"),
    (HotObject, "Watch"),
    (PerfGate, "Gate"),
    (PerfPassive, "OnTouch"),
]

#: ``(class, trigger name, entries)``: one group of *entries* of that kind.
GROUPS = [
    (PerfGate, "Gate", 16),
    (HotObject, "Watch", 1),
]


def _section(title: str, source: str) -> None:
    digest = hashlib.sha256(source.encode()).hexdigest()
    print(f"== {title} sha256={digest}")
    print(source, end="")


def main() -> None:
    for cls, name in TRIGGERS:
        info = cls.__metatype__.trigger_by_name(name)
        _section(f"{cls.__name__}.{name}", generate_group_advance([info])[1])
    for cls, name, entries in GROUPS:
        info = cls.__metatype__.trigger_by_name(name)
        source = generate_group_advance([info] * entries)[1]
        _section(f"group {entries} x {cls.__name__}.{name}", source)
    # Imported here, so that the workload classes take the same event
    # integers as when this script printed no chain.
    from benchmarks.bench_e19_compiled_tier import mask_class

    chain = mask_class(8)
    info = chain.__metatype__.trigger_by_name("Deep")
    _section(f"{chain.__name__}.Deep", generate_group_advance([info])[1])


if __name__ == "__main__":
    main()
