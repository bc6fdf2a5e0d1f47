"""Print the compiled tier's generated ``_advance`` source for the triggers
the benchmark workloads (``perf/workloads.py``) post to.

A change to the FSM or to the code generator that must not move the
benchmark should leave this output byte-identical.  Run it in two
checkouts and compare::

    PYTHONPATH=src:. python benchmarks/generated_sources.py > after.txt
    (cd ../parent && PYTHONPATH=src:. python benchmarks/generated_sources.py) > before.txt
    diff before.txt after.txt

Each trigger's section starts with a header line naming it and the
SHA-256 of its source.
"""

import hashlib

from perf.workloads import CredCard, HotObject, PerfGate, PerfPassive
from repro.core.compiled import generate_advance

TRIGGERS = [
    (CredCard, "AutoPayDown"),
    (CredCard, "AutoRaiseLimit"),
    (CredCard, "DenyCredit"),
    (HotObject, "Watch"),
    (PerfGate, "Gate"),
    (PerfPassive, "OnTouch"),
]


def main() -> None:
    for cls, name in TRIGGERS:
        info = cls.__metatype__.trigger_by_name(name)
        source = generate_advance(info).source
        digest = hashlib.sha256(source.encode()).hexdigest()
        print(f"== {cls.__name__}.{name} sha256={digest}")
        print(source, end="")


if __name__ == "__main__":
    main()
