"""E5 — disk Ode vs MM-Ode: the same workload on both storage managers.

Section 5.6: Ode runs on the disk-based EOS manager, MM-Ode on the
main-memory Dali manager, sharing the object-manager and trigger code.
This bench runs the identical credit-card workload (with DenyCredit
active, so the full posting path executes) against both engines and a
non-durable main-memory configuration.

Expected shape: mm (non-durable) > mm (durable, logging only) > disk
(logging + pages + buffer pool), with identical workload outcomes on all
three — the code above the storage manager is shared.
"""

import pytest

from repro.objects.database import Database
from repro.workloads.credit_card import CreditCardWorkload

from benchmarks.common import emit_table, ratio, time_per_op, us

N_CARDS = 8
N_OPS = 300

_RESULTS: list[list[str]] = []
_OUTCOMES: dict[str, tuple] = {}


def _run_workload(tmp_path, engine, durable, tag):
    if engine == "mm" and not durable:
        db = Database.open(None, engine="mm", name=f"e5-{tag}")
    else:
        db = Database.open(str(tmp_path / f"e5-{tag}"), engine=engine)
    try:
        workload = CreditCardWorkload(seed=1996)
        ptrs = workload.setup(db, N_CARDS, activate_deny=True)
        result = workload.run(db, ptrs, N_OPS, ops_per_txn=2)
        return result, db.storage.stats.snapshot()
    finally:
        db.close()


@pytest.mark.parametrize(
    "engine,durable,label",
    [
        ("disk", True, "disk (EOS-like)"),
        ("mm", True, "main-memory, durable (Dali-like)"),
        ("mm", False, "main-memory, volatile"),
    ],
)
def test_storage_engines(benchmark, tmp_path, engine, durable, label):
    holder = {}

    def run():
        holder["result"], holder["stats"] = _run_workload(
            tmp_path, engine, durable, f"{label}-{len(_RESULTS)}"
        )

    per_op = time_per_op(run, N_OPS, repeats=1)
    benchmark.pedantic(run, rounds=1, iterations=1)
    result = holder["result"]
    _OUTCOMES[label] = (result.buys, result.payments, result.denied)
    _RESULTS.append(
        [
            label,
            us(per_op),
            result.operations,
            result.denied,
            holder["stats"]["log_forces"],
            holder["stats"]["page_misses"],
        ]
    )


def teardown_module(module):
    emit_table(
        "E5",
        f"credit-card workload ({N_OPS} ops, {N_CARDS} cards, DenyCredit active)",
        ["engine", "us/op", "ops", "denied", "log forces", "page misses"],
        _RESULTS,
        notes=(
            "Section 5.6: the same object-manager and trigger code runs on "
            "both storage managers; outcomes are identical, only cost differs."
        ),
    )
    # Shared-code check: every engine computed the same workload outcome.
    assert len(set(_OUTCOMES.values())) == 1, _OUTCOMES
