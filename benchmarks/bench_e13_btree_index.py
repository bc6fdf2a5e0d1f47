"""E13 — B-tree indexes vs extent scans (the disk-Ode-only facility).

Section 5.6 notes MM-Ode ships "with full Ode functionality (except for
B-trees which do not exist in Dali)" — disk Ode has them.  This experiment
measures what they buy: point-lookup latency by B-tree vs scanning the
class extent — one pass over the object records, keeping those that name
the class — as the extent grows.

Expected shape: the scan grows linearly with the records; the index stays
near-flat (logarithmic node path), so the gap widens with N.  The MM
engine's refusal to create an index is asserted as the fidelity check.
"""

import pytest

from repro.errors import ObjectError
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import emit_table, ratio, time_per_op, us

LOOKUPS = 30

_RESULTS: list[list[str]] = []


class Part(Persistent):
    serial = field(int, default=0)
    name = field(str, default="")


@pytest.mark.parametrize("extent", [100, 400, 1600])
def test_index_vs_scan(benchmark, tmp_path, extent):
    db = Database.open(str(tmp_path / f"e13-{extent}"), engine="disk")
    try:
        with db.transaction():
            db.create_index(Part, "serial")
            for i in range(extent):
                db.pnew(Part, serial=i, name=f"part-{i}")

        targets = [extent // 3, extent // 2, extent - 1]

        def by_index():
            with db.transaction():
                for i in range(LOOKUPS):
                    hits = db.find(Part, "serial", targets[i % 3])
                    assert len(hits) == 1

        def by_scan():
            with db.transaction():
                for i in range(LOOKUPS):
                    wanted = targets[i % 3]
                    hits = [
                        h for h in db.objects(Part) if h.serial == wanted
                    ]
                    assert len(hits) == 1

        index_us = time_per_op(by_index, LOOKUPS, repeats=2)
        scan_us = time_per_op(by_scan, LOOKUPS, repeats=1)
        benchmark.pedantic(by_index, rounds=1, iterations=1)
        _RESULTS.append(
            [extent, us(index_us), us(scan_us), ratio(scan_us, index_us)]
        )
        assert index_us < scan_us
    finally:
        db.close()


def test_mm_ode_has_no_btrees(benchmark):
    db = Database.open(None, engine="mm", name="e13-mm")
    try:
        def attempt():
            with db.transaction():
                with pytest.raises(ObjectError, match="B-trees"):
                    db.create_index(Part, "serial")

        benchmark.pedantic(attempt, rounds=1, iterations=1)
    finally:
        db.close()


def teardown_module(module):
    emit_table(
        "E13",
        f"point lookup: B-tree index vs extent scan ({LOOKUPS} lookups)",
        ["extent", "index us/lookup", "scan us/lookup", "scan/index"],
        _RESULTS,
        notes=(
            "Disk Ode only — MM-Ode refuses create_index, matching the "
            "paper's 'except for B-trees which do not exist in Dali'."
        ),
    )
