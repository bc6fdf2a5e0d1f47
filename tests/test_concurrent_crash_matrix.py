"""Concurrent crash-matrix tests: N sessions, crash at storage failpoints.

Tier-1 runs the bounded cooperative subset on both engines; the exhaustive
matrix (every hit in the trace) is ``test_crash_matrix.test_every_hit``
behind the ``crash_matrix`` marker, and the threaded smoke subset
(nondeterministic interleavings, real threads) carries ``concurrency``.
"""

import pytest

from repro.faults.harness import Chaos, crash_and_verify, explore, record_trace

from tests.test_crash_matrix import ALL_POINTS


def test_concurrent_trace_is_deterministic(tmp_path):
    """The cooperative scheduler replays: two runs at equal-length paths
    (path bytes leak into record sizes) produce identical hit traces —
    including every deadlock-retry the contention produced."""
    a = record_trace(str(tmp_path / "a"), Chaos(), engine="mm")
    b = record_trace(str(tmp_path / "b"), Chaos(), engine="mm")
    assert [(r.index, r.point) for r in a] == [(r.index, r.point) for r in b]


def test_quick_subset_disk(tmp_path):
    """Tier-1's bounded subset: select_hits explores the first hit of
    every distinct trace point (the limit only caps the extras), so even
    a small limit crashes once at each of disk's 17 failpoints."""
    result = explore(str(tmp_path / "m"), Chaos(), limit=8)
    assert len(result.explored) >= 15
    assert result.points_explored == ALL_POINTS - {
        "snapshot.write",
        "snapshot.replace",
    }
    assert {"wal", "page", "txn", "phoenix", "checkpoint", "pool"} == (
        result.families_explored
    )
    report = result.survival_report()
    assert report["recovered"] == report["crashes_explored"] == len(result.explored)
    assert report["survival_rate"] == 1.0


def test_quick_subset_mm(tmp_path):
    result = explore(str(tmp_path / "m"), Chaos(), engine="mm", limit=6)
    assert len(result.explored) >= 10
    assert {"snapshot.write", "snapshot.replace"} <= result.points_explored
    assert {"wal", "txn", "phoenix", "checkpoint", "snapshot"} == (
        result.families_explored
    )


@pytest.mark.concurrency
class TestThreadedSmoke:
    """Real threads: the crash lands wherever the race put hit *k*; the
    oracle must hold regardless.  ``require_crash=False`` because a
    threaded run may commit fewer retried transactions than the crash
    index assumes."""

    @pytest.mark.parametrize("crash_at", [5, 40, 120, 260])
    def test_disk(self, tmp_path, crash_at):
        crash_and_verify(
            str(tmp_path / f"t{crash_at}"),
            crash_at,
            "threaded",
            Chaos(mode="threaded"),
            require_crash=False,
        )

    @pytest.mark.parametrize("crash_at", [10, 80, 200])
    def test_mm(self, tmp_path, crash_at):
        crash_and_verify(
            str(tmp_path / f"t{crash_at}"),
            crash_at,
            "threaded",
            Chaos(mode="threaded"),
            engine="mm",
            require_crash=False,
        )
