"""The A/B runner (``benchmarks/ab.py``): one tiny pair against ``HEAD``
and the layout of the ``BENCH_<n>.json`` it writes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _in_a_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"], capture_output=True
    )
    return done.returncode == 0


pytestmark = pytest.mark.skipif(
    not _in_a_git_checkout(), reason="the runner checks a revision out with git"
)


def test_one_pair_against_head_writes_a_commit_stamped_file(tmp_path):
    (tmp_path / "BENCH_3.json").write_text("{}")  # a trajectory already there
    done = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "benchmarks", "ab.py"),
            "--ab", "HEAD", "--pairs", "1", "--workload", "canon_mm",
            "--seconds", "1", "--scale", "0.01", "--out-dir", str(tmp_path),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "txn_p50_us" in done.stdout and "wins" in done.stdout
    assert "verdict" in done.stdout
    record = json.loads((tmp_path / "BENCH_4.json").read_text())

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    head = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    assert record["schema"] == 1
    assert record["commit"] == head and isinstance(record["dirty"], bool)
    assert record["date"].endswith("+00:00")
    assert record["calibration"]["kernel_us"] > 0 and record["calibration"]["speed"] > 0
    assert (record["seed"], record["seconds"], record["scale"], record["pairs"]) == (
        1996, 1.0, 0.01, 1
    )
    assert record["parent"] == {"rev": "HEAD", "commit": head}
    assert list(record["workloads"]) == ["canon_mm"]
    result = record["workloads"]["canon_mm"]
    for side in (result, result["parent"]):
        assert side["attempted"] > 0 and side["failed"] == 0
        assert set(side["metrics"]) == set(metrics)
        for name, summary in side["metrics"].items():
            assert summary["unit"] == metrics[name]["unit"]
            assert summary["better"] == metrics[name]["better"]
            (value,) = summary["values"]
            assert summary["median"] == summary["q1"] == summary["q3"] == value
            assert summary["iqr"] == 0
    assert set(result["wins"]) == set(metrics)
    assert set(result["verdicts"]) == set(metrics)
    assert set(result["verdicts"].values()) <= {"gain", "WORSE", "within bound"}
    assert all(count in (0, 1) for count in result["wins"].values())
    worktrees = subprocess.run(
        ["git", "-C", ROOT, "worktree", "list"], capture_output=True, text=True
    ).stdout
    assert "ode-ab-" not in worktrees  # the revision's checkout is gone


def _summary(median, iqr=0.0):
    return {"median": median, "iqr": iqr}


@pytest.mark.parametrize(
    "better, parent, change, won, pairs, expected",
    [
        # 9 of 10 pairs and a median drop past the parent IQR: a gain.
        ("lower", _summary(100.0, 2.0), _summary(95.0), 9, 10, "gain"),
        ("higher", _summary(100.0, 2.0), _summary(105.0), 10, 10, "gain"),
        # 8 of 10 pairs is not enough, however large the drop.
        ("lower", _summary(100.0, 2.0), _summary(80.0), 8, 10, "within bound"),
        # Every pair won, but the medians differ by less than the IQR.
        ("lower", _summary(100.0, 6.0), _summary(95.0), 10, 10, "within bound"),
        # Worse, but inside the 25 % bound.
        ("lower", _summary(100.0, 2.0), _summary(124.0), 0, 10, "within bound"),
        ("higher", _summary(100.0, 2.0), _summary(76.0), 0, 10, "within bound"),
        # Worse past the bound, in either direction of "better".
        ("lower", _summary(100.0, 2.0), _summary(126.0), 0, 10, "WORSE"),
        ("higher", _summary(100.0, 2.0), _summary(74.0), 0, 10, "WORSE"),
        # A parent reading of 0: any rise is past the bound.
        ("lower", _summary(0.0), _summary(1.0), 0, 5, "WORSE"),
        ("lower", _summary(0.0), _summary(0.0), 0, 5, "within bound"),
    ],
)
def test_verdict(better, parent, change, won, pairs, expected):
    ab = pytest.importorskip("benchmarks.ab")
    metric = {"name": "m", "unit": "us", "better": better, "bound": 0.25}
    assert ab.verdict(metric, change, parent, won, pairs) == expected
