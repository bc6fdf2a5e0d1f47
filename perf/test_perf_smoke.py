"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not part of tier-1 (whose ``testpaths`` is ``tests/``).  Every workload at
1/100 scale must pass its oracle traced and untraced and emit every listed
metric; the tracer must put back exactly what it replaced; and an oracle
that is wrong by one must be noticed.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [p for p in (ROOT, os.path.join(ROOT, "src")) if p not in sys.path]

from perf import run as perf_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    MANIFEST = json.load(handle)
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def contract_run(workload, trace):
    done = subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perf", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "10",
            "--trace", str(trace), "--scale", "0.01",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_manifest_matches_contract_and_runner():
    assert perf_run.main(["--check-manifest"]) == 0
    assert len(MANIFEST["workloads"]) == 5
    assert len(MANIFEST["end_to_end"]) == 6
    assert len(MANIFEST["per_layer"]) == 70


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_oracle_and_emits_every_metric(workload, trace):
    result = contract_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = MANIFEST["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    if trace:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_uninstall_restores_every_wrapped_attribute():
    from perf.trace import Tracer, _targets

    before = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in _targets()]
    tracer = Tracer(1)
    tracer.install()
    assert tracer.patched()
    assert all(vars(owner)[attr] is not original for owner, attr, original in tracer.patched())
    tracer.uninstall()
    assert not tracer.patched()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_an_oracle_off_by_one_is_a_failed_operation(tmp_path):
    from perf.workloads import WORKLOADS

    run = perf_run.Run(WORKLOADS["cards_disk"], seed=7, seconds=10, scale=0.01, work=str(tmp_path))
    try:
        run.set_up()
        before = run.db.metrics.snapshot()
        lanes = perf_run.drive(run.calls, run.streams, run.warmup, run.warmup + run.per_session)
        delta = perf_run.diff(run.db.metrics.snapshot(), before)
        executed, timed = run.executed([lanes]), len(lanes[0].latencies)
        assert run.verify(run.db, executed, timed, delta) == []
        run.state[0] += 1.0  # the model now starts card 0 one unit too high
        problems = run.verify(run.db, executed, timed, delta)
        assert problems and "card 0" in problems[0]
        attempted, failed = perf_run.outcome(run, [lanes], problems)
        assert failed == 1 and failed / attempted > 0
    finally:
        run.close()
