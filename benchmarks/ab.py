"""The A/B runner: alternating pairs of the repository's benchmark.

Runs ``perf/run.py`` only in its one-run mode — one fresh process per
run, ``--trace 0``, the result the JSON object on the last line of
stdout — and changes nothing under ``perf/``::

    python benchmarks/ab.py --ab <rev> [--pairs 5] [--workload W ...]
    python benchmarks/ab.py [--pairs 5] [--workload W ...]

With ``--ab`` the revision *rev* is checked out into a temporary
``git worktree`` and every workload (default: all of ``BENCHMARK.json``)
runs *pairs* pairs, the revision's run and this checkout's, which goes
first alternating from pair to pair.  For each end-to-end metric it
prints both medians, the quartile distance (IQR) of the revision's runs,
in how many pairs this checkout was better, and a verdict (see
:func:`verdict`); and the failed share of the operations on each side.
Without ``--ab`` it runs this checkout alone, *pairs* times per
workload.

Every invocation writes ``BENCH_<n>.json`` (``<n>`` one past the
highest already there) into ``--out-dir``, the repository root by
default: this checkout's commit (and whether its tree had changes), the
date, a reading of the benchmark's CPU-speed kernel, and per workload
each metric's median, quartiles and values, with ``--ab`` the
revision's beside them and the wins and verdicts.  The files in order
are the benchmark's trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The layout version of ``BENCH_<n>.json``.
SCHEMA = 1
#: The benchmark's seed (``perf/run.py --seed``).
SEED = 1996


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def contract_run(root: str, workload: str, seconds: float, scale: float) -> dict:
    """One run of *root*'s ``perf/run.py`` in a fresh process."""
    command = [
        sys.executable, os.path.join(root, "perf", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0",
    ]
    if scale != 1.0:
        command += ["--scale", str(scale)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed in {root}:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Operations, failures and each metric's median, quartiles and
    values over *runs*."""
    summary = {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {},
    }
    for metric in metrics:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, q3 = quartiles(values)
        summary["metrics"][metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values,
        }
    return summary


def wins(change: dict, parent: dict, metrics: list[dict]) -> dict:
    """Per metric, the pairs in which *change* was strictly better."""
    counted = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = zip(change["metrics"][name]["values"], parent["metrics"][name]["values"])
        counted[name] = sum((c < p) if lower else (c > p) for c, p in pairs)
    return counted


def verdict(metric: dict, change: dict, parent: dict, won: int, pairs: int) -> str:
    """One end-to-end *metric*'s verdict on *change* against *parent*
    (their summaries of it), *won* being the pairs *change* won.

    ``gain`` when *change* won at least nine tenths of the *pairs* and its
    median is better by more than the parent's IQR; ``WORSE`` when its
    median is worse than the parent's by more than the metric's relative
    ``bound`` in ``BENCHMARK.json``; ``within bound`` otherwise.
    """
    better_by = parent["median"] - change["median"]
    if metric["better"] != "lower":
        better_by = -better_by
    if 10 * won >= 9 * pairs and better_by > parent["iqr"]:
        return "gain"
    if -better_by > metric["bound"] * abs(parent["median"]):
        return "WORSE"
    return "within bound"


def calibration() -> dict:
    """One reading of the benchmark's CPU-speed kernel on this process."""
    sys.path.insert(0, ROOT)
    try:
        from perf import calibrate
    finally:
        sys.path.remove(ROOT)
    seconds = statistics.median(calibrate.Kernel().burst(200))
    return {"kernel_us": seconds * 1e6, "speed": calibrate.REFERENCE_SECONDS / seconds}


def next_path(out_dir: str) -> str:
    taken = [
        int(match.group(1))
        for name in os.listdir(out_dir)
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", name))
    ]
    return os.path.join(out_dir, f"BENCH_{max(taken, default=0) + 1}.json")


def share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def report(name: str, result: dict, metrics: list[dict], pairs: int) -> None:
    parent = result.get("parent")
    print(f"{name}: {pairs} {'pairs' if parent else 'runs'}")
    if parent is None:
        print(f"  {'metric':<20}{'median':>14}{'iqr':>12}")
        for metric in metrics:
            mine = result["metrics"][metric["name"]]
            print(f"  {metric['name']:<20}{mine['median']:>14.6g}{mine['iqr']:>12.4g}")
        print(f"  failed {result['failed']}/{result['attempted']}")
        return
    print(
        f"  {'metric':<20}{'parent':>14}{'change':>14}{'parent iqr':>12}{'wins':>8}"
        f"  verdict"
    )
    for metric in metrics:
        name = metric["name"]
        mine, theirs = result["metrics"][name], parent["metrics"][name]
        print(
            f"  {name:<20}{theirs['median']:>14.6g}{mine['median']:>14.6g}"
            f"{theirs['iqr']:>12.4g}{result['wins'][name]:>5}/{pairs}"
            f"  {result['verdicts'][name]}"
        )
    print(
        f"  failed share: parent {share(parent):.4g} "
        f"({parent['failed']}/{parent['attempted']}), "
        f"change {share(result):.4g} ({result['failed']}/{result['attempted']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--ab", metavar="REV", help="compare with this revision")
    parser.add_argument("--pairs", type=int, default=5, help="pairs (runs) per workload")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the work (smoke tests)")
    parser.add_argument("--out-dir", default=ROOT, help="where BENCH_<n>.json goes")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    metrics = manifest["end_to_end"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds

    def run(root: str, workload: str) -> dict:
        return contract_run(root, workload, seconds, args.scale)

    parent_root = None
    record = {
        "schema": SCHEMA,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "calibration": calibration(),
        "seed": SEED, "seconds": seconds, "scale": args.scale, "pairs": args.pairs,
        "parent": None,
        "workloads": {},
    }
    try:
        if args.ab:
            record["parent"] = {"rev": args.ab, "commit": git("rev-parse", args.ab)}
            parent_root = os.path.join(tempfile.mkdtemp(prefix="ode-ab-"), "parent")
            git("worktree", "add", "--detach", parent_root, record["parent"]["commit"])
        for name in workloads:
            mine, theirs = [], []
            for pair in range(args.pairs):
                if parent_root is None:
                    mine.append(run(ROOT, name))
                elif pair % 2 == 0:
                    theirs.append(run(parent_root, name))
                    mine.append(run(ROOT, name))
                else:
                    mine.append(run(ROOT, name))
                    theirs.append(run(parent_root, name))
            result = summarize(mine, metrics)
            if parent_root is not None:
                result["parent"] = summarize(theirs, metrics)
                result["wins"] = wins(result, result["parent"], metrics)
                result["verdicts"] = {
                    metric["name"]: verdict(
                        metric,
                        result["metrics"][metric["name"]],
                        result["parent"]["metrics"][metric["name"]],
                        result["wins"][metric["name"]],
                        args.pairs,
                    )
                    for metric in metrics
                }
            record["workloads"][name] = result
            report(name, result, metrics, args.pairs)
    finally:
        if parent_root is not None:
            subprocess.run(
                ["git", "-C", ROOT, "worktree", "remove", "--force", parent_root],
                capture_output=True,
            )
            shutil.rmtree(os.path.dirname(parent_root), ignore_errors=True)
            subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
    path = next_path(args.out_dir)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
