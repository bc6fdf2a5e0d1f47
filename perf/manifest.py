"""``BENCHMARK.json`` against the driver's contract.

Run before anything else in every benchmark run: a manifest the driver
would refuse must fail here, loudly and naming the offending key, not
after an hour of runs.
"""

from __future__ import annotations

import json
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
MAX_BYTES = 64 * 1024
MAX_BOUND = 0.25
#: The driver makes 4 + 22 x workloads runs inside this many seconds.
TOTAL_SECONDS = 3420


class ManifestError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise ManifestError(message)


def _entries(manifest, key, low, high, fields):
    entries = manifest[key]
    _require(isinstance(entries, list) and low <= len(entries) <= high,
             f"{key}: expected a list of {low} to {high} entries")
    for index, entry in enumerate(entries):
        where = f"{key}[{index}]"
        _require(isinstance(entry, dict) and set(entry) == fields,
                 f"{where}: keys must be exactly {sorted(fields)}")
        _require(isinstance(entry["name"], str) and NAME.match(entry["name"]),
                 f"{where}.name: {entry['name']!r} is not a valid name")
    return entries


def _escapes(text):
    return text.startswith("/") or ".." in text.split("/")


def load_and_check(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    _require(len(raw) <= MAX_BYTES, f"file is {len(raw)} bytes, limit {MAX_BYTES}")
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise ManifestError(f"not JSON: {exc}") from None
    _require(isinstance(manifest, dict) and set(manifest) == KEYS,
             f"top-level keys must be exactly {sorted(KEYS)}")

    paths = manifest["paths"]
    _require(paths == ["perf"], f"paths: expected ['perf'], found {paths!r}")

    command = manifest["command"]
    _require(isinstance(command, list) and 1 <= len(command) <= 32, "command: 1 to 32 strings")
    for index, word in enumerate(command):
        _require(isinstance(word, str) and len(word) <= 200, f"command[{index}]: not a short string")
        _require(not _escapes(word), f"command[{index}]: {word!r} leaves the repository")
        if "/" in word:
            _require(any(word == p or word.startswith(p + "/") for p in paths),
                     f"command[{index}]: {word!r} is outside paths")

    seconds = manifest["run_seconds"]
    _require(isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60,
             "run_seconds: a whole number from 1 to 60")

    workloads = _entries(manifest, "workloads", 2, 8, {"name", "why"})
    for index, workload in enumerate(workloads):
        why = workload["why"]
        _require(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
                 f"workloads[{index}].why: one line of at most 200 characters")
    runs = 4 + 22 * len(workloads)
    _require(runs * seconds < TOTAL_SECONDS,
             f"run_seconds: {runs} runs of {seconds} s alone exceed {TOTAL_SECONDS} s")

    end_to_end = _entries(manifest, "end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    per_layer = _entries(manifest, "per_layer", 1, 128, {"name", "unit", "better"})
    for key, entries in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        for index, metric in enumerate(entries):
            where = f"{key}[{index}] ({metric['name']})"
            _require(isinstance(metric["unit"], str) and UNIT.match(metric["unit"]),
                     f"{where}.unit: {metric['unit']!r} is not a valid unit")
            _require(metric["better"] in ("lower", "higher"), f"{where}.better: lower or higher")
    for index, metric in enumerate(end_to_end):
        bound = metric["bound"]
        _require(isinstance(bound, (int, float)) and not isinstance(bound, bool)
                 and 0 <= bound <= MAX_BOUND,
                 f"end_to_end[{index}] ({metric['name']}).bound: a number from 0 to {MAX_BOUND}")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    _require(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
             "end_to_end: needs setup_s with unit s and better lower")
    _require(setup[0]["bound"] == max(m["bound"] for m in end_to_end),
             "end_to_end: setup_s must carry the largest bound")

    names = [entry["name"] for entry in workloads + end_to_end + per_layer]
    repeated = sorted({name for name in names if names.count(name) > 1})
    _require(not repeated, f"names used more than once: {repeated}")
    return manifest


def check_emitted(values, listed):
    """Every listed metric is emitted as a finite number, nothing else is."""
    want = [metric["name"] for metric in listed]
    missing = [name for name in want if name not in values]
    extra = [name for name in values if name not in want]
    _require(not missing and not extra, f"emitted metrics differ: missing {missing}, unlisted {extra}")
    for name in want:
        value = values[name]
        _require(isinstance(value, (int, float)) and value == value and abs(value) != float("inf"),
                 f"metric {name} is not a finite number: {value!r}")
