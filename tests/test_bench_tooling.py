"""The experiment harness's result files (``benchmarks/common.py``)."""

from __future__ import annotations

import pytest

common = pytest.importorskip("benchmarks.common")


def test_an_empty_table_never_replaces_recorded_results(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    common.emit_table("EX", "demo", ["a", "b"], [[1, 2]])
    recorded = (tmp_path / "EX.txt").read_text()
    assert "1 | 2" in recorded

    common.emit_table("EX", "demo", ["a", "b"], [])  # e.g. a -k run
    assert (tmp_path / "EX.txt").read_text() == recorded
    common.emit_table("EY", "demo", ["a"], [])
    assert not (tmp_path / "EY.txt").exists()
