"""Smoke test of the benchmark harness on tiny inputs.

    python -m pytest bench/test_smoke.py

Runs every workload untraced and traced in ``--smoke`` mode and checks the
result line against BENCHMARK.json, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_same_inputs(tmp_path: Path) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    first = [gen.rs3_bytes(d) for d in gen.make_docs(5, "gum", 6, 150)]
    again = [gen.rs3_bytes(d) for d in gen.make_docs(5, "gum", 6, 150)]
    other = [gen.rs3_bytes(d) for d in gen.make_docs(6, "gum", 6, 150)]
    assert first == again
    assert first != other


def test_unknown_workload_fails_without_result() -> None:
    proc = _run("--workload", "no-such-workload", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
