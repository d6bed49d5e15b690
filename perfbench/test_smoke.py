"""Quick checks of the benchmark itself, on its smoke-sized inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric the benchmark declares must be printed with its unit, every
checked operation must pass on the current program, and the traced counts must
repeat.  A directory without the program's sources must make it fail cleanly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_no_failure(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    if trace:
        assert result["metrics"]["check.fail_frac"]["value"] == 0
        assert result["metrics"]["trace.missing"]["value"] == 0
    else:
        assert result["metrics"]["solve_s"]["value"] > 0
        summary = {l.split()[0]: l.split()[1:] for l in lines[:-1] if l.startswith("  ")}
        assert summary["fail_frac"] == ["0", "ratio"]
        assert summary["max_rel_err"][1] == "ratio"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "validate", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
