"""Two traced runs with the same seed must report identical counts.

    python3 -m pytest perfbench/test_trace_counts.py

Slow (about a minute and a half): each case runs the benchmark twice.
Timings differ between the runs; every count, ratio of counts and byte
total must not.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "ratio", "bytes"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["block-scan", "cutoff-pipeline", "cli-session"])
def test_traced_counts_repeat(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    runs = [traced_run(workload, seed=5) for _ in range(2)]
    assert all(run["correct"] for run in runs)
    first, second = ({name: run["metrics"][name]["value"] for name in names} for run in runs)
    assert first == second
    assert first["bgs.counterexample.calls"] > 0
