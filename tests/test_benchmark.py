"""The benchmark's own output checks, run the way the benchmark runs them.

Each workload runs for one second in its own process; its record goes to
the git-ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train_batch2", "stream_predict", "ingest_eval"])
def test_benchmark_output_checks_pass(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["metrics"]["pass_rate"]["value"] == 1.0
