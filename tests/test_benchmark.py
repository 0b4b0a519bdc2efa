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


# spans of the names perfbench/probes.py patches in the package's modules
# and of the layer methods it wraps per model; a renamed or bypassed name
# or layer method leaves its span, and so its metric, at 0
TRACED_SPANS = {
    "ingest_eval": ["synth.generate_us", "spectral.magnitude_spectrum_us",
                    "spectral.renormalize_us", "spectral.extract_frames_us",
                    "model.predict_batch_us_per_frame", "model.conv1.fwd_us",
                    "model.dense1.fwd_us"],
    "stream_predict": ["spectral.magnitude_spectrum_us", "spectral.renormalize_us",
                       "spectral.extract_frames_us", "model.conv1.fwd_us"],
}


@pytest.mark.slow
@pytest.mark.parametrize("workload", list(TRACED_SPANS))
def test_traced_run_times_the_patched_calls(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    for name in TRACED_SPANS[workload]:
        assert result["metrics"][name]["value"] > 0, name
