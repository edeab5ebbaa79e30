"""The experiment scripts answer bad input as the CLI does: a one-line
message on stderr and exit code 2, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SMALL = ["--n-units", "200", "--n-points", "6", "--replicates", "10"]


@pytest.mark.parametrize("script, args, message", [
    ("run_trend_campaign.py", ["--n-units", "100", "--sizes", "200"],
     "need 1 <= n <= N, got n=200, N=100"),
    ("run_trend_campaign.py", ["--sizes", "20", "--replicates", "1"],
     "need at least 2 replicates"),
    ("run_trend_campaign.py", ["--sizes", "20", "--workers", "0"],
     "workers must be >= 1"),
    ("run_coverage_experiment.py", ["--n", "20", "--band-sims", "50"],
     "need at least 100 simulations"),
    ("run_coverage_experiment.py", ["--n", "20", "--alpha", "1.5"],
     "alpha must be in (0, 1)"),
])
def test_bad_input_exits_2_with_a_message(script, args, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SMALL, *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (2, f"error: {message}\n")
