"""The benchmark runs in traced mode against the current API."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_corridor_benchmark_runs_and_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corridor", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    keys = set(result["metrics"])
    for key in ("dnl.self_s", "dnl.load.calls", "dnl.sim_steps", "dnl.load.cold_ms",
                "info.self_s", "info.forecast_info.calls", "equilibrium.maps"):
        assert key in keys, key
    assert result["metrics"]["dnl.self_s"]["value"] > 0
    assert result["metrics"]["equilibrium.maps"]["value"] == 5
