"""The benchmark runs against the current API and its checks pass."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_corridor_benchmark_runs_and_passes():
    result = run_bench("corridor", trace=1)
    keys = set(result["metrics"])
    for key in ("dnl.self_s", "dnl.load.calls", "dnl.sim_steps", "dnl.load.cold_ms",
                "info.self_s", "info.forecast_info.calls", "equilibrium.maps"):
        assert key in keys, key
    assert result["metrics"]["dnl.self_s"]["value"] > 0
    assert result["metrics"]["equilibrium.maps"]["value"] == 5


def test_grid_benchmark_checks_its_chunked_forecast_batches():
    # 30 forecasts per map in two chunks, each operation compared with
    # bench/reference.json
    run_bench("grid_6x6", trace=0)


def test_dsue_sweep_benchmark_checks_the_single_class_logit():
    # solve_dsue assigns one logit per map through tentative_departures;
    # each operation is compared with bench/reference.json
    run_bench("dsue_sweep", trace=0)
