"""The benchmark runs against the current API and its checks pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
with open(BENCH / "reference.json", encoding="utf-8") as fh:
    REFERENCES = json.load(fh)


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


def test_grid_benchmark_checks_its_forecast_batches():
    # the 30 forecasts of a map share one block of curves, one pattern's;
    # each operation is compared with bench/reference.json
    run_bench("grid_6x6", trace=0)


def test_dsue_sweep_benchmark_checks_the_single_class_logit():
    # solve_dsue assigns one logit per map through tentative_departures;
    # each operation is compared with bench/reference.json
    run_bench("dsue_sweep", trace=0)


@pytest.fixture(scope="module")
def harness():
    """``bench/harness.py``, imported as ``bench/run.py`` imports it."""
    sys.path.insert(0, str(BENCH))
    try:
        import harness
    finally:
        sys.path.remove(str(BENCH))
    return harness


@pytest.mark.parametrize("name, seed", [(name, seed) for name in sorted(REFERENCES)
                                        for seed in sorted(REFERENCES[name], key=int)])
def test_every_recorded_seed_reproduces_its_reference(harness, tmp_path, monkeypatch, name, seed):
    # one operation per recorded seed, in this process, checked as a run
    # checks it; the generated scenarios are read as written
    for key in [k for k in os.environ if k.startswith("DSUEDHI_")]:
        monkeypatch.delenv(key)
    wl = harness.Workload(name, int(seed), tmp_path)
    assert wl.guards() == []
    harness._compare(wl.check(wl.op()), REFERENCES[name][seed])
