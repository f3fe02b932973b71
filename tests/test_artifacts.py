"""Fresh CLI runs reproduce the committed artifacts under ``out/`` byte for byte."""

import os
from pathlib import Path

import pytest

from dsuedhi import cli

ROOT = Path(__file__).resolve().parent.parent

RUNS = {  # artifact directory under out/: command, scenario, further arguments, environment
    "three_link": ("solve", "three_link", [], {}),
    "three_link_dumps": ("solve", "three_link", [], {"DSUEDHI_OUTPUT_DUMP_FORECASTS": "true",
                                                     "DSUEDHI_OUTPUT_DUMP_CURVES": "true"}),
    "grid": ("solve", "grid", [], {}),
    "compare_dsue": ("compare-dsue", "three_link", [], {}),
    "dispersion_sweep": ("sweep", "grid", ["--param", "theta", "--values", "0.5,1.0,1.5,2.0"],
                         {}),
    "penetration_sweep": ("sweep", "grid",
                          ["--param", "lambda", "--values", "0.999,0.75,0.5,0.25,0.001"], {}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_reproduces_committed_artifacts(name, tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("DSUEDHI_"):  # overrides would change the scenario
            monkeypatch.delenv(key)
    command, scenario, extra, env = RUNS[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / name
    ini = ROOT / "scenarios" / scenario / "scenario.ini"
    assert cli.main([command, "--scenario", str(ini), "--out", str(out), *extra]) == 0
    committed = ROOT / "out" / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in sorted(committed.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
