"""Fresh CLI runs reproduce the committed artifacts under ``out/`` byte for byte.

Re-record them with ``PYTHONPATH=src python tests/test_artifacts.py``.
"""

import os
import shutil
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
    "multistart": ("multistart", "three_link", ["--n", "3", "--seed", "7"], {}),
    "dispersion_sweep": ("sweep", "grid", ["--param", "theta", "--values", "0.5,1.0,1.5,2.0"],
                         {}),
    "penetration_sweep": ("sweep", "grid",
                          ["--param", "lambda", "--values", "0.999,0.75,0.5,0.25,0.001"], {}),
}


def set_env(monkeypatch, env: dict) -> None:
    for key in list(os.environ):
        if key.startswith("DSUEDHI_"):  # overrides would change the scenario
            monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)


def run(name: str, out: Path, monkeypatch) -> int:
    """The exit code of the CLI run ``RUNS[name]`` into ``out``, in its environment."""
    command, scenario, extra, env = RUNS[name]
    set_env(monkeypatch, env)
    ini = ROOT / "scenarios" / scenario / "scenario.ini"
    return cli.main([command, "--scenario", str(ini), "--out", str(out), *extra])


def record() -> None:
    """Rewrite every directory of ``RUNS`` under ``out/`` by the run the test checks."""
    for name in sorted(RUNS):
        out = ROOT / "out" / name
        shutil.rmtree(out, ignore_errors=True)
        with pytest.MonkeyPatch.context() as monkeypatch:
            if run(name, out, monkeypatch):
                raise SystemExit(f"{name}: the run failed")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_reproduces_committed_artifacts(name, tmp_path, monkeypatch):
    out = tmp_path / name
    assert run(name, out, monkeypatch) == 0
    committed = ROOT / "out" / name
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in sorted(committed.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_link_on_no_path_adds_only_zero_curves(tmp_path, monkeypatch):
    # every shipped scenario uses all its links; a dead-end link that no path
    # uses changes no artifact but curves.csv, where its rows read zero
    set_env(monkeypatch, RUNS["three_link_dumps"][3])
    work = tmp_path / "three_link"
    shutil.copytree(ROOT / "scenarios" / "three_link", work)
    links = work / "network.csv"
    links.write_text(links.read_text() + "z9,C,Z,5000,20,5,0.5,0.15\n")
    out = tmp_path / "out"
    assert cli.main(["solve", "--scenario", str(work / "scenario.ini"), "--out", str(out)]) == 0
    committed = ROOT / "out" / "three_link_dumps"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in sorted(committed.iterdir()):
        if path.name != "curves.csv":
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    lines = (out / "curves.csv").read_text().splitlines(keepends=True)
    unused = [line for line in lines if line.startswith("z9,")]
    assert "".join(line for line in lines if not line.startswith("z9,")) == \
        (committed / "curves.csv").read_text()
    assert len(unused) == 41
    assert all(line.endswith(",0,0\n") for line in unused)


if __name__ == "__main__":
    record()
