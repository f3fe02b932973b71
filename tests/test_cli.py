import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from dsuedhi import cli
from dsuedhi.scenario import ScenarioError, default_config_text, load_scenario
from oracles import step_cap

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run(args):
    return cli.main([str(a) for a in args])


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture()
def three_link_dir(tmp_path):
    dst = tmp_path / "three_link"
    shutil.copytree(SCENARIOS / "three_link", dst)
    return dst


def config_keys(text: str) -> list[str]:
    """``section.key`` for every key line of an INI text, in order."""
    keys, section = [], None
    for line in text.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            keys.append(f"{section}.{line.split('=', 1)[0].strip()}")
    return keys


class TestPrintConfig:
    def test_prints_all_defaults(self, capsys):
        assert run(["print-config"]) == 0
        out = capsys.readouterr().out
        for key in ("tolerance", "gain_up", "theta", "k_max", "trim_fraction"):
            assert key in out
        assert out == default_config_text()

    def test_readme_scenario_block_names_every_key_and_no_other(self, capsys):
        assert run(["print-config"]) == 0
        printed = config_keys(capsys.readouterr().out)
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Scenario files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        assert config_keys(block) == printed


class TestValidate:
    def test_ok(self, three_link_dir, capsys):
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 0
        assert "3 paths" in capsys.readouterr().out

    def test_missing_scenario_file(self, tmp_path):
        assert run(["validate", "--scenario", tmp_path / "nope.ini"]) == 1

    def test_unknown_key_rejected(self, three_link_dir):
        ini = three_link_dir / "scenario.ini"  # has no [output] section of its own
        ini.write_text(ini.read_text() + "\n[output]\nbogus = 1\n")
        with pytest.raises(ScenarioError, match="unknown key 'bogus'"):
            load_scenario(ini)
        assert run(["validate", "--scenario", ini]) == 1

    def test_departure_floor_is_not_a_key(self, three_link_dir, capsys):
        ini = three_link_dir / "scenario.ini"  # has no [metrics] section of its own
        ini.write_text(ini.read_text() + "\n[metrics]\ndeparture_floor = 1e-6\n")
        assert run(["validate", "--scenario", ini]) == 1
        assert "unknown key 'departure_floor' in [metrics]" in capsys.readouterr().err

    def test_unknown_section_in_file_rejected(self, three_link_dir):
        ini = three_link_dir / "scenario.ini"
        ini.write_text(ini.read_text() + "\n[bogus]\nx = 1\n")
        with pytest.raises(ScenarioError, match=r"unknown section \[bogus\]"):
            load_scenario(ini)
        assert run(["validate", "--scenario", ini]) == 1

    def test_non_numeric_instant_share_rejected(self, three_link_dir, monkeypatch, capsys):
        monkeypatch.setenv("DSUEDHI_DEMAND_INSTANT_SHARE", "abc")
        with pytest.raises(ScenarioError, match="instant_share = 'abc' is not a number"):
            load_scenario(three_link_dir / "scenario.ini")
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("paths", "k_max", "1.5"),
        ("paths", "k_max", "2.5"),
        ("solver", "max_iterations", "99.5"),
        ("solver", "max_iterations", "inf"),
    ])
    def test_non_integral_integer_key_rejected(self, three_link_dir, monkeypatch, section,
                                               key, value):
        # half-way values used to round to the nearest even integer silently
        monkeypatch.setenv(f"DSUEDHI_{section.upper()}_{key.upper()}", value)
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 1
        with pytest.raises(ScenarioError, match=f"{key} = '{value}' is not an integer"):
            load_scenario(three_link_dir / "scenario.ini")

    @pytest.mark.parametrize("key", ["horizon_s", "dt_s"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_time_grid_rejected(self, three_link_dir, monkeypatch, capsys, key,
                                           value):
        # round(inf) used to end in an OverflowError traceback
        monkeypatch.setenv(f"DSUEDHI_TIME_{key.upper()}", value)
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "horizon and interval length must be finite" in err
        assert "Traceback" not in err

    def test_overflowing_interval_count_rejected(self, three_link_dir, monkeypatch, capsys):
        # both are finite, but their ratio is not, and round() cannot take it
        monkeypatch.setenv("DSUEDHI_TIME_HORIZON_S", "1e300")
        monkeypatch.setenv("DSUEDHI_TIME_DT_S", "1e-300")
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "horizon over interval length must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["validate"], ["solve"], ["sweep", "--param", "lambda", "--values", "0.25,0.75"],
    ], ids=["validate", "solve", "sweep"])
    @pytest.mark.parametrize("key, value, message", [
        ("CHOICE_THETA", "-1", "theta must be positive"),
        ("CHOICE_THETA", "nan", "choice parameters must be finite"),
        ("CHOICE_MU_LATE", "0.5", "0 < mu_early < 1 < mu_late"),
        ("CHOICE_TIME_UNIT_S", "0", "time unit must be positive"),
        ("PATHS_K_MAX", "0", "k_max must be at least 1"),
        ("PATHS_TIME_RATIO", "0.5", "ratio constraints must be at least 1"),
        ("PATHS_TIME_RATIO", "nan", "ratio constraints must be at least 1"),
        ("PATHS_LENGTH_RATIO", "nan", "ratio constraints must be at least 1"),
        ("DEMAND_INSTANT_SHARE", "1.5", "instantaneous share must lie in [0, 1]"),
        ("DEMAND_INSTANT_SHARE", "nan", "instantaneous share must lie in [0, 1]"),
    ])
    def test_bad_model_value_is_a_scenario_error(self, three_link_dir, tmp_path, monkeypatch,
                                                 capsys, key, value, message, args):
        # checked when the scenario is read, by the rule the model applies
        # later; a sweep fails before its first point
        monkeypatch.setenv(f"DSUEDHI_{key}", value)
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(three_link_dir / "scenario.ini")
        out = tmp_path / "o"
        assert run([*args, "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "Traceback" not in err
        assert not out.exists()

    def test_integral_spellings_of_integer_keys_accepted(self, three_link_dir, monkeypatch):
        monkeypatch.setenv("DSUEDHI_PATHS_K_MAX", "2.0")
        monkeypatch.setenv("DSUEDHI_SOLVER_MAX_ITERATIONS", "1e2")
        sc = load_scenario(three_link_dir / "scenario.ini")
        assert (sc.k_max, sc.solver.max_iterations) == (2, 100)
        assert type(sc.k_max) is int and type(sc.solver.max_iterations) is int
        assert run(["validate", "--scenario", three_link_dir / "scenario.ini"]) == 0


class TestUsageErrors:
    """Bad arguments exit 1 with an ``error:`` line, never a traceback or exit 3."""

    @pytest.mark.parametrize("args, message", [
        (["multistart", "--n", "1"], "argument --n"),
        (["multistart", "--seed", "-1"], "argument --seed"),
        (["sweep", "--param", "theta", "--values", "1,abc"], "argument --values"),
        (["sweep", "--param", "theta", "--values", "1.0"], "expected at least two values"),
    ], ids=["n-below-two", "negative-seed", "non-numeric-value", "one-value"])
    def test_rejected_by_the_parser(self, three_link_dir, tmp_path, capsys, args, message):
        code = run([*args, "--scenario", three_link_dir / "scenario.ini", "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, out", [
        (["solve"], "file"),
        (["sweep", "--param", "lambda", "--values", "0.25,0.75"], "file/x"),
        (["compare-dsue"], "file/x/y"),
        (["multistart"], "file"),
    ], ids=["solve-into-a-file", "sweep-under-a-file", "compare-under-a-file",
            "multistart-into-a-file"])
    def test_unusable_out_is_a_usage_error(self, three_link_dir, tmp_path, capsys,
                                           monkeypatch, args, out):
        # reported before solving; it used to surface only after the whole solve
        def never(*args, **kwargs):
            pytest.fail("solved although --out is unusable")

        for name in ("solve_sram", "solve_dsue", "multistart"):
            monkeypatch.setattr(cli.equilibrium, name, never)
        (tmp_path / "file").write_text("")
        code = run([*args, "--scenario", three_link_dir / "scenario.ini", "--out", tmp_path / out])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "is not a directory" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "three_link"]

    def test_solver_error_is_a_usage_error(self, three_link_dir, tmp_path, capsys,
                                           monkeypatch):
        def bad_start(*args, **kwargs):
            raise cli.equilibrium.SolverError("multistart needs at least two starts")

        monkeypatch.setattr(cli.equilibrium, "multistart", bad_start)
        code = run(["multistart", "--scenario", three_link_dir / "scenario.ini",
                    "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: multistart needs at least two starts" in err


def test_one_parser_serves_every_call_with_only_its_own_arguments(three_link_dir, tmp_path,
                                                                 monkeypatch, capsys):
    # the parser is built once per process; a call's options, given or
    # defaulted, must not leak into the next call
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda sc, *args: calls.append(("sweep", *args)))
    monkeypatch.setattr(cli, "run_multistart",
                        lambda sc, *args: calls.append(("multistart", *args)))
    monkeypatch.chdir(tmp_path)
    scenario = three_link_dir / "scenario.ini"
    run(["sweep", "--scenario", scenario, "--out", tmp_path / "s", "--param", "lambda",
         "--values", "0.25,0.75"])
    run(["multistart", "--scenario", scenario])
    assert run(["multistart", "--scenario", scenario, "--n", "1"]) == 1
    assert "argument --n" in capsys.readouterr().err
    assert run(["solve", "--scenario", scenario, "--out", tmp_path / "o"]) == 0
    assert calls == [("sweep", "lambda", [0.25, 0.75], tmp_path / "s"),
                     ("multistart", 20, 0, Path("out"))]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "three_link"]
    assert (tmp_path / "o" / "equilibrium.csv").read_bytes() == (
        ROOT / "out" / "three_link" / "equilibrium.csv").read_bytes()
    assert cli._build_parser() is cli._build_parser()


class TestFailureExitCodes:
    def test_model_error_exits_3_and_writes_nothing(self, three_link_dir, tmp_path, capsys):
        demand = three_link_dir / "demand.csv"
        demand.write_text(demand.read_text() + "C,A,5,5,2400\n")  # no link leaves C
        out = tmp_path / "o"
        assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error: OD pair with no path: C->A" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_no_demand_exits_3(self, three_link_dir, tmp_path, capsys, command):
        demand = three_link_dir / "demand.csv"
        header, *rows = demand.read_text().splitlines()
        zero = [",".join([*r.split(",")[:2], "0", "0", r.split(",")[4]]) for r in rows]
        demand.write_text("\n".join([header, *zero]) + "\n")
        out = tmp_path / "o"
        assert run([command, "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error: no OD pair has demand" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, files", [
        (["sweep", "--param", "lambda", "--values", "0.25,0.75"], ["sweep.csv"]),
        (["compare-dsue"], ["compare.csv", "compare.json"]),
        (["multistart", "--n", "2", "--seed", "1"], ["multistart.csv", "multistart.json"]),
    ], ids=["sweep", "compare-dsue", "multistart"])
    def test_one_iteration_exits_2_and_writes_its_files(self, three_link_dir, tmp_path,
                                                        monkeypatch, args, files):
        monkeypatch.setenv("DSUEDHI_SOLVER_MAX_ITERATIONS", "1")
        out = tmp_path / "o"
        assert run([*args, "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 2
        assert sorted(p.name for p in out.iterdir()) == files
        if args[0] == "sweep":
            _, rows = cli._read_rows(out / "sweep.csv")
            assert [r[1] for r in rows] == ["not-converged"] * 2
        elif args[0] == "compare-dsue":
            summary = json.loads((out / "compare.json").read_text())
            assert not summary["converged_dhi"] and not summary["converged_dsue"]
        else:  # every start failed, so no distance is written
            assert json.loads((out / "multistart.json").read_text())["n_failed"] == 2
            assert cli._read_rows(out / "multistart.csv") == (["run", "relative_distance"], [])


    @staticmethod
    def narrow(scenario_dir: Path) -> None:
        """Divide every capacity of the scenario's network by 40."""
        network = scenario_dir / "network.csv"
        header, *rows = network.read_text().splitlines()
        cells = [row.split(",") for row in rows]
        for c in cells:
            c[6] = repr(float(c[6]) / 40)
        network.write_text("\n".join([header, *map(",".join, cells)]) + "\n")

    @pytest.mark.parametrize("args, files, whats", [
        (["solve"], ["accuracy.csv", "equilibrium.csv", "metrics.json", "trace.csv"], [""]),
        (["compare-dsue"], ["compare.csv", "compare.json"], ["dhi: ", "dsue: "]),
        (["sweep", "--param", "lambda", "--values", "0.25,0.75"], ["sweep.csv"],
         ["lambda 0.25: ", "lambda 0.75: "]),
        (["multistart", "--n", "2", "--seed", "1"], ["multistart.csv", "multistart.json"],
         ["default start: ", "start 0: ", "start 1: "]),
    ], ids=["solve", "compare-dsue", "sweep", "multistart"])
    def test_undrained_final_loading_exits_4_and_writes_its_files(self, three_link_dir, tmp_path,
                                                                  capsys, args, files, whats):
        # with a fortieth of the capacity and no step past the horizon, the
        # solves converge but their final loadings, and every forecast
        # pattern of their last maps, end with trips on the road
        self.narrow(three_link_dir)
        out = tmp_path / "o"
        with step_cap(0):
            code = run([*args, "--scenario", three_link_dir / "scenario.ini", "--out", out])
        err = capsys.readouterr().err
        assert code == 4
        assert sorted(p.name for p in out.iterdir()) == files
        for what in whats:
            # the single-class dsue makes no forecasts; 3 paths x 40 x 41 / 2 open cells
            forecasts = "" if what == "dsue: " else (
                r"; 40 of 40 forecast patterns did not drain, and [1-9]\d* of 2460 forecast "
                r"path-time cells are extrapolated")
            assert re.search(f"^error: {what}the final loading did not drain after 40 steps at "
                             r"refine factor 1; [1-9]\d* of 120 path-time cells are extrapolated"
                             f"{forecasts}$", err, re.M), err
        assert len(err.splitlines()) == len(whats) and "Traceback" not in err
        if args == ["solve"]:
            assert "; 80 of 120 path-time cells" in err
            assert json.loads((out / "metrics.json").read_text())["converged"] is True

    def test_an_undrained_forecast_pattern_alone_fails_the_check(self, three_link_solution,
                                                                 capsys):
        # the final loading drained; one forecast pattern of the last map did not
        assert cli._drained(three_link_solution) and not capsys.readouterr().err
        batch = three_link_solution.forecast_batch
        undrained = replace(batch, drained=batch.drained.copy())
        undrained.drained[3] = False
        assert not cli._drained(replace(three_link_solution, forecast_batch=undrained), "x: ")
        assert re.fullmatch(r"error: x: the final loading drained after \d+ steps at refine factor "
                            r"1; 0 of 120 path-time cells are extrapolated; 1 of 40 forecast "
                            r"patterns did not drain, and 0 of 2460 forecast path-time cells are "
                            r"extrapolated\n", capsys.readouterr().err)

    def test_undrained_takes_precedence_over_not_converged(self, three_link_dir, tmp_path,
                                                           monkeypatch, capsys):
        self.narrow(three_link_dir)
        monkeypatch.setenv("DSUEDHI_SOLVER_MAX_ITERATIONS", "1")
        out = tmp_path / "o"
        with step_cap(0):
            assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 4
        assert "did not drain" in capsys.readouterr().err
        assert json.loads((out / "metrics.json").read_text())["converged"] is False


class TestArtifactReaders:
    """Each reader accepts its writer's header and rejects any other."""

    @pytest.mark.parametrize("header, name", [
        (cli.EQUILIBRIUM_HEADER, "equilibrium.csv"),
        (cli.TRACE_HEADER, "trace.csv"),
        (cli.ACCURACY_HEADER, "accuracy.csv"),
    ], ids=["equilibrium", "trace", "accuracy"])
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h[1:], id="first-column-missing"),
        pytest.param(lambda h: h + ["extra"], id="extra-column"),
        pytest.param(lambda h: h[:-2] + h[-1:] + h[-2:-1], id="columns-swapped"),
        pytest.param(lambda h: [h[0].upper()] + h[1:], id="renamed"),
    ])
    def test_header_must_match(self, tmp_path, header, name, edit):
        committed = ROOT / "out" / "three_link" / name
        first, body = committed.read_text().split("\n", 1)
        assert cli._read_rows(committed, header)[1]
        f = tmp_path / name
        f.write_text(",".join(edit(first.split(","))) + "\n" + body)
        with pytest.raises(ScenarioError, match="unexpected"):
            cli._read_rows(f, header)

    def test_empty_file_names_the_path_and_the_header(self, tmp_path):
        f = tmp_path / "equilibrium.csv"
        f.write_text("")
        with pytest.raises(ScenarioError, match=re.escape(f"{f}: empty file, expected "
                                                          f"{cli.EQUILIBRIUM_HEADER}")):
            cli.read_equilibrium_csv(f)

    def test_equilibrium_reader_returns_both_classes_per_cell(self):
        table = cli.read_equilibrium_csv(ROOT / "out" / "three_link" / "equilibrium.csv")
        header, rows = cli._read_rows(ROOT / "out" / "three_link" / "equilibrium.csv")
        assert header == cli.EQUILIBRIUM_HEADER and len(table) == len(rows)
        od, path_id, t, h_instant, h_forecast = rows[-1]
        assert table[(od, int(path_id), int(t))] == (float(h_instant), float(h_forecast))


class TestSolve:
    def test_artifacts_written_and_deterministic(self, three_link_dir, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out1]) == 0
        assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out2]) == 0
        for name in ("equilibrium.csv", "trace.csv", "accuracy.csv", "metrics.json"):
            assert (out1 / name).exists()
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_round_trips(self, three_link_dir, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 0
        eq = cli.read_equilibrium_csv(out / "equilibrium.csv")
        _, trace = cli._read_rows(out / "trace.csv", cli.TRACE_HEADER)
        _, acc = cli._read_rows(out / "accuracy.csv", cli.ACCURACY_HEADER)
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["scenario_id"] == "three-link-base"
        assert payload["converged"] is True
        assert len(trace) == payload["iterations"]
        assert eq and acc

    def test_malformed_demand_row(self, three_link_dir, tmp_path, capsys):
        (three_link_dir / "demand.csv").write_text(
            "origin,destination,demand_instant,demand_forecast,target_arrival_s\nA,C,1,1\n"
        )
        code = run(["solve", "--scenario", three_link_dir / "scenario.ini",
                    "--out", tmp_path / "o"])
        assert code == 1
        assert "line 2: expected 5 fields" in capsys.readouterr().err

    def test_headerless_demand_error_names_the_file(self, three_link_dir, tmp_path, capsys):
        demand = three_link_dir / "demand.csv"
        demand.write_text(demand.read_text().split("\n", 1)[1])
        code = run(["solve", "--scenario", three_link_dir / "scenario.ini",
                    "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {demand}: line 1: a record where the header row belongs" in err

    def test_non_convergence_exit_code_and_trace(self, three_link_dir, tmp_path):
        ini = three_link_dir / "scenario.ini"
        ini.write_text(
            ini.read_text().replace("max_iterations = 100", "max_iterations = 2")
            .replace("tolerance = 1e-4", "tolerance = 1e-18")
        )
        out = tmp_path / "o"
        code = run(["solve", "--scenario", ini, "--out", out])
        assert code == 2
        assert len(cli._read_rows(out / "trace.csv", cli.TRACE_HEADER)[1]) == 2
        assert (out / "equilibrium.csv").exists()

    @pytest.mark.parametrize("value", ["0.6", "-0.1", "nan"])
    def test_bad_trim_fraction_rejected_before_solving(self, three_link_dir, tmp_path,
                                                      monkeypatch, capsys, value):
        # 0.6 used to solve and write equilibrium.csv and trace.csv, then exit 3
        monkeypatch.setenv("DSUEDHI_METRICS_TRIM_FRACTION", value)
        out = tmp_path / "o"
        assert run(["solve", "--scenario", three_link_dir / "scenario.ini", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_optional_dumps(self, three_link_dir, tmp_path):
        ini = three_link_dir / "scenario.ini"
        ini.write_text(ini.read_text() + "\n[output]\ndump_forecasts = true\ndump_curves = true\n")
        out = tmp_path / "o"
        assert run(["solve", "--scenario", ini, "--out", out]) == 0
        assert (out / "curves.csv").exists()
        assert (out / "forecasts.csv").exists()


def test_readme_artifact_list_names_every_file_written(three_link_dir, tmp_path,
                                                       monkeypatch):
    ini = three_link_dir / "scenario.ini"
    monkeypatch.setenv("DSUEDHI_OUTPUT_DUMP_FORECASTS", "true")
    monkeypatch.setenv("DSUEDHI_OUTPUT_DUMP_CURVES", "true")
    for name, args in (("solve", []),
                       ("sweep", ["--param", "lambda", "--values", "0.25,0.75"]),
                       ("compare-dsue", []),
                       ("multistart", ["--n", "2", "--seed", "1"])):
        assert run([name, "--scenario", ini, "--out", tmp_path / "out" / name, *args]) == 0, name
    written = {p.name for p in (tmp_path / "out").glob("*/*")}
    named = set(re.findall(r"`(\w+\.(?:csv|json))`", readme_artifact_section()))
    assert written == named


def readme_artifact_section() -> str:
    section = (ROOT / "README.md").read_text().split("## Output artifacts", 1)[1]
    return section.split("\n## ", 1)[0]


def test_readme_column_lists_match_the_headers():
    # each table is listed as `name.csv` ...: `column, column, ...`
    listed = {name: [c.strip() for c in columns.split(",")] for name, columns in
              re.findall(r"`(\w+\.csv)`[^:]*:\s*`([^`]+)`", readme_artifact_section())}
    headers = {f"{name.removesuffix('_HEADER').lower()}.csv": getattr(cli, name)
               for name in dir(cli) if name.endswith("_HEADER")}
    assert len(headers) == 8
    assert listed == headers


class TestSweep:
    def test_theta_sweep_rows(self, three_link_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["sweep", "--scenario", three_link_dir / "scenario.ini", "--out", out,
                    "--param", "theta", "--values", "0.5,1.0"])
        assert code == 0
        header, rows = cli._read_rows(out / "sweep.csv")
        assert header[0] == "value" and len(rows) == 2

    def test_repeated_value_identical_rows(self, three_link_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["sweep", "--scenario", three_link_dir / "scenario.ini", "--out", out,
                    "--param", "theta", "--values", "1.0,1.0"])
        assert code == 0
        _, rows = cli._read_rows(out / "sweep.csv")
        assert rows[0] == rows[1]

    def test_rerun_does_not_change_bytes(self, three_link_dir, tmp_path):
        outs = []
        for run_index in (1, 2):
            out = tmp_path / f"r{run_index}"
            assert run(["sweep", "--scenario", three_link_dir / "scenario.ini", "--out", out,
                        "--param", "lambda", "--values", "0.25,0.75"]) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]

    def test_per_point_failure_recorded_and_sweep_continues(self, three_link_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["sweep", "--scenario", three_link_dir / "scenario.ini", "--out", out,
                    "--param", "lambda", "--values", "0.5,1.5"])
        assert code == 2
        _, rows = cli._read_rows(out / "sweep.csv")
        assert rows[0][1] == "ok"
        assert rows[1][1] == "error"


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_theta_is_an_error_row(self, three_link_dir, tmp_path, capsys, bad):
        out = tmp_path / "o"
        code = run(["sweep", "--scenario", three_link_dir / "scenario.ini", "--out", out,
                    "--param", "theta", "--values", f"{bad},1"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        _, rows = cli._read_rows(out / "sweep.csv")
        assert rows[0][:3] == [bad, "error", "choice parameters must be finite"]
        assert rows[1][1] == "ok"


class TestCompare:
    def test_uncongested_no_difference(self, tmp_path):
        out = tmp_path / "o"
        code = run(["compare-dsue", "--scenario",
                    SCENARIOS / "grid_uncongested" / "scenario.ini", "--out", out])
        assert code == 0
        header, rows = cli._read_rows(out / "compare.csv")
        for row in rows:
            rel = dict(zip(header, row))
            assert abs(float(rel["rel_diff_disutility"])) <= 1e-6
            assert abs(float(rel["rel_diff_travel_time"])) <= 1e-6

    def test_congested_differences_exist(self, three_link_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["compare-dsue", "--scenario", three_link_dir / "scenario.ini",
                    "--out", out])
        assert code == 0
        header, rows = cli._read_rows(out / "compare.csv")
        diffs = [abs(float(dict(zip(header, r))["rel_diff_travel_time"])) for r in rows]
        assert max(diffs) > 1e-6


class TestMultistartCli:
    def test_writes_histogram_data(self, three_link_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["multistart", "--scenario", three_link_dir / "scenario.ini",
                    "--out", out, "--n", "3", "--seed", "7"])
        assert code == 0
        _, rows = cli._read_rows(out / "multistart.csv")
        assert len(rows) == 3
        payload = json.loads((out / "multistart.json").read_text())
        assert payload["n_converged"] == 3

    def test_seeded_determinism(self, three_link_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["multistart", "--scenario", three_link_dir / "scenario.ini",
                        "--out", out, "--n", "2", "--seed", "3"]) == 0
            outs.append(dir_bytes(out))
        assert outs[0] == outs[1]


class TestEnvOverride:
    def test_env_var_changes_solver(self, three_link_dir, monkeypatch):
        monkeypatch.setenv("DSUEDHI_SOLVER_MAX_ITERATIONS", "7")
        sc = load_scenario(three_link_dir / "scenario.ini")
        assert sc.solver.max_iterations == 7

    def test_unknown_section_rejected(self, three_link_dir):
        ini = three_link_dir / "scenario.ini"
        ini.write_text(ini.read_text() + "\n[nope]\nx = 1\n")
        with pytest.raises(ScenarioError):
            load_scenario(ini)
