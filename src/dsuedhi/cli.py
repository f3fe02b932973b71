"""Command-line scenario runner.

Subcommands: validate, solve, sweep, compare-dsue, multistart, print-config.
Exit codes: 0 success, 1 usage or parse error, 2 non-convergence, 3 model
error. Artifacts are deterministic: identical scenario and seed give
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import equilibrium, metrics
from .choice import ChoiceError, open_cells
from .dnl import DnlError
from .equilibrium import EquilibriumResult, SolverError
from .network import NetworkError, ParseError
from .scenario import Scenario, ScenarioError, default_config_text, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_MODEL = 3

EQUILIBRIUM_HEADER = ["od", "path_id", "t_index", "h_instant", "h_forecast"]
TRACE_HEADER = ["k", "residual", "beta", "alpha"]
ACCURACY_HEADER = ["class", "od", "path_id", "t_index", "itt_s", "rtt_s", "rel_diff", "departures"]
CURVES_HEADER = ["link_id", "t", "n_up", "n_dn"]
FORECASTS_HEADER = ["provided_at", "path_id", "departure_t", "phi_s"]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _column(values) -> list[str]:
    """Each value of an array, row-major, formatted as ``_fmt`` does."""
    return [format(x, ".12g") for x in np.asarray(values, dtype=float).ravel().tolist()]


def _write_lines(path: Path, header: list[str], lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def _read_artifact(path: Path, header: list[str]) -> list[list[str]]:
    found, rows = _read_rows(path)
    if found != header:
        raise ScenarioError(f"{path}: unexpected header {found}, expected {header}")
    return rows


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell_keys(net, path_set, n_intervals: int) -> list[str]:
    """``od,path_id,t_index`` of every (path, interval) cell, path-major."""
    keys = []
    for pth in path_set.paths:
        od = net.od_pairs[pth.od_index]
        keys += [f"{od.origin}-{od.destination},{pth.path_id},{t}" for t in range(n_intervals)]
    return keys


def write_equilibrium_csv(path: Path, result: EquilibriumResult, net, path_set) -> None:
    keys = _cell_keys(net, path_set, result.h_total.shape[1])
    _write_lines(path, EQUILIBRIUM_HEADER,
                 map(",".join, zip(keys, _column(result.h_instant), _column(result.h_forecast))))


def read_equilibrium_csv(path: Path) -> dict[tuple[str, int, int], tuple[float, float]]:
    return {
        (r[0], int(r[1]), int(r[2])): (float(r[3]), float(r[4]))
        for r in _read_artifact(path, EQUILIBRIUM_HEADER)
    }


def write_trace_csv(path: Path, result: EquilibriumResult) -> None:
    rows = [
        (str(k + 1), _fmt(result.residuals[k]), _fmt(result.betas[k]), _fmt(result.alphas[k]))
        for k in range(result.n_iterations)
    ]
    _write_lines(path, TRACE_HEADER, map(",".join, rows))


def read_trace_csv(path: Path) -> list[tuple[int, float, float, float]]:
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
            for r in _read_artifact(path, TRACE_HEADER)]


def write_accuracy_csv(path: Path, report: metrics.AccuracyReport, net, path_set) -> None:
    keys = _cell_keys(net, path_set, report.rtt.shape[1])
    rtt = _column(report.rtt)
    lines = []
    for cls, itt, rd, dep in (
        ("instant", report.itt_instant, report.rel_diff_instant, report.departures_instant),
        ("forecast", report.itt_forecast, report.rel_diff_forecast, report.departures_forecast),
    ):
        lines += map(",".join, zip([cls] * len(keys), keys, _column(itt), rtt, _column(rd),
                                   _column(dep)))
    _write_lines(path, ACCURACY_HEADER, lines)


def read_accuracy_csv(path: Path) -> list[dict]:
    return [dict(zip(ACCURACY_HEADER, r)) for r in _read_artifact(path, ACCURACY_HEADER)]


def _solve_scenario(sc: Scenario) -> tuple[EquilibriumResult, tuple]:
    built = sc.build()
    net, path_set, grid, params = built
    result = equilibrium.solve_sram(net, path_set, grid, params, sc.solver)
    return result, built


def _metrics_payload(
    sc: Scenario, result: EquilibriumResult, built, acc: metrics.AccuracyReport
) -> dict:
    net, path_set, grid, params = built
    payload: dict = {
        "scenario_id": sc.scenario_id,
        "model": result.model,
        "converged": bool(result.converged),
        "iterations": int(result.n_iterations),
        "final_residual": result.final_residual,
        "total_travel_time_veh_s": metrics.total_travel_time(result, grid, sc.trim_fraction),
    }
    if result.model == "dsue-dhi":
        dis = metrics.experienced_disutility(
            result, net, path_set, grid, params, sc.trim_fraction
        )
        payload.update(
            {
                "accuracy_norm_instant": acc.norm_instant,
                "accuracy_norm_forecast": acc.norm_forecast,
                "accuracy_norm_rtt": acc.norm_rtt,
                # an empty class has no average; keep the file strict JSON
                "avg_disutility": {
                    k: (None if np.isnan(v) else v)
                    for k, v in dis.overall_average.items()
                },
            }
        )
    return payload


def run_solve(sc: Scenario, out_dir: Path) -> int:
    result, built = _solve_scenario(sc)
    net, path_set, grid, params = built
    out_dir.mkdir(parents=True, exist_ok=True)
    write_equilibrium_csv(out_dir / "equilibrium.csv", result, net, path_set)
    write_trace_csv(out_dir / "trace.csv", result)
    acc = metrics.information_accuracy(result, grid, sc.trim_fraction)
    write_accuracy_csv(out_dir / "accuracy.csv", acc, net, path_set)
    _write_json(out_dir / "metrics.json", _metrics_payload(sc, result, built, acc))
    if sc.dump_curves:  # every link's curves at every simulation boundary, link-major
        ld = result.loading
        ids = [str(link.link_id) for link in net.links for _ in ld.boundaries]
        _write_lines(out_dir / "curves.csv", CURVES_HEADER, map(",".join, zip(
            ids, _column(np.tile(ld.boundaries, len(net.links))),
            _column(ld.n_up), _column(ld.n_dn))))
    if sc.dump_forecasts:
        _dump_forecasts(out_dir / "forecasts.csv", result.forecasts)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _dump_forecasts(path: Path, forecasts: np.ndarray) -> None:
    """Every open cell (departure at or after provision) of the forecasts, row-major."""
    T = len(forecasts)
    cells = np.nonzero(np.broadcast_to(open_cells(0, T, T), forecasts.shape))
    _write_lines(path, FORECASTS_HEADER, map(",".join, zip(
        *(map(str, index.tolist()) for index in cells), _column(forecasts[cells]))))


def run_sweep(sc: Scenario, parameter: str, values: list[float], out_dir: Path) -> int:
    if parameter == "theta":
        scenarios = [replace(sc, theta=v, instant_share=0.5) for v in values]
    else:  # "lambda", the parser's only other choice
        scenarios = [replace(sc, theta=1.0, instant_share=v) for v in values]

    def one(s: Scenario):
        try:
            result, built = _solve_scenario(s)
            return result, built, None
        except (NetworkError, ChoiceError, DnlError, ScenarioError) as exc:
            return None, None, str(exc)

    outcomes = [one(s) for s in scenarios]

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    any_failed = False
    for v, (result, built, err) in zip(values, outcomes):
        if err is not None:
            rows.append((_fmt(v), "error", err, "", "", "", "", ""))
            any_failed = True
            continue
        net, path_set, grid, params = built
        acc = metrics.information_accuracy(result, grid, sc.trim_fraction)
        dis = metrics.experienced_disutility(result, net, path_set, grid, params, sc.trim_fraction)
        rows.append(
            (
                _fmt(v),
                "ok" if result.converged else "not-converged",
                _fmt(dis.overall_average.get("instant", float("nan"))),
                _fmt(dis.overall_average.get("forecast", float("nan"))),
                _fmt(metrics.total_travel_time(result, grid, sc.trim_fraction)),
                _fmt(acc.norm_instant),
                _fmt(acc.norm_forecast),
                str(result.n_iterations),
            )
        )
        if not result.converged:
            any_failed = True
    _write_lines(
        out_dir / "sweep.csv",
        ["value", "status", "avg_disutility_instant", "avg_disutility_forecast",
         "total_travel_time", "accuracy_norm_instant", "accuracy_norm_forecast", "iterations"],
        map(",".join, rows),
    )
    return EXIT_NOT_CONVERGED if any_failed else EXIT_OK


def run_compare_dsue(sc: Scenario, out_dir: Path) -> int:
    built = sc.build()
    net, path_set, grid, params = built
    dhi = equilibrium.solve_sram(net, path_set, grid, params, sc.solver)
    dsue = equilibrium.solve_dsue(net, path_set, grid, params, sc.solver)
    out_dir.mkdir(parents=True, exist_ok=True)

    dis_dhi = metrics.experienced_disutility(dhi, net, path_set, grid, params, sc.trim_fraction)
    dis_dsue = metrics.experienced_disutility(dsue, net, path_set, grid, params, sc.trim_fraction)
    rtt_dhi = dhi.loading.path_time
    rtt_dsue = dsue.loading.path_time
    window = dis_dhi.window[None, :]

    rows = []
    for od_index, od in enumerate(net.od_pairs):
        sl = path_set.od_slices[od_index]
        tt_dhi = float(np.sum((dhi.h_total * rtt_dhi * window)[sl]))
        tt_dsue = float(np.sum((dsue.h_total * rtt_dsue * window)[sl]))
        dis_a = dis_dhi.per_od_total["all"][od_index]
        dis_b = dis_dsue.per_od_total["all"][od_index]
        rel_dis = (dis_a - dis_b) / dis_b if dis_b else 0.0
        rel_tt = (tt_dhi - tt_dsue) / tt_dsue if tt_dsue else 0.0
        rows.append(
            (f"{od.origin}-{od.destination}", _fmt(dis_a), _fmt(dis_b), _fmt(rel_dis),
             _fmt(tt_dhi), _fmt(tt_dsue), _fmt(rel_tt))
        )
    _write_lines(
        out_dir / "compare.csv",
        ["od", "disutility_dhi", "disutility_dsue", "rel_diff_disutility",
         "travel_time_dhi", "travel_time_dsue", "rel_diff_travel_time"],
        map(",".join, rows),
    )
    summary = {
        "scenario_id": sc.scenario_id,
        "converged_dhi": bool(dhi.converged),
        "converged_dsue": bool(dsue.converged),
        "total_travel_time_dhi": metrics.total_travel_time(dhi, grid, sc.trim_fraction),
        "total_travel_time_dsue": metrics.total_travel_time(dsue, grid, sc.trim_fraction),
        "avg_disutility_dhi": dis_dhi.overall_average["all"],
        "avg_disutility_dsue": dis_dsue.overall_average["all"],
    }
    _write_json(out_dir / "compare.json", summary)
    if not (dhi.converged and dsue.converged):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def run_multistart(sc: Scenario, n: int, seed: int, out_dir: Path) -> int:
    built = sc.build()
    net, path_set, grid, params = built
    result = equilibrium.multistart(net, path_set, grid, params, sc.solver, n, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [(str(i), _fmt(d)) for i, d in enumerate(result.distances)]
    _write_lines(out_dir / "multistart.csv", ["run", "relative_distance"], map(",".join, rows))
    summary = {
        "scenario_id": sc.scenario_id,
        "n_starts": n,
        "seed": seed,
        "n_converged": result.n_converged,
        "n_failed": result.n_failed,
        "max_distance": float(result.distances.max()) if result.distances.size else 0.0,
    }
    _write_json(out_dir / "multistart.json", summary)
    return EXIT_NOT_CONVERGED if result.n_failed else EXIT_OK


def run_validate(sc: Scenario) -> int:
    net, path_set, grid, params = sc.build()
    print(
        f"{sc.scenario_id}: {len(net.links)} links, {len(net.nodes)} nodes, "
        f"{net.n_ods} OD pairs, {path_set.n_paths} paths, {grid.n_intervals} intervals"
    )
    return EXIT_OK


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        if not text.strip().removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def _numbers(text: str) -> list[float]:
    """argparse type: two or more comma-separated numbers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(values) < 2:
        raise argparse.ArgumentTypeError(f"expected at least two values, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsuedhi", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", default="out")

    common(sub.add_parser("validate", help="parse and validate a scenario"))
    common(sub.add_parser("solve", help="solve one equilibrium and write artifacts"))
    sweep = sub.add_parser("sweep", help="solve across a parameter grid")
    common(sweep)
    sweep.add_argument("--param", required=True, choices=["theta", "lambda"])
    sweep.add_argument("--values", required=True, type=_numbers,
                       help="two or more comma-separated numbers")
    common(sub.add_parser("compare-dsue", help="solve both models and compare"))
    ms = sub.add_parser("multistart", help="solve from seeded random initial patterns")
    common(ms)
    ms.add_argument("--n", type=_at_least(2), default=20)
    ms.add_argument("--seed", type=_at_least(0), default=0)
    sub.add_parser("print-config", help="print all scenario defaults")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    if args.command == "print-config":
        print(default_config_text(), end="")
        return EXIT_OK

    out_dir = Path(args.out)
    try:
        sc = load_scenario(args.scenario)
        if args.command == "validate":
            return run_validate(sc)
        if args.command == "solve":
            return run_solve(sc, out_dir)
        if args.command == "sweep":
            return run_sweep(sc, args.param, args.values, out_dir)
        if args.command == "compare-dsue":
            return run_compare_dsue(sc, out_dir)
        return run_multistart(sc, args.n, args.seed, out_dir)  # the parser's last command
    except (ParseError, ScenarioError, SolverError, OSError) as exc:  # OSError: an unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NetworkError, ChoiceError, DnlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
