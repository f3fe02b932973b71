"""Command-line scenario runner.

Subcommands: validate, solve, sweep, compare-dsue, multistart, print-config.
Exit codes: 0 success, 1 usage or parse error, 2 non-convergence, 3 model
error, 4 a final loading or a forecast pattern of the last map that did not
drain or extrapolated path times (before 2; its artifacts are still written).
Artifacts are deterministic: identical scenario and seed give byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import equilibrium, metrics
from .choice import ChoiceError, open_cells
from .dnl import DnlError
from .equilibrium import CLASS_NAMES, EquilibriumResult, SolverError
from .network import NetworkError, ParseError
from .scenario import Scenario, ScenarioError, default_config_text, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_MODEL = 3
EXIT_UNDRAINED = 4

EQUILIBRIUM_HEADER = ["od", "path_id", "t_index", "h_instant", "h_forecast"]
TRACE_HEADER = ["k", "residual", "beta", "alpha"]
ACCURACY_HEADER = ["class", "od", "path_id", "t_index", "itt_s", "rtt_s", "rel_diff", "departures"]
CURVES_HEADER = ["link_id", "t", "n_up", "n_dn"]
FORECASTS_HEADER = ["provided_at", "path_id", "departure_t", "phi_s"]
SWEEP_HEADER = ["value", "status", "avg_disutility_instant", "avg_disutility_forecast",
                "total_travel_time", "accuracy_norm_instant", "accuracy_norm_forecast",
                "iterations"]
COMPARE_HEADER = ["od", "disutility_dhi", "disutility_dsue", "rel_diff_disutility",
                  "travel_time_dhi", "travel_time_dsue", "rel_diff_travel_time"]
MULTISTART_HEADER = ["run", "relative_distance"]


def _column(values) -> list[str]:
    """Each value of an array, row-major, with 12 significant digits."""
    return [format(x, ".12g") for x in np.asarray(values, dtype=float).ravel().tolist()]


def _write_table(path: Path, header: list[str], *columns) -> None:
    """Write ``header`` and one line per row.

    Each column is an array, formatted by ``_column``, or a sequence of strings.
    """
    cells = [_column(c) if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", encoding="utf-8") as fh:  # one write: line by line took twice as long
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells, strict=True))]) + "\n")


def _read_rows(path: Path, header: list[str] | None = None) -> tuple[list[str], list[list[str]]]:
    """A table's header and rows; with ``header``, a file with any other header is rejected."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if not lines:
        raise ScenarioError(f"{path}: empty file" + (f", expected {header}" if header else ""))
    found, *rows = lines
    if header is not None and found != header:
        raise ScenarioError(f"{path}: unexpected header {found}, expected {header}")
    return found, rows


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


def write_equilibrium_csv(path: Path, result: EquilibriumResult, keys: list[str]) -> None:
    """Both classes' departures of every cell, keyed by ``_cell_keys``."""
    _write_table(path, EQUILIBRIUM_HEADER, keys, *result.h)


def read_equilibrium_csv(path: Path) -> dict[tuple[str, int, int], tuple[float, float]]:
    return {
        (r[0], int(r[1]), int(r[2])): (float(r[3]), float(r[4]))
        for r in _read_rows(path, EQUILIBRIUM_HEADER)[1]
    }


def write_trace_csv(path: Path, result: EquilibriumResult) -> None:
    _write_table(path, TRACE_HEADER, np.arange(1, result.n_iterations + 1), result.residuals,
                 result.betas, result.alphas)


def write_accuracy_csv(path: Path, report: metrics.AccuracyReport, keys: list[str]) -> None:
    """The instantaneous class's cells, then the forecast class's, keyed by ``_cell_keys``."""
    _write_table(path, ACCURACY_HEADER, [c for c in CLASS_NAMES["dsue-dhi"] for _ in keys],
                 keys * 2, report.itt, _column(report.rtt) * 2, report.rel_diff,
                 report.departures)


@dataclass
class _Summary:
    """What the commands report of one solve."""

    converged: bool
    iterations: int
    final_residual: float
    total_travel_time: float
    disutility: metrics.DisutilityReport
    accuracy: metrics.AccuracyReport | None  # None for the single-class dsue


def _summary(sc: Scenario, result: EquilibriumResult, built) -> _Summary:
    net, path_set, grid, params = built
    return _Summary(
        converged=bool(result.converged),
        iterations=int(result.n_iterations),
        final_residual=result.final_residual,
        total_travel_time=metrics.total_travel_time(result, grid, sc.trim_fraction),
        disutility=metrics.experienced_disutility(
            result, net, path_set, grid, params, sc.trim_fraction),
        accuracy=(metrics.information_accuracy(result, grid, sc.trim_fraction)
                  if result.model == "dsue-dhi" else None),
    )


def _drained(result: EquilibriumResult, what: str = "") -> bool:
    """Whether ``result``'s final loading and last forecast patterns drained and
    simulated every path time.

    If not, says so on stderr, after ``what``: the steps the loading took,
    its refine factor and its extrapolated path-time cells, then the forecast
    patterns that did not drain and their extrapolated (open) cells.
    """
    ld, fc = result.loading, result.forecast_batch
    cells = int(ld.extrapolated.sum())
    message = (f"error: {what}the final loading {'drained' if ld.drained else 'did not drain'} "
               f"after {ld.n_steps} steps at refine factor {round(ld.grid.dt_s / ld.sim_dt_s)}; "
               f"{cells} of {ld.extrapolated.size} path-time cells are extrapolated")
    healthy = ld.drained and not cells
    if fc is not None:
        undrained, fc_cells = int((~fc.drained).sum()), int(fc.extrapolated.sum())
        message += (f"; {undrained} of {fc.drained.size} forecast patterns did not drain, and "
                    f"{fc_cells} of {int(np.isfinite(fc.path_time).sum())} forecast path-time "
                    f"cells are extrapolated")
        healthy &= not undrained and not fc_cells
    if not healthy:
        print(message, file=sys.stderr)
    return healthy


def _exit_code(converged: bool, drained: bool) -> int:
    return EXIT_UNDRAINED if not drained else EXIT_OK if converged else EXIT_NOT_CONVERGED


def run_solve(sc: Scenario, out_dir: Path) -> int:
    built = sc.build()
    net, path_set, grid, _ = built
    result = equilibrium.solve_sram(*built, sc.solver)
    s = _summary(sc, result, built)
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = _cell_keys(net, path_set, grid.n_intervals)
    write_equilibrium_csv(out_dir / "equilibrium.csv", result, keys)
    write_trace_csv(out_dir / "trace.csv", result)
    write_accuracy_csv(out_dir / "accuracy.csv", s.accuracy, keys)
    _write_json(out_dir / "metrics.json", {
        "scenario_id": sc.scenario_id,
        "model": result.model,
        "converged": s.converged,
        "iterations": s.iterations,
        "final_residual": s.final_residual,
        "total_travel_time_veh_s": s.total_travel_time,
        "accuracy_norm_instant": s.accuracy.norm_instant,
        "accuracy_norm_forecast": s.accuracy.norm_forecast,
        "accuracy_norm_rtt": s.accuracy.norm_rtt,
        # an empty class has no average; keep the file strict JSON
        "avg_disutility": {k: (None if np.isnan(v) else v)
                           for k, v in s.disutility.overall_average.items()},
    })
    if sc.dump_curves:  # every link's curves at every simulation boundary, link-major
        ld = result.loading
        _write_table(out_dir / "curves.csv", CURVES_HEADER,
                     [str(link.link_id) for link in net.links for _ in ld.boundaries],
                     np.tile(ld.boundaries, len(net.links)), ld.n_up, ld.n_dn)
    if sc.dump_forecasts:  # every open cell (departure at or after provision), row-major
        forecasts = result.forecast_batch.path_time
        T = len(forecasts)
        cells = np.nonzero(np.broadcast_to(open_cells(0, T, T), forecasts.shape))
        _write_table(out_dir / "forecasts.csv", FORECASTS_HEADER, *cells, forecasts[cells])
    return _exit_code(s.converged, _drained(result))


def run_sweep(sc: Scenario, parameter: str, values: list[float], out_dir: Path) -> int:
    cells = []  # per value: every column after the value
    drained = True
    for v in values:
        if parameter == "theta":
            point = replace(sc, theta=v, instant_share=0.5)
        else:  # "lambda", the parser's only other choice
            point = replace(sc, theta=1.0, instant_share=v)
        try:
            built = point.build()
            result = equilibrium.solve_sram(*built, point.solver)
        except (NetworkError, ChoiceError, DnlError, ScenarioError) as exc:
            cells.append(["error", str(exc), "", "", "", "", ""])
            continue
        s = _summary(point, result, built)
        drained &= _drained(result, f"{parameter} {v:g}: ")
        average = s.disutility.overall_average
        cells.append(["ok" if s.converged else "not-converged", *_column([
            average.get("instant", np.nan), average.get("forecast", np.nan),
            s.total_travel_time, s.accuracy.norm_instant, s.accuracy.norm_forecast,
        ]), str(s.iterations)])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "sweep.csv", SWEEP_HEADER, np.array(values), *zip(*cells))
    return _exit_code(all(c[0] == "ok" for c in cells), drained)


def run_compare_dsue(sc: Scenario, out_dir: Path) -> int:
    built = sc.build()
    net, path_set, grid, _ = built
    window = metrics.trim_window(grid, sc.trim_fraction)[None, :]
    payload: dict = {"scenario_id": sc.scenario_id}
    disutility, travel_time = [], []  # per model: (n_ods,)
    drained = True
    for name, solve in (("dhi", equilibrium.solve_sram), ("dsue", equilibrium.solve_dsue)):
        result = solve(*built, sc.solver)
        s = _summary(sc, result, built)
        drained &= _drained(result, f"{name}: ")
        timed = result.h_total * result.loading.path_time * window
        disutility.append(s.disutility.per_od_total["all"])
        travel_time.append(np.array([np.sum(timed[sl]) for sl in path_set.od_slices]))
        payload |= {f"converged_{name}": s.converged,
                    f"total_travel_time_{name}": s.total_travel_time,
                    f"avg_disutility_{name}": s.disutility.overall_average["all"]}

    def rel_diff(a, b):  # 0 where the single-class value is 0
        return np.divide(a - b, b, out=np.zeros_like(b), where=b != 0)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "compare.csv", COMPARE_HEADER,
                 [f"{od.origin}-{od.destination}" for od in net.od_pairs],
                 *disutility, rel_diff(*disutility), *travel_time, rel_diff(*travel_time))
    _write_json(out_dir / "compare.json", payload)
    return _exit_code(payload["converged_dhi"] and payload["converged_dsue"], drained)


def run_multistart(sc: Scenario, n: int, seed: int, out_dir: Path) -> int:
    result = equilibrium.multistart(*sc.build(), sc.solver, n, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(out_dir / "multistart.csv", MULTISTART_HEADER,
                 np.arange(result.distances.size), result.distances)
    _write_json(out_dir / "multistart.json", {
        "scenario_id": sc.scenario_id,
        "n_starts": n,
        "seed": seed,
        "n_converged": result.n_converged,
        "n_failed": result.n_failed,
        "max_distance": float(result.distances.max()) if result.distances.size else 0.0,
    })
    drained = [_drained(r, "default start: " if i == 0 else f"start {i - 1}: ")
               for i, r in enumerate(result.solves)]
    return _exit_code(not result.n_failed, all(drained))


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing changes nothing in it."""
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


def _check_out(out_dir: Path) -> None:
    """Fail before solving unless ``out_dir`` is a directory or can be made one; make nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {existing} is not a directory")


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
        _check_out(out_dir)
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
