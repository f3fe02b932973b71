"""The timed loop, the per-operation checks and the metrics of one run.

Imported by ``run.py`` once the checkout's ``src/`` is on the import path.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from dsuedhi import choice, cli, dnl, equilibrium, metrics
from dsuedhi.scenario import load_scenario

import workloads
from tracing import Trace, Tracer, op_metrics, setup_metrics, spans_json

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

MIN_OPS = 3  # per timing series; a median needs at least three samples
SETUP_MIN_REPS = 9
SETUP_BATCH_S = 0.05  # set-up timing after each operation
REL_TOL = 1e-9
SPREAD_SHARE = 0.01  # an interval counts toward the spread at >= 1 % of departures
REPEATING_COUNTS = ("dnl.load.calls", "dnl.sim_steps", "info.forecast_info.calls",
                    "choice.tentative_departures.calls", "equilibrium.maps")


class CheckFailed(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _flatten(value, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a JSON document, keyed by dotted path."""
    if isinstance(value, dict):
        out: dict[str, float] = {}
        for k, v in value.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(value, (bool, str)) or value is None:
        return {}
    return {prefix[:-1]: float(value)}


class Workload:
    """One generated scenario plus the operation timed on it."""

    def __init__(self, name: str, seed: int, work: Path):
        self.seed = seed
        self.design = workloads.GENERATORS[name](seed, work / "scenario")
        self.sc = load_scenario(self.design.scenario)
        self.built = self.sc.build()
        self.out_dir = work / "out"

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        load_scenario(self.design.scenario).build()
        return time.perf_counter() - t0

    def guards(self) -> list[str]:
        """Reasons this workload is trivial or not as designed; empty if sound."""
        net, ps, grid, params = self.built
        rng = np.random.default_rng(np.random.SeedSequence([self.seed % 2**63, 99]))
        images, refines = [], []
        for _ in range(2):
            h_i, h_f = equilibrium.random_feasible_parts(rng, ps, grid, net.class_demands())
            if self.design.kind == "solve":
                mr = equilibrium.fixed_point_map(h_i, h_f, net, ps, grid, params)
                images.append(sum(mr.y_parts))
                loading = mr.loading
            else:
                # the single-class map: one cold load, one logit over realized times
                totals = np.array([od.demand_total for od in net.od_pairs])
                loading = dnl.load(net, ps, grid, h_i + h_f, compute_link_times=False)
                images.append(choice.tentative_departures(
                    loading.path_time, totals, 0, grid, ps, params))
            refines.append(int(round(grid.dt_s / loading.sim_dt_s)))
        problems = []
        gap = float(np.linalg.norm(images[0] - images[1]) / np.linalg.norm(images[0]))
        if not gap > 1e-6:
            problems.append(f"map images of two random inputs differ by only {gap:.3g}")
        if any(r != self.design.refine for r in refines):
            problems.append(f"refine factor {refines} != designed {self.design.refine}")
        return problems

    def clear_outputs(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        """The timed operation."""
        if self.design.kind == "solve":
            return cli.main(["solve", "--scenario", str(self.design.scenario),
                             "--out", str(self.out_dir)])
        net, ps, grid, params = self.built
        results = []
        for theta in self.design.thetas:
            p = dataclasses.replace(params, theta=theta)
            r = equilibrium.solve_dsue(net, ps, grid, p, self.sc.solver)
            ttt = metrics.total_travel_time(r, grid, self.sc.trim_fraction)
            dis = metrics.experienced_disutility(r, net, ps, grid, p, self.sc.trim_fraction)
            results.append((theta, r, ttt, dis))
        return results

    def check(self, raw) -> dict[str, float]:
        """Verify one operation's outputs; return the numbers to compare."""
        if self.design.kind == "solve":
            return self._check_solve(raw)
        return self._check_sweep(raw)

    def _check_loading(self, loading, what: str) -> None:
        grid = self.built[2]
        if not loading.drained:
            raise CheckFailed(f"{what}: loading did not drain")
        if loading.extrapolated.any():
            raise CheckFailed(f"{what}: {int(loading.extrapolated.sum())} extrapolated cells")
        refine = int(round(grid.dt_s / loading.sim_dt_s))
        if refine != self.design.refine:
            raise CheckFailed(f"{what}: refine factor {refine} != {self.design.refine}")

    def _check_spread(self, per_interval: np.ndarray, what: str) -> None:
        spread = int((per_interval >= SPREAD_SHARE * per_interval.sum()).sum())
        if spread < self.design.min_spread:
            raise CheckFailed(f"{what}: departures spread over {spread} intervals, "
                              f"designed for >= {self.design.min_spread}")

    def _check_demand(self, od, got: float, want: float, what: str) -> None:
        if not _close(got, want):
            raise CheckFailed(f"{what} OD {od.origin}-{od.destination}: "
                              f"departures {got!r} != demand {want!r}")

    def _check_solve(self, rc: int) -> dict[str, float]:
        if rc != 0:
            raise CheckFailed(f"solve exited with code {rc}")
        with open(self.out_dir / "metrics.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["converged"] is not True:
            raise CheckFailed("metrics.json: not converged")
        if not summary["final_residual"] <= self.sc.solver.tolerance:
            raise CheckFailed(f"final residual {summary['final_residual']} above tolerance")

        net, ps, grid, _ = self.built
        table = cli.read_equilibrium_csv(self.out_dir / "equilibrium.csv")
        h = np.zeros((2, ps.n_paths, grid.n_intervals))
        for p, pth in enumerate(ps.paths):
            od = net.od_pairs[pth.od_index]
            for t in range(grid.n_intervals):
                h[:, p, t] = table[(f"{od.origin}-{od.destination}", pth.path_id, t)]
        for od_index, od in enumerate(net.od_pairs):
            want = self.design.demand[(od.origin, od.destination)]
            for cls in range(2):
                got = float(h[cls, ps.od_slices[od_index]].sum())
                self._check_demand(od, got, want[cls], f"class {cls}")
        total = h.sum(axis=0)
        self._check_spread(total.sum(axis=0), "equilibrium")
        # the written equilibrium, loaded again from the artifact
        self._check_loading(dnl.load(net, ps, grid, total), "equilibrium")
        return _flatten(summary)

    def _check_sweep(self, results) -> dict[str, float]:
        net, ps, _, _ = self.built
        numbers: dict[str, float] = {}
        for theta, r, ttt, dis in results:
            what = f"theta={theta:g}"
            if not r.converged:
                raise CheckFailed(f"{what}: not converged after {r.n_iterations} iterations")
            if not r.final_residual <= self.sc.solver.tolerance:
                raise CheckFailed(f"{what}: final residual {r.final_residual} above tolerance")
            for od_index, od in enumerate(net.od_pairs):
                got = float(r.h_total[ps.od_slices[od_index]].sum())
                self._check_demand(od, got, sum(self.design.demand[(od.origin, od.destination)]),
                                   what)
            self._check_spread(r.h_total.sum(axis=0), what)
            self._check_loading(r.loading, what)
            numbers.update({
                f"{what}.iterations": r.n_iterations,
                f"{what}.final_residual": r.final_residual,
                f"{what}.total_travel_time_veh_s": ttt,
                f"{what}.avg_disutility": dis.overall_average["all"],
            })
        numbers["iterations"] = float(sum(r.n_iterations for _, r, _, _ in results))
        return numbers

    def artifact_bytes(self) -> int:
        if not self.out_dir.exists():
            return 0
        return sum(f.stat().st_size for f in self.out_dir.iterdir() if f.is_file())


def _compare(numbers: dict[str, float], reference: dict[str, float]) -> None:
    if set(numbers) != set(reference):
        raise CheckFailed(f"output keys {sorted(numbers)} != reference {sorted(reference)}")
    for key, want in reference.items():
        if not _close(numbers[key], want):
            raise CheckFailed(f"{key} = {numbers[key]!r}, reference {want!r}")


def _load_references() -> dict:
    if REFERENCE_FILE.exists():
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def _median(values: list[float]) -> float:
    # 0.0 stands for "no sample"; it only occurs in a run that is not correct
    return statistics.median(values) if values else 0.0


def _unit(key: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), (".s", "s"),
                         ("_frac", "frac"), ("_bytes", "bytes")):
        if key.endswith(suffix):
            return unit
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool, record: bool,
        work: Path, spans_dir: Path) -> dict:
    """Measure one workload; return the result object the command prints."""
    wl = Workload(name, seed, work)
    tracer = Tracer() if trace else None

    setup_times: list[float] = []
    setup_layers: list[dict] = []

    def setup_batch(min_reps: int) -> None:
        """Time set-up repeatedly; batches between operations spread it over the run."""
        t_end = time.perf_counter() + SETUP_BATCH_S
        reps = 0
        while reps < min_reps or time.perf_counter() < t_end:
            if tracer is None:
                setup_times.append(wl.setup_once())
            else:
                with tracer:
                    setup_times.append(wl.setup_once())
                setup_layers.append(setup_metrics(tracer.take()))
            reps += 1

    setup_batch(SETUP_MIN_REPS)
    problems = wl.guards()
    for p in problems:
        print(f"guard failed: {p}", file=sys.stderr)

    references = _load_references()
    reference = references.get(name, {}).get(str(seed))

    durations: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict[str, float]] = []
    traced_spans: list[list[dict]] = []
    iterations: list[float] = []
    artifact_bytes = 0
    attempted = failed = 0
    min_ops = MIN_OPS * (2 if tracer is not None else 1)
    t_start = time.perf_counter()
    # start another operation only if it should end inside the window
    while (attempted < min_ops
           or time.perf_counter() - t_start + _median(durations) <= seconds):
        use_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        wl.clear_outputs()
        try:
            if use_trace:
                tracer.take()  # drop what a failed operation left behind
                with tracer:
                    t0 = time.perf_counter()
                    raw = wl.op()
                    elapsed = time.perf_counter() - t0
                trace_of_op = tracer.take()
            else:
                t0 = time.perf_counter()
                raw = wl.op()
                elapsed = time.perf_counter() - t0
            durations.append(elapsed)
            numbers = wl.check(raw)
            if reference is None:
                reference = numbers
            _compare(numbers, reference)
        except CheckFailed as exc:
            failed += 1
            print(f"op {attempted}: check failed: {exc}", file=sys.stderr)
            continue
        except Exception:  # an operation that raises is a failed operation
            failed += 1
            print(f"op {attempted}: raised\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            setup_batch(1)
        (traced if use_trace else untraced).append(elapsed)
        iterations.append(numbers["iterations"])
        artifact_bytes = wl.artifact_bytes()
        if use_trace:
            layer_rows.append(op_metrics(trace_of_op, elapsed))
            traced_spans.append(spans_json(trace_of_op))
        print(f"op {attempted}: {elapsed:.4f} s{' traced' if use_trace else ''}",
              file=sys.stderr)

    if record and reference is not None:
        references.setdefault(name, {})[str(seed)] = reference
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if len(set(iterations)) > 1:
        problems.append(f"iteration counts differ between operations: {sorted(set(iterations))}")
    if tracer is not None:
        for key in REPEATING_COUNTS:
            if len({row[key] for row in layer_rows}) > 1:
                problems.append(f"{key} differs between traced operations")
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump(traced_spans, fh)
    correct = not problems and failed == 0

    values: dict[str, float]
    if tracer is None:
        values = {
            "solve_s": _median(untraced),
            "setup_s": _median(setup_times),
            "iterations": iterations[0] if iterations else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"solve_s": "s", "setup_s": "s", "iterations": "count",
                 "peak_rss_mb": "MB", "ok_frac": "frac"}
    else:
        net, ps, _, _ = wl.built
        values = {key: _median([row[key] for row in setup_layers]) for key in setup_layers[0]}
        rows = layer_rows or [op_metrics(Trace(), 1.0)]  # all zero when no traced op passed
        for key in rows[0]:
            values[key] = _median([row[key] for row in rows])
        values["network.links"] = net.n_links
        values["network.paths"] = ps.n_paths
        values["cli.artifact_bytes"] = artifact_bytes
        base = _median(untraced)
        values["trace_overhead_frac"] = (_median(traced) - base) / base if base else 0.0
        units = {key: _unit(key) for key in values}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
    }
