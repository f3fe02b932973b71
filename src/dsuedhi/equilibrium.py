"""Fixed-point formulation and the self-regulated averaging solver.

One application of the map rolls the within-day loop forward: load the
candidate pattern once, generate the instantaneous and forecast information
of every interval from it, then interval by interval let each class make
tentative choices from its own remaining demand and realize only the current
column. A pattern is at equilibrium when the map reproduces it.

The solver averages each iterate toward the map image with a self-regulated
step: the inverse step size grows fast when the residual gap grows and slowly
when it shrinks. Class matrices are updated with the shared step, so exact
per-class demand conservation is preserved by convexity. Non-convergence is a
reported outcome carrying the full trace, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import choice, dnl, info
from .choice import ChoiceParams
from .network import Network, PathSet, TimeGrid


class SolverError(RuntimeError):
    """Raised on malformed solver input (not on non-convergence)."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping tolerance, step-size growth parameters, iteration budget."""

    tolerance: float = 1e-4
    gain_up: float = 1.1  # added to the inverse step when the gap grows
    gain_down: float = 0.2  # added when the gap shrinks
    max_iterations: int = 100
    init: str = "free-flow"  # or "uniform"

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise SolverError("tolerance must be positive")
        if self.gain_up <= 1:
            raise SolverError("gain_up must exceed 1")
        if not 0 < self.gain_down < 1:
            raise SolverError("gain_down must lie in (0, 1)")
        if self.max_iterations < 1:
            raise SolverError("at least one iteration required")


@dataclass
class MapResult:
    """Image of one map application plus the information it generated."""

    y_parts: tuple[np.ndarray, ...]
    loading: dnl.LoadingResult
    instant_trace: np.ndarray  # paths x T: current times at each provision interval
    forecast_diag: np.ndarray  # paths x T: forecast made at t for departure at t
    forecast_full: list[np.ndarray] | None = None


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) departures with the full solver trace."""

    model: str  # "dsue-dhi" or "dsue"
    h_instant: np.ndarray | None
    h_forecast: np.ndarray | None
    h_total: np.ndarray
    residuals: np.ndarray
    betas: np.ndarray
    alphas: np.ndarray
    n_iterations: int
    converged: bool
    loading: dnl.LoadingResult
    instant_trace: np.ndarray
    forecast_diag: np.ndarray
    iterates: list[tuple[np.ndarray, ...]] | None = None

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])


def fixed_point_map(
    h_instant: np.ndarray,
    h_forecast: np.ndarray,
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    collect_full: bool = False,
) -> MapResult:
    """Roll the closed loop forward once from a candidate class pair.

    Information first: the instantaneous times of every interval come from
    the candidate loading, and the forecast made at t loads the candidate
    history spliced with the pooled remaining demand's reaction to them. Both
    depend on the candidate alone, so all T forecasts are loaded in one
    batch, each starting from the candidate loading at its own interval. The
    logit shares of each information product are computed once for all
    intervals: one table from the instantaneous times, which the pooled
    prediction and the instantaneous class share, and one from the forecast
    times. The rollout then only assigns each class's remaining demand to its
    table and realizes one column per interval. The pooled remaining demand
    behind each forecast comes from the candidate total pattern; the
    per-class remaining demands evolve from the rollout's own realized
    columns. The two coincide at any fixed point.
    """
    h_instant = np.asarray(h_instant, dtype=float)
    h_forecast = np.asarray(h_forecast, dtype=float)
    h_total = h_instant + h_forecast
    T = grid.n_intervals
    P = path_set.n_paths
    d_instant, d_forecast = net.class_demands()

    base = dnl.load(net, path_set, grid, h_total)
    instants = [info.instant_info(base, t) for t in range(T)]
    instant_shares = choice.share_table([i.phi_s for i in instants], 0, grid, path_set,
                                        params)
    spliced = np.empty((T, P, T))
    for t in range(T):
        pooled = info.pooled_remaining_demand(h_total, t, net, path_set)
        predicted = choice.tentative_from_shares(instant_shares, t, pooled)
        spliced[t] = info.splice(h_total, predicted, t)
    forecasts = info.forecast_batch(net, path_set, grid, spliced, range(T), base)
    forecast_shares = choice.share_table([f.phi_s for f in forecasts], 0, grid, path_set,
                                         params)

    y_instant = np.zeros((P, T))
    y_forecast = np.zeros((P, T))
    instant_trace = np.zeros((P, T))
    forecast_diag = np.zeros((P, T))
    forecast_full: list[np.ndarray] | None = [] if collect_full else None

    rem_i = d_instant.astype(float).copy()
    rem_f = d_forecast.astype(float).copy()
    for t, (inst, fc) in enumerate(zip(instants, forecasts)):
        instant_trace[:, t] = inst.phi_s
        forecast_diag[:, t] = fc.phi_s[:, 0]
        if forecast_full is not None:
            forecast_full.append(fc.phi_s)

        tent_i = choice.tentative_from_shares(instant_shares, t, rem_i)
        tent_f = choice.tentative_from_shares(forecast_shares, t, rem_f)
        col_i = choice.realize_departures(tent_i)
        col_f = choice.realize_departures(tent_f)
        y_instant[:, t] = col_i
        y_forecast[:, t] = col_f
        np.subtract.at(rem_i, path_set.od_of_path, col_i)
        np.subtract.at(rem_f, path_set.od_of_path, col_f)
        for rem, d in ((rem_i, d_instant), (rem_f, d_forecast)):
            if np.any(rem < -1e-9 * np.maximum(1.0, d)):
                raise choice.ChoiceError(
                    f"interval {t}: realized departures overdraw class demand"
                )
        rem_i = np.maximum(rem_i, 0.0)
        rem_f = np.maximum(rem_f, 0.0)

    return MapResult((y_instant, y_forecast), base, instant_trace, forecast_diag, forecast_full)


def residual(h: np.ndarray, y: np.ndarray) -> float:
    """Squared relative gap between a pattern and its map image."""
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    hn = float(np.linalg.norm(h))
    gap = float(np.linalg.norm(h - y))
    if hn == 0.0:
        return 0.0 if gap == 0.0 else np.inf
    return (gap / hn) ** 2


def _initial_parts(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    demands: tuple[np.ndarray, ...],
    policy: str,
) -> list[np.ndarray]:
    T = grid.n_intervals
    if policy == "free-flow":
        phi_ff = path_set.free_flow_s
        return [
            choice.tentative_departures(phi_ff, d, 0, grid, path_set, params)
            for d in demands
        ]
    if policy == "uniform":
        parts = []
        for d in demands:
            h = np.zeros((path_set.n_paths, T))
            for od_index, sl in enumerate(path_set.od_slices):
                n = sl.stop - sl.start
                if n:
                    h[sl] = d[od_index] / (n * T)
            parts.append(h)
        return parts
    raise SolverError(f"unknown initialization policy {policy!r}")


def _run_sram(
    apply_map,
    parts: list[np.ndarray],
    config: SolverConfig,
    record_iterates: bool = False,
):
    """Generic self-regulated averaging loop over a tuple of class matrices."""
    residuals: list[float] = []
    betas: list[float] = []
    alphas: list[float] = []
    iterates: list[tuple[np.ndarray, ...]] | None = [] if record_iterates else None

    beta = 1.0
    prev_gap: float | None = None
    converged = False
    last_result = None
    for k in range(1, config.max_iterations + 1):
        if iterates is not None:
            iterates.append(tuple(p.copy() for p in parts))
        last_result = apply_map(parts)
        y_parts = last_result.y_parts
        h_total = sum(parts)
        y_total = sum(y_parts)
        gap = float(np.linalg.norm(h_total - y_total))
        res = residual(h_total, y_total)

        if k > 1:
            beta += config.gain_up if gap >= prev_gap else config.gain_down
        alpha = 1.0 / beta
        residuals.append(res)
        betas.append(beta)
        alphas.append(alpha)

        if res <= config.tolerance:
            converged = True
            break
        if k == config.max_iterations:
            break
        parts = [h + alpha * (y - h) for h, y in zip(parts, y_parts)]
        prev_gap = gap

    return parts, last_result, np.array(residuals), np.array(betas), np.array(alphas), converged, iterates


def solve_sram(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    h0: tuple[np.ndarray, np.ndarray] | None = None,
    record_iterates: bool = False,
) -> EquilibriumResult:
    """Solve the two-class equilibrium by self-regulated averaging."""
    d_instant, d_forecast = net.class_demands()
    if h0 is None:
        parts = _initial_parts(net, path_set, grid, params, (d_instant, d_forecast), config.init)
    else:
        parts = [np.array(h0[0], dtype=float), np.array(h0[1], dtype=float)]
        dnl.check_feasible(parts[0], path_set, d_instant)
        dnl.check_feasible(parts[1], path_set, d_forecast)

    def apply_map(current: list[np.ndarray]) -> MapResult:
        return fixed_point_map(current[0], current[1], net, path_set, grid, params)

    parts, last, residuals, betas, alphas, converged, iterates = _run_sram(
        apply_map, parts, config, record_iterates
    )
    return EquilibriumResult(
        model="dsue-dhi",
        h_instant=parts[0],
        h_forecast=parts[1],
        h_total=parts[0] + parts[1],
        residuals=residuals,
        betas=betas,
        alphas=alphas,
        n_iterations=len(residuals),
        converged=converged,
        loading=last.loading,
        instant_trace=last.instant_trace,
        forecast_diag=last.forecast_diag,
        iterates=iterates,
    )


def solve_dsue(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    record_iterates: bool = False,
) -> EquilibriumResult:
    """Single-class baseline: one logit over realized travel times.

    All demand is pooled into one class whose disutility uses the realized
    path travel times of the candidate loading; the same averaging scheme
    finds the fixed point.
    """
    totals = np.array([od.demand_total for od in net.od_pairs])
    parts = _initial_parts(net, path_set, grid, params, (totals,), config.init)
    T = grid.n_intervals
    P = path_set.n_paths

    def apply_map(current: list[np.ndarray]) -> MapResult:
        loading = dnl.load(net, path_set, grid, current[0], compute_link_times=False)
        y = choice.tentative_departures(
            loading.path_time, totals, 0, grid, path_set, params
        )
        return MapResult(
            (y,),
            loading,
            instant_trace=np.zeros((P, T)),
            forecast_diag=np.zeros((P, T)),
        )

    parts, last, residuals, betas, alphas, converged, iterates = _run_sram(
        apply_map, parts, config, record_iterates
    )
    return EquilibriumResult(
        model="dsue",
        h_instant=None,
        h_forecast=None,
        h_total=parts[0],
        residuals=residuals,
        betas=betas,
        alphas=alphas,
        n_iterations=len(residuals),
        converged=converged,
        loading=last.loading,
        instant_trace=last.instant_trace,
        forecast_diag=last.forecast_diag,
        iterates=iterates,
    )


@dataclass
class MultistartResult:
    """Relative distances of seeded random starts to the default-start solution."""

    baseline: EquilibriumResult
    distances: np.ndarray  # converged runs only
    n_converged: int
    n_failed: int
    seeds: tuple[int, ...]


def random_feasible_parts(
    rng: np.random.Generator,
    path_set: PathSet,
    grid: TimeGrid,
    demands: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Random positive matrices rescaled onto the per-OD class demands."""
    T = grid.n_intervals
    parts = []
    for d in demands:
        h = rng.uniform(0.1, 1.0, size=(path_set.n_paths, T))
        for od_index, sl in enumerate(path_set.od_slices):
            block = h[sl]
            total = block.sum()
            h[sl] = block * (d[od_index] / total) if total > 0 else 0.0
        parts.append(h)
    return parts[0], parts[1]


def multistart(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    n_starts: int,
    seed: int,
) -> MultistartResult:
    """Solve from seeded random initial patterns and measure solution spread."""
    if n_starts < 2:
        raise SolverError("multistart needs at least two starts")
    baseline = solve_sram(net, path_set, grid, params, config)
    ref = baseline.h_total
    ref_norm2 = float(np.sum(ref * ref))
    demands = net.class_demands()

    children = np.random.SeedSequence(seed).spawn(n_starts)
    distances = []
    n_failed = 0
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        h0 = random_feasible_parts(rng, path_set, grid, demands)
        result = solve_sram(net, path_set, grid, params, config, h0=h0)
        if not result.converged:
            n_failed += 1
            continue
        diff = result.h_total - ref
        distances.append(float(np.sum(diff * diff)) / ref_norm2)
    return MultistartResult(
        baseline=baseline,
        distances=np.array(distances),
        n_converged=len(distances),
        n_failed=n_failed,
        seeds=tuple(int(c.generate_state(1)[0]) for c in children),
    )
