"""Fixed-point formulation and the self-regulated averaging solver.

One application of the map rolls the within-day loop forward: load the
candidate pattern once, generate the instantaneous and forecast information
of every interval from it, then roll each class out on its own information:
interval by interval it makes tentative choices from its own remaining demand
and realizes only the current column. A pattern is at equilibrium when the
map reproduces it.

The solver averages each iterate toward the map image with a self-regulated
step: the inverse step size grows fast when the residual gap grows and slowly
when it shrinks. Class matrices are updated with the shared step, so exact
per-class demand conservation is preserved by convexity. The result holds the
pattern the last map was applied to, with that map's information: its
loading, whose ``instant_path_time`` is the instantaneous product, and its
forecasts as one (provision interval, path, departure interval) array.
Non-convergence is a reported outcome carrying the full trace, never an
exception.
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

    def __post_init__(self) -> None:
        if not np.isfinite((self.tolerance, self.gain_up, self.gain_down)).all():
            raise SolverError("solver parameters must be finite")  # NaN passes every check below
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
    loading: dnl.LoadingResult  # of the candidate; its instant_path_time is the instant product
    forecasts: np.ndarray | None = None  # T x paths x T, ``info.forecasts``; None for "dsue"


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
    forecasts: np.ndarray | None  # of the last map; None for "dsue"

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
) -> MapResult:
    """Roll the closed loop forward once from a candidate class pair.

    Information first: the instantaneous times of every interval come from
    the candidate loading, and the forecast made at t loads the candidate
    history spliced with the pooled remaining demand's reaction to them
    (``info.forecasts``, one batch for all T). The logit shares of each
    information product are computed once for all intervals: one table from
    the instantaneous times, which the pooled prediction and the
    instantaneous class share, and one from the forecast times. Each class
    then rolls out on its own table (``choice.rollout``), realizing one
    column per interval from its own remaining demand. The pooled remaining
    demand behind each forecast comes from the candidate total pattern; the
    per-class remaining demands evolve from the rollout's own realized
    columns. The two coincide at any fixed point.
    """
    h_total = np.asarray(h_instant, dtype=float) + np.asarray(h_forecast, dtype=float)
    d_instant, d_forecast = net.class_demands()

    base = dnl.load(net, path_set, grid, h_total)
    instant = base.instant_path_time.T[:, :, None]  # the time at t, for every departure
    instant_shares = choice.share_table(instant, 0, grid, path_set, params)
    forecasts = info.forecasts(net, path_set, grid, h_total, instant_shares, base)
    forecast_shares = choice.share_table(forecasts, 0, grid, path_set, params)
    y_instant = choice.rollout(instant_shares, d_instant, path_set)
    y_forecast = choice.rollout(forecast_shares, d_forecast, path_set)
    return MapResult((y_instant, y_forecast), base, forecasts)


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
    path_set: PathSet, grid: TimeGrid, params: ChoiceParams, demands: tuple[np.ndarray, ...]
) -> list[np.ndarray]:
    """Each class's logit response to free-flow path times."""
    phi = path_set.free_flow_s
    return [choice.tentative_departures(phi, d, 0, grid, path_set, params) for d in demands]


def _run_sram(
    model: str,
    apply_map,
    parts: list[np.ndarray],
    config: SolverConfig,
) -> EquilibriumResult:
    """Generic self-regulated averaging loop over a list of class matrices.

    The loop stops before averaging, so the returned pattern is exactly the
    one the last map was applied to, and the result carries that map's
    loading and information.
    """
    residuals: list[float] = []
    betas: list[float] = []
    alphas: list[float] = []

    beta = 1.0
    prev_gap: float | None = None
    converged = False
    for k in range(1, config.max_iterations + 1):
        last = apply_map(parts)
        h_total = sum(parts)
        y_total = sum(last.y_parts)
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
        parts = [h + alpha * (y - h) for h, y in zip(parts, last.y_parts)]
        prev_gap = gap

    two = len(parts) == 2
    return EquilibriumResult(
        model=model,
        h_instant=parts[0] if two else None,
        h_forecast=parts[1] if two else None,
        h_total=parts[0] + parts[1] if two else parts[0],
        residuals=np.array(residuals),
        betas=np.array(betas),
        alphas=np.array(alphas),
        n_iterations=len(residuals),
        converged=converged,
        loading=last.loading,
        forecasts=last.forecasts,
    )


def solve_sram(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    h0: tuple[np.ndarray, np.ndarray] | None = None,
) -> EquilibriumResult:
    """Solve the two-class equilibrium by self-regulated averaging."""
    d_instant, d_forecast = net.class_demands()
    if h0 is None:
        parts = _initial_parts(path_set, grid, params, (d_instant, d_forecast))
    else:
        parts = [np.array(h0[0], dtype=float), np.array(h0[1], dtype=float)]
        dnl.check_feasible(parts[0], path_set, d_instant)
        dnl.check_feasible(parts[1], path_set, d_forecast)

    def apply_map(current: list[np.ndarray]) -> MapResult:
        return fixed_point_map(current[0], current[1], net, path_set, grid, params)

    return _run_sram("dsue-dhi", apply_map, parts, config)


def solve_dsue(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
) -> EquilibriumResult:
    """Single-class baseline: one logit over realized travel times.

    All demand is pooled into one class whose disutility uses the realized
    path travel times of the candidate loading; the same averaging scheme
    finds the fixed point.
    """
    totals = np.array([od.demand_total for od in net.od_pairs])
    parts = _initial_parts(path_set, grid, params, (totals,))

    def apply_map(current: list[np.ndarray]) -> MapResult:
        loading = dnl.load(net, path_set, grid, current[0], compute_link_times=False)
        y = choice.tentative_departures(
            loading.path_time, totals, 0, grid, path_set, params
        )
        return MapResult((y,), loading)

    return _run_sram("dsue", apply_map, parts, config)


@dataclass
class MultistartResult:
    """Relative distances of seeded random starts to the default-start solution."""

    distances: np.ndarray  # converged runs only
    n_converged: int
    n_failed: int


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
    ref = solve_sram(net, path_set, grid, params, config).h_total
    ref_norm2 = float(np.sum(ref * ref))
    demands = net.class_demands()

    distances = []
    n_failed = 0
    for child in np.random.SeedSequence(seed).spawn(n_starts):
        rng = np.random.Generator(np.random.PCG64(child))
        h0 = random_feasible_parts(rng, path_set, grid, demands)
        result = solve_sram(net, path_set, grid, params, config, h0=h0)
        if not result.converged:
            n_failed += 1
            continue
        diff = result.h_total - ref
        distances.append(float(np.sum(diff * diff)) / ref_norm2)
    return MultistartResult(
        distances=np.array(distances),
        n_converged=len(distances),
        n_failed=n_failed,
    )
