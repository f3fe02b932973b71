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
forecast batch, whose path times are one (provision interval, path,
departure interval) array.
Non-convergence is a reported outcome carrying the full trace, never an
exception.

Departures are one array ``h`` of shape (C, P, T): class, path, departure
interval. The ``dsue-dhi`` model has C = 2 classes in the order of
``CLASS_NAMES["dsue-dhi"]``, instantaneous then forecast, and class demands
of shape (2, ODs) from ``Network.class_demands``; the single-class ``dsue``
model has C = 1, all demand pooled. The candidate total that is loaded is
``h.sum(axis=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import choice, dnl, info
from .choice import ChoiceParams
from .network import Network, PathSet, TimeGrid

CLASS_NAMES = {"dsue-dhi": ("instant", "forecast"), "dsue": ("all",)}  # the rows of ``h``


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
    """Image of one map application plus the information it generated.

    ``y_parts`` is the image of the candidate ``h``, in its layout: (C, P, T),
    class, path, departure interval, classes in ``CLASS_NAMES`` order.
    """

    y_parts: np.ndarray
    loading: dnl.LoadingResult  # of the candidate; its instant_path_time is the instant product
    forecast_batch: dnl.BatchResult | None = None  # ``info.forecasts``; None for "dsue"


@dataclass
class EquilibriumResult:
    """Converged (or best-effort) departures with the full solver trace.

    ``h`` is (C, P, T), class, path, departure interval, classes in
    ``CLASS_NAMES[model]`` order: instant then forecast for ``dsue-dhi``, the
    one pooled class for ``dsue``. ``h_total`` is ``h.sum(axis=0)``.
    """

    model: str  # "dsue-dhi" or "dsue"
    h: np.ndarray
    h_total: np.ndarray
    residuals: np.ndarray
    betas: np.ndarray
    alphas: np.ndarray
    n_iterations: int
    converged: bool
    loading: dnl.LoadingResult
    forecast_batch: dnl.BatchResult | None  # of the last map; None for "dsue"

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

    ``h_instant`` and ``h_forecast`` are the rows of a (2, P, T) candidate
    ``h``; the image ``y_parts`` has the same layout.

    Information first: the instantaneous times of every interval come from
    the candidate loading, and the forecast made at t loads the candidate
    history spliced with the pooled remaining demand's reaction to them
    (``info.forecasts``, one batch for all T). The logit shares of each
    information product are computed once for all intervals: one table from
    the instantaneous times, which the pooled prediction and the
    instantaneous class share, and one from the forecast times. Each class
    then rolls out on its own table (``choice.rollout``, in closed form),
    realizing one column per interval from its own remaining demand and
    leaving the rest of that interval's assignment unrealized. The pooled
    remaining demand behind each forecast comes from the candidate total
    pattern; the per-class remaining demands evolve from the rollout's own
    realized columns. The two coincide at any fixed point.
    """
    h_total = np.asarray(h_instant, dtype=float) + np.asarray(h_forecast, dtype=float)
    base = dnl.load(net, path_set, grid, h_total)
    instant = base.instant_path_time.T[:, :, None]  # the time at t, for every departure
    instant_shares = choice.share_table(instant, 0, grid, path_set, params)
    forecast_batch = info.forecasts(net, path_set, grid, h_total, instant_shares, base)
    forecast_shares = choice.share_table(forecast_batch.path_time, 0, grid, path_set, params)
    y = np.stack([choice.rollout(table, d)
                  for table, d in zip((instant_shares, forecast_shares), net.class_demands())])
    return MapResult(y, base, forecast_batch)


def _relative_gap(gap: float, hn: float) -> float:
    """Squared relative gap of a gap norm ``gap`` and a pattern norm ``hn``."""
    if hn == 0.0:
        return 0.0 if gap == 0.0 else np.inf
    return (gap / hn) ** 2


def _free_flow_start(
    path_set: PathSet, grid: TimeGrid, params: ChoiceParams, demands: np.ndarray
) -> np.ndarray:
    """Each class's logit response to free-flow path times, (C, P, T) for (C, ODs) demands.

    One share table of the free-flow times serves every class.
    """
    table = choice.share_table(path_set.free_flow_s[None, :, None], 0, grid, path_set, params)
    return np.stack([choice.assign(table, d[None])[0] for d in demands])


def _run_sram(model: str, apply_map, h: np.ndarray, config: SolverConfig) -> EquilibriumResult:
    """Self-regulated averaging of the (C, P, T) departures ``h``.

    Every class moves toward its image with the shared step, and the step
    rule reads the gap of the class totals. The loop stops before averaging,
    so the returned pattern is exactly the one the last map was applied to,
    and the result carries that map's loading and information.
    """
    residuals: list[float] = []
    betas: list[float] = []
    alphas: list[float] = []

    beta = 1.0
    prev_gap: float | None = None
    converged = False
    for k in range(1, config.max_iterations + 1):
        last = apply_map(h)
        h_total = h.sum(axis=0)
        y_total = last.y_parts.sum(axis=0)
        gap = float(np.linalg.norm(h_total - y_total))
        res = _relative_gap(gap, float(np.linalg.norm(h_total)))

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
        h = h + alpha * (last.y_parts - h)
        prev_gap = gap

    return EquilibriumResult(
        model=model,
        h=h,
        h_total=h_total,
        residuals=np.array(residuals),
        betas=np.array(betas),
        alphas=np.array(alphas),
        n_iterations=len(residuals),
        converged=converged,
        loading=last.loading,
        forecast_batch=last.forecast_batch,
    )


def solve_sram(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    h0: np.ndarray | None = None,
) -> EquilibriumResult:
    """Solve the two-class equilibrium by self-regulated averaging.

    ``h0`` is the start, (2, P, T) with the classes in ``CLASS_NAMES`` order;
    by default each class's response to free-flow times.
    """
    demands = net.class_demands()
    if h0 is None:
        h = _free_flow_start(path_set, grid, params, demands)
    else:
        shape = (len(demands), path_set.n_paths, grid.n_intervals)
        try:
            h = np.array(h0, dtype=float)
            got = f"shape {h.shape}"
        except ValueError:  # classes of different shapes
            h, got = None, "ragged shape"
        if h is None or h.shape != shape:
            raise SolverError(f"start of {got}, expected (classes, paths, intervals) {shape}")
        for h_c, d in zip(h, demands):
            dnl.check_feasible(h_c, path_set, d)
    return _run_sram("dsue-dhi", lambda h: fixed_point_map(*h, net, path_set, grid, params), h,
                     config)


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
    totals = net.class_demands().sum(axis=0)

    def apply_map(h: np.ndarray) -> MapResult:
        loading = dnl.load(net, path_set, grid, h[0], compute_link_times=False)
        y = choice.tentative_departures(loading.path_time, totals, 0, grid, path_set, params)
        return MapResult(y[None], loading)

    return _run_sram("dsue", apply_map, _free_flow_start(path_set, grid, params, totals[None]),
                     config)


@dataclass
class MultistartResult:
    """Relative distances of seeded random starts to the default-start solution."""

    distances: np.ndarray  # converged runs only
    n_converged: int
    n_failed: int
    solves: list[EquilibriumResult]  # the default start's, then each seeded start's


def random_feasible_parts(
    rng: np.random.Generator,
    path_set: PathSet,
    grid: TimeGrid,
    demands: np.ndarray,
) -> np.ndarray:
    """Random positive (C, P, T) departures rescaled onto the (C, ODs) class demands."""
    h = rng.uniform(0.1, 1.0, size=(len(demands), path_set.n_paths, grid.n_intervals))
    for h_c, d in zip(h, demands):
        for od_index, sl in enumerate(path_set.od_slices):
            block = h_c[sl]
            total = block.sum()
            h_c[sl] = block * (d[od_index] / total) if total > 0 else 0.0
    return h


def multistart(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    config: SolverConfig,
    n_starts: int,
    seed: int,
) -> MultistartResult:
    """Solve from seeded random initial patterns and measure solution spread.

    Keeps every solve, so that the caller can check each one's final loading.
    """
    if n_starts < 2:
        raise SolverError("multistart needs at least two starts")
    solves = [solve_sram(net, path_set, grid, params, config)]
    ref = solves[0].h_total
    ref_norm2 = float(np.sum(ref * ref))
    demands = net.class_demands()

    distances = []
    n_failed = 0
    for child in np.random.SeedSequence(seed).spawn(n_starts):
        rng = np.random.Generator(np.random.PCG64(child))
        h0 = random_feasible_parts(rng, path_set, grid, demands)
        result = solve_sram(net, path_set, grid, params, config, h0=h0)
        solves.append(result)
        if not result.converged:
            n_failed += 1
            continue
        diff = result.h_total - ref
        distances.append(float(np.sum(diff * diff)) / ref_norm2)
    return MultistartResult(
        distances=np.array(distances),
        n_converged=len(distances),
        n_failed=n_failed,
        solves=solves,
    )
