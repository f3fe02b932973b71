"""Evaluation of a converged equilibrium: information accuracy, experienced
disutility, and total travel time, with warm-up/cool-down trimming.

Informed travel time (ITT) for the instantaneous class at (path, t) is the
current-time product provided at t; for the forecast class it is the forecast
made at t for departure at t. Realized travel time (RTT) comes from loading
the equilibrium pattern itself. Accuracy norms are plain Euclidean norms over
all (path, interval) cells inside the trim window, unweighted by departures;
elementwise relative differences are only reported where the class actually
departs more than 1e-6 vehicles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choice import ChoiceParams, systematic_disutility
from .equilibrium import EquilibriumResult
from .network import Network, PathSet, TimeGrid


class MetricsError(ValueError):
    """Raised on undefined metric requests (zero denominators, missing data)."""


def trim_window(grid: TimeGrid, trim_fraction: float) -> np.ndarray:
    """Boolean mask over departure intervals keeping the mid-horizon part."""
    if not 0 <= trim_fraction < 0.5:
        raise MetricsError("trim fraction must lie in [0, 0.5)")
    T = grid.n_intervals
    cut = int(np.floor(trim_fraction * T))
    mask = np.zeros(T, dtype=bool)
    mask[cut : T - cut] = True
    return mask


@dataclass
class AccuracyReport:
    """Elementwise and aggregate information-accuracy measures."""

    itt_instant: np.ndarray  # paths x T
    itt_forecast: np.ndarray  # paths x T
    rtt: np.ndarray  # paths x T
    rel_diff_instant: np.ndarray  # paths x T, NaN where at most 1e-6 vehicles depart
    rel_diff_forecast: np.ndarray
    departures_instant: np.ndarray
    departures_forecast: np.ndarray
    norm_instant: float  # ||ITT_I - RTT|| over the window
    norm_forecast: float
    norm_rtt: float


def information_accuracy(
    result: EquilibriumResult,
    grid: TimeGrid,
    trim_fraction: float = 0.2,
) -> AccuracyReport:
    """Compare the information provided at each interval with realized times."""
    if result.model != "dsue-dhi":
        raise MetricsError("information accuracy requires stored per-interval information")
    itt_i = result.loading.instant_path_time
    itt_f = np.diagonal(result.forecasts, axis1=0, axis2=2)  # made at t for departure t
    rtt = result.loading.path_time
    window = trim_window(grid, trim_fraction)

    dep_i = result.h_instant
    dep_f = result.h_forecast
    with np.errstate(invalid="ignore", divide="ignore"):
        rd_i = np.where((dep_i > 1e-6) & (rtt > 0), (itt_i - rtt) / rtt, np.nan)
        rd_f = np.where((dep_f > 1e-6) & (rtt > 0), (itt_f - rtt) / rtt, np.nan)

    win = window[None, :]
    norm_i = float(np.linalg.norm(np.where(win, itt_i - rtt, 0.0)))
    norm_f = float(np.linalg.norm(np.where(win, itt_f - rtt, 0.0)))
    norm_rtt = float(np.linalg.norm(np.where(win, rtt, 0.0)))
    return AccuracyReport(
        itt_instant=itt_i,
        itt_forecast=itt_f,
        rtt=rtt,
        rel_diff_instant=rd_i,
        rel_diff_forecast=rd_f,
        departures_instant=dep_i,
        departures_forecast=dep_f,
        norm_instant=norm_i,
        norm_forecast=norm_f,
        norm_rtt=norm_rtt,
    )


@dataclass
class DisutilityReport:
    """Experienced systematic disutility, weighted by realized departures."""

    per_od_total: dict[str, np.ndarray]  # class name -> (n_ods,)
    overall_average: dict[str, float]  # class name -> average, NaN if class empty


def _class_matrices(result: EquilibriumResult) -> dict[str, np.ndarray]:
    if result.model == "dsue":
        return {"all": result.h_total}
    return {
        "instant": result.h_instant,
        "forecast": result.h_forecast,
        "all": result.h_total,
    }


def experienced_disutility(
    result: EquilibriumResult,
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    trim_fraction: float = 0.2,
) -> DisutilityReport:
    """Disutility evaluated at realized travel times of the actual departures."""
    rtt = result.loading.path_time
    T = grid.n_intervals
    u = params.time_unit_s
    dep_times = grid.interval_mids()
    ta = np.array([params.target_arrival_s[od] for od in path_set.od_of_path])
    v = systematic_disutility(
        rtt / u, dep_times[None, :] / u, ta[:, None] / u, params.mu_early, params.mu_late
    )
    window = trim_window(grid, trim_fraction)
    v_win = np.where(window[None, :], v, 0.0)

    per_od_tot: dict[str, np.ndarray] = {}
    overall: dict[str, float] = {}
    for name, weights in _class_matrices(result).items():
        w_win = np.where(window[None, :], weights, 0.0)
        tot = np.zeros(net.n_ods)
        mass = np.zeros(net.n_ods)
        np.add.at(tot, path_set.od_of_path, (w_win * v_win).sum(axis=1))
        np.add.at(mass, path_set.od_of_path, w_win.sum(axis=1))
        per_od_tot[name] = tot
        total_mass = mass.sum()
        overall[name] = float(tot.sum() / total_mass) if total_mass > 0 else float("nan")
    return DisutilityReport(per_od_tot, overall)


def total_travel_time(
    result: EquilibriumResult, grid: TimeGrid, trim_fraction: float = 0.2
) -> float:
    """Departure-weighted realized travel time (vehicle-seconds) in the window."""
    window = trim_window(grid, trim_fraction)
    rtt = result.loading.path_time
    return float(np.sum(np.where(window[None, :], result.h_total * rtt, 0.0)))
