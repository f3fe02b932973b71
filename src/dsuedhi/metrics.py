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

from .choice import ChoiceParams, cell_disutility
from .equilibrium import CLASS_NAMES, EquilibriumResult
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
    """Elementwise and aggregate information-accuracy measures.

    The class-stacked arrays are (2, P, T), instantaneous class first.
    """

    itt: np.ndarray
    rtt: np.ndarray  # paths x T
    rel_diff: np.ndarray  # NaN where at most 1e-6 vehicles of the class depart
    departures: np.ndarray
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
    itt = np.stack([result.loading.instant_path_time,
                    np.diagonal(result.forecasts, axis1=0, axis2=2)])  # made at t for departure t
    rtt = result.loading.path_time
    window = trim_window(grid, trim_fraction)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_diff = np.where((result.h > 1e-6) & (rtt > 0), (itt - rtt) / rtt, np.nan)
    norm_i, norm_f = (float(np.linalg.norm(gap)) for gap in np.where(window, itt - rtt, 0.0))
    norm_rtt = float(np.linalg.norm(np.where(window, rtt, 0.0)))
    return AccuracyReport(itt, rtt, rel_diff, result.h, norm_i, norm_f, norm_rtt)


@dataclass
class DisutilityReport:
    """Experienced systematic disutility, weighted by realized departures."""

    per_od_total: dict[str, np.ndarray]  # class name -> (n_ods,)
    overall_average: dict[str, float]  # class name -> average, NaN if class empty


def experienced_disutility(
    result: EquilibriumResult,
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    params: ChoiceParams,
    trim_fraction: float = 0.2,
) -> DisutilityReport:
    """Disutility evaluated at realized travel times of the actual departures."""
    v = cell_disutility(result.loading.path_time, grid, path_set, params)
    window = trim_window(grid, trim_fraction)
    v_win = np.where(window[None, :], v, 0.0)

    per_od_tot: dict[str, np.ndarray] = {}
    overall: dict[str, float] = {}
    classes = dict(zip(CLASS_NAMES[result.model], result.h)) | {"all": result.h_total}
    for name, weights in classes.items():
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
