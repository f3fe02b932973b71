"""Information generation: instantaneous travel times and strategic forecasts.

At each provision interval two products are built from a candidate departure
pattern. The instantaneous product is the per-path sum of current link travel
times, read directly off the candidate loading. The strategic forecast
predicts what travel times will be if every traveler still to depart reacts to
the instantaneous product: the pooled remaining demand is logit-assigned under
the instantaneous times (by the share table the instantaneous class also
uses), the predicted columns are spliced onto the realized history, and the
spliced pattern is loaded again; the forecast travel times are the
realized-style path times of that hypothetical world.

Generating the full information set for one candidate therefore loads one
pattern for the instantaneous product plus one per provision interval. The
forecast spliced at t has the candidate's departures before t, so its loading
repeats the candidate loading up to there: the forecast patterns are loaded
together in one batched pass (``dnl.load_batch``) in which each starts from
the candidate loading's state at its own interval and is timed from there
on. ``dnl.load_call_count`` counts every loaded pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import choice, dnl
from .network import Network, PathSet, TimeGrid


@dataclass(frozen=True)
class InstantInfo:
    """Current travel time per path, provided at one interval."""

    t_index: int
    phi_s: np.ndarray  # (paths,)


@dataclass(frozen=True)
class ForecastInfo:
    """Forecast travel time per path and remaining departure interval."""

    t_index: int
    phi_s: np.ndarray  # (paths, remaining intervals)


def instant_info(loading: dnl.LoadingResult, t_index: int) -> InstantInfo:
    return InstantInfo(t_index, dnl.instantaneous_path_times(loading, t_index))


def pooled_remaining_demand(
    h_total: np.ndarray, t_index: int, net: Network, path_set: PathSet
) -> np.ndarray:
    """Travelers of both classes not yet departed under the candidate pattern."""
    totals = np.array([od.demand_total for od in net.od_pairs])
    return choice.remaining_demand(h_total[:, :t_index], totals, path_set)


def splice(h_history: np.ndarray, h_predicted: np.ndarray, t_index: int) -> np.ndarray:
    """Columns before ``t_index`` from the history, the rest from the prediction."""
    h_history = np.asarray(h_history, dtype=float)
    h_predicted = np.asarray(h_predicted, dtype=float)
    expected = (h_history.shape[0], h_history.shape[1] - t_index)
    if h_predicted.shape != expected:
        raise ValueError(
            f"predicted departures shape {h_predicted.shape} != {expected}"
        )
    out = h_history.copy()
    out[:, t_index:] = h_predicted
    return out


def forecast_batch(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    spliced: np.ndarray,
    t_indices,
    base: dnl.LoadingResult,
) -> list[ForecastInfo]:
    """Load spliced patterns ``spliced[B, P, T]`` in one batch.

    Pattern b was spliced at ``t_indices[b]`` onto the departures that
    ``base`` loaded, and starts from the base's state there; its forecast
    holds the path travel times from that interval on.
    """
    loadings = dnl.load_batch(net, path_set, grid, spliced, base=base, starts=t_indices)
    return [ForecastInfo(t, loading.path_time[:, t:].copy())
            for t, loading in zip(t_indices, loadings, strict=True)]
