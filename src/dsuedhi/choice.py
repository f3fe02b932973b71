"""Travel choice model: disutility, logit shares, tentative and realized departures.

Travelers facing a joint path-and-departure-time choice perceive a systematic
disutility equal to travel time plus a quadratic early/late arrival penalty,
and split according to a logit over every (path, departure interval) still
open for their OD pair. The random taste terms are handled in closed form by
the logit; nothing is ever sampled.

The quadratic penalty is evaluated in a configurable disutility time unit
(minutes by default); travel times, departure times, and target arrivals are
converted from seconds before entering the formula.

The logit has two parts. ``share_table`` computes the shares of every OD's
choice set at any number of provision intervals in one vectorised pass:
disutility, per-block max shift, ``exp``, normalisation and the first largest
share of each block. Assignment (``tentative_from_shares``, one interval at a
time) scales the shares by the remaining demand and folds the floating-point
residual of each total into the block's first largest share; only this part
depends on the demand. ``tentative_departures`` is the one-interval case and
``logit_probabilities`` the one-block case of the same kernel. Per block,
results are bit-identical to a logit over that block alone: elementwise steps
and maxima are exact in any layout, and block sums add the same numbers in the
same order as ``ndarray.sum`` on the block (``dnl._group_sums``).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dnl import _group_sums
from .network import PathSet, TimeGrid


class ChoiceError(ValueError):
    """Raised on infeasible demand bookkeeping or malformed choice inputs."""


@dataclass(frozen=True)
class ChoiceParams:
    """Dispersion, schedule penalties, per-OD target arrivals, and time unit.

    ``mu_early`` < 1 < ``mu_late``: travelers dislike late arrival more.
    ``time_unit_s`` is the length in seconds of one disutility time unit.
    """

    theta: float
    target_arrival_s: tuple[float, ...]
    mu_early: float = 0.8
    mu_late: float = 1.2
    time_unit_s: float = 60.0

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ChoiceError("dispersion theta must be positive")
        if not 0 < self.mu_early < 1 < self.mu_late:
            raise ChoiceError("penalties must satisfy 0 < mu_early < 1 < mu_late")
        if self.time_unit_s <= 0:
            raise ChoiceError("time unit must be positive")


def systematic_disutility(phi, t, target_arrival, mu_early: float, mu_late: float):
    """Travel time plus quadratic schedule-delay penalty.

    All time arguments must share one unit; the result is expressed in that
    same unit (plus its square for the penalty term). Arrival exactly at the
    target incurs no penalty; early arrivals are weighted by ``mu_early``,
    late ones by ``mu_late``.
    """
    gap = np.asarray(t, dtype=float) + phi - target_arrival
    penalty = np.where(gap < 0.0, mu_early, mu_late)
    value = phi + penalty * gap * gap
    return float(value) if np.ndim(value) == 0 else value


def _departure_times_s(grid: TimeGrid, t_index: int) -> np.ndarray:
    T = grid.n_intervals
    if not 0 <= t_index < T:
        raise ChoiceError(f"provision interval {t_index} outside horizon")
    return (np.arange(t_index, T) + 0.5) * grid.dt_s


def disutility_from_instant(
    phi_instant_s: np.ndarray,
    t_index: int,
    grid: TimeGrid,
    target_arrival_s: np.ndarray,
    params: ChoiceParams,
) -> np.ndarray:
    """Disutility matrix (paths x remaining intervals) under instantaneous info.

    The single current travel time of each path is reused for every future
    departure column; only the schedule penalty varies across columns.
    """
    dep = _departure_times_s(grid, t_index)
    u = params.time_unit_s
    return systematic_disutility(
        np.asarray(phi_instant_s)[:, None] / u,
        dep[None, :] / u,
        np.asarray(target_arrival_s)[:, None] / u,
        params.mu_early,
        params.mu_late,
    )


def disutility_from_forecast(
    phi_forecast_s: np.ndarray,
    t_index: int,
    grid: TimeGrid,
    target_arrival_s: np.ndarray,
    params: ChoiceParams,
) -> np.ndarray:
    """Disutility matrix under forecast info: one travel time per column."""
    dep = _departure_times_s(grid, t_index)
    phi = np.asarray(phi_forecast_s)
    if phi.ndim != 2 or phi.shape[1] != dep.shape[0]:
        raise ChoiceError(
            f"forecast shape {phi.shape} does not cover the {dep.shape[0]} remaining intervals"
        )
    u = params.time_unit_s
    return systematic_disutility(
        phi / u,
        dep[None, :] / u,
        np.asarray(target_arrival_s)[:, None] / u,
        params.mu_early,
        params.mu_late,
    )


@dataclass(frozen=True)
class _Interval:
    """One provision interval's cells and blocks within a ``_Layout``."""

    t: int
    cells: slice
    blocks: slice
    block: np.ndarray  # block of each cell, counted from the interval's first
    wide: tuple  # ``_group_sums`` groups of the interval's blocks, local indices


@dataclass(frozen=True)
class _Layout:
    """Every OD's choice set at provision intervals ``first``.. as blocks of one array.

    Interval t contributes its paths x (intervals t..T-1) cell matrix
    row-major, after the intervals before it, so the choice set of one OD at
    t -- the rows of its paths -- is one contiguous block. Blocks are numbered
    in that order; ODs without paths have none.
    """

    interval: np.ndarray  # (cells,) departure interval
    od: np.ndarray  # (cells,)
    block: np.ndarray  # (cells,)
    start: np.ndarray  # (blocks,) first cell
    block_od: np.ndarray  # (blocks,)
    wide: tuple  # ``_group_sums`` groups of blocks with 8 or more cells
    intervals: tuple[_Interval, ...]


def _wide_groups(start: np.ndarray, size: np.ndarray) -> tuple:
    """(blocks, cell indices) per block size of 8 or more, for ``_group_sums``."""
    groups = []
    for n in sorted(set(size[size >= 8].tolist())):
        blocks = np.flatnonzero(size == n)
        groups.append((blocks, start[blocks][:, None] + np.arange(n)))
    return tuple(groups)


@functools.lru_cache(maxsize=64)
def _layout(od_sizes: tuple[int, ...], T: int, first: int, n: int) -> _Layout:
    """Layout of intervals ``first``..``first + n - 1`` for ODs of ``od_sizes`` paths.

    Cached: every table of one path set and grid shares it, and nothing
    writes to its arrays.
    """
    sizes = np.array(od_sizes)
    P = int(sizes.sum())
    ods = np.flatnonzero(sizes)
    intervals, interval, size = [], [], []
    cell = 0
    for i, t in enumerate(range(first, first + n)):
        m = T - t
        local = sizes[ods] * m
        intervals.append(_Interval(
            t, slice(cell, cell + P * m), slice(i * len(ods), (i + 1) * len(ods)),
            np.repeat(np.arange(len(ods)), local),
            _wide_groups(np.cumsum(local) - local, local),
        ))
        interval.append(np.tile(np.arange(t, T), P))
        size.append(local)
        cell += P * m
    size = np.concatenate(size)
    start = np.cumsum(size) - size
    block = np.repeat(np.arange(len(size)), size)
    block_od = np.tile(ods, n)
    return _Layout(
        interval=np.concatenate(interval), od=block_od[block], block=block, start=start,
        block_od=block_od,
        wide=_wide_groups(start, size), intervals=tuple(intervals),
    )


def _logit(psi: np.ndarray, block: np.ndarray, start: np.ndarray, wide, theta: float):
    """Max-shifted logit shares of every block of ``psi`` at once.

    Returns the shares, each block's first cell of largest share and whether
    the block is all finite. Each block's shares and first largest share are
    those of a logit over that block alone: the elementwise steps and the
    maxima are exact in any layout, and ``_group_sums`` adds each block's
    weights in the order ``ndarray.sum`` would. The shares of a non-finite
    block are not meaningful, but finite.
    """
    finite = np.logical_and.reduceat(np.isfinite(psi), start)
    if not finite.all():
        psi = np.where(finite[block], psi, 0.0)
    z = -theta * psi
    z -= np.maximum.reduceat(z, start)[block]
    w = np.exp(z)
    share = w / _group_sums(w, block, len(start), wide)[block]
    top = share == np.maximum.reduceat(share, start)[block]
    first_top = np.minimum.reduceat(np.where(top, np.arange(len(share)), len(share)), start)
    return share, first_top, finite


def logit_probabilities(psi: np.ndarray, theta: float) -> np.ndarray:
    """Logit shares over one choice set (all entries of ``psi`` jointly).

    Computed with a max-shift so large theta*psi cannot overflow; entries sum
    to one up to floating-point residual. The one-block case of the kernel
    behind ``share_table``.
    """
    psi = np.asarray(psi, dtype=float)
    n = psi.size
    if n == 0:
        raise ChoiceError("empty choice set")
    start = np.zeros(1, dtype=np.intp)
    share, _, finite = _logit(psi.reshape(-1), np.zeros(n, dtype=np.intp), start,
                              _wide_groups(start, np.array([n])), theta)
    if not finite[0]:
        raise ChoiceError("disutility matrix has non-finite entries")
    return share.reshape(psi.shape)


@dataclass(frozen=True)
class ShareTable:
    """Logit shares of every OD's choice set at consecutive provision intervals.

    Built once per information product by ``share_table``. Assigning demand
    to it (``tentative_from_shares``) only scales shares and folds
    residuals, so it can follow a remaining demand that changes from one
    interval to the next.
    """

    first: int  # first provision interval
    n_paths: int
    layout: _Layout
    share: np.ndarray  # (cells,)
    top: np.ndarray  # (blocks,) cell of each block's first largest share
    finite: np.ndarray  # (blocks,) whether each block's disutilities are finite


def share_table(
    phi_s: Sequence[np.ndarray],
    first: int,
    grid: TimeGrid,
    path_set: PathSet,
    params: ChoiceParams,
) -> ShareTable:
    """Logit shares of every OD's choice set at intervals ``first``, ``first`` + 1, ...

    ``phi_s[i]`` is the information provided at interval ``first + i``:
    either a per-path vector of instantaneous travel times, reused for every
    departure column, or a paths x remaining-intervals forecast matrix. The
    disutilities and shares of all intervals are computed in one vectorised
    pass; each OD's block at each interval gets exactly the shares, and the
    same first largest share, as ``logit_probabilities`` of that block alone.
    """
    T = grid.n_intervals
    P = path_set.n_paths
    if not (len(phi_s) and 0 <= first and first + len(phi_s) <= T):
        raise ChoiceError(
            f"provision intervals {first}..{first + len(phi_s) - 1} outside horizon"
        )
    lay = _layout(tuple(sl.stop - sl.start for sl in path_set.od_slices), T, first, len(phi_s))
    cells = []
    for iv, p in zip(lay.intervals, phi_s):
        p = np.asarray(p, dtype=float)
        if p.shape == (P,):
            cells.append(np.repeat(p, T - iv.t))
        elif p.shape == (P, T - iv.t):
            cells.append(p.ravel())
        else:
            raise ChoiceError(
                f"travel times of shape {p.shape} do not cover the {P} paths x "
                f"{T - iv.t} remaining intervals at interval {iv.t}"
            )
    u = params.time_unit_s
    dep = (np.arange(T) + 0.5) * grid.dt_s
    ta = np.asarray(params.target_arrival_s, dtype=float)
    psi = systematic_disutility(
        np.concatenate(cells) / u, (dep / u)[lay.interval], (ta / u)[lay.od],
        params.mu_early, params.mu_late,
    )
    share, top, finite = _logit(psi, lay.block, lay.start, lay.wide, params.theta)
    return ShareTable(first, P, lay, share, top, finite)


def tentative_from_shares(
    table: ShareTable, t_index: int, remaining_demand: np.ndarray
) -> np.ndarray:
    """Assign each OD's remaining demand over its choice set at ``t_index``.

    Scales the table's shares by the demand; per-OD totals are conserved
    exactly (the floating-point residual of each total is folded into the
    block's first largest share).
    """
    lay = table.layout
    i = t_index - table.first
    if not 0 <= i < len(lay.intervals):
        raise ChoiceError(f"provision interval {t_index} not in the share table")
    iv = lay.intervals[i]
    ods = lay.block_od[iv.blocks]
    demand = np.asarray(remaining_demand, dtype=float)[ods]
    if (demand < 0).any():
        raise ChoiceError(f"negative remaining demand for OD {ods[np.argmax(demand < 0)]}")
    if ((demand != 0.0) & ~table.finite[iv.blocks]).any():
        raise ChoiceError("disutility matrix has non-finite entries")
    out = table.share[iv.cells] * demand[iv.block]
    residual = demand - _group_sums(out, iv.block, len(demand), iv.wide)
    out[table.top[iv.blocks] - iv.cells.start] += residual
    return out.reshape(table.n_paths, -1)


def tentative_departures(
    phi_s: np.ndarray,
    remaining_demand: np.ndarray,
    t_index: int,
    grid: TimeGrid,
    path_set: PathSet,
    params: ChoiceParams,
) -> np.ndarray:
    """Assign each OD's remaining demand over its open (path, interval) choices.

    ``phi_s`` is either a per-path vector of instantaneous travel times or a
    paths-x-remaining-intervals forecast matrix; the vector form reuses the
    current time for every future column. Per-OD totals are conserved exactly
    (the floating-point residual of the share sum is folded into the
    largest-share cell). The one-interval case of ``share_table`` and
    ``tentative_from_shares``.
    """
    table = share_table([phi_s], t_index, grid, path_set, params)
    return tentative_from_shares(table, t_index, remaining_demand)


def remaining_demand(
    realized_history: np.ndarray,
    class_demand: np.ndarray,
    path_set: PathSet,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """Per-OD demand not yet departed, given realized columns before now.

    Tiny negative remainders (floating-point dust within ``rel_tol``) are
    clamped to zero; anything larger is an overdraw error.
    """
    class_demand = np.asarray(class_demand, dtype=float)
    departed = np.zeros_like(class_demand)
    if realized_history.size:
        per_path = realized_history.sum(axis=1)
        np.add.at(departed, path_set.od_of_path, per_path)
    remaining = class_demand - departed
    floor = -rel_tol * np.maximum(1.0, class_demand)
    if np.any(remaining < floor):
        worst = int(np.argmin(remaining - floor))
        raise ChoiceError(
            f"OD {worst}: cumulative departures {departed[worst]!r} exceed "
            f"class demand {class_demand[worst]!r}"
        )
    return np.maximum(remaining, 0.0)


def realize_departures(tentative: np.ndarray) -> np.ndarray:
    """Only the current interval's column of a tentative plan executes."""
    tentative = np.asarray(tentative, dtype=float)
    if tentative.ndim != 2 or tentative.shape[1] < 1:
        raise ChoiceError("tentative departures must have at least one column")
    return tentative[:, 0].copy()
