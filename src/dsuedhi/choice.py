"""Travel choice model: disutility, logit shares, tentative and realized departures.

Travelers facing a joint path-and-departure-time choice perceive a systematic
disutility equal to travel time plus a quadratic early/late arrival penalty,
and split according to a logit over every (path, departure interval) still
open for their OD pair. The random taste terms are handled in closed form by
the logit; nothing is ever sampled.

The quadratic penalty is evaluated in a configurable disutility time unit
(minutes by default); travel times, departure times, and target arrivals are
converted from seconds before entering the formula.

Information is travel time by (provision interval t, path, departure j),
read only in its open cells j >= t: instantaneous times are one column
broadcast over j, strategic forecasts vary with j.

The logit has two parts. ``share_table`` computes the shares of every OD's
choice set at any number of provision intervals, reading only the open cells.
A first kernel pass (``dnl_logit_exponents`` in ``dnl_step.c``, which states
the disutility) writes each block's exponents, shifted by the block's
largest; numpy's ``exp`` takes them in place, since libm's ``exp`` may differ
from it in the last bit; and a second kernel pass (``dnl_logit_shares``)
divides each block by its total and finds its first largest share. ``assign``
scales the shares of consecutive intervals by one remaining-demand row each
and folds the floating-point residual of each total into the block's first
largest share; only this part depends on the demand. The pooled reaction of a
forecast assigns every interval at once, from ``remaining_demand``;
``rollout`` carries one class through the intervals of a table, one at a
time, realizing one column from its own remaining demand. Its loop is one
kernel call (``dnl_rollout`` in ``dnl_step.c``), which makes ``assign``'s
operations, the subtraction and ``_unspent``'s test in their Python order, so
its results and errors are those of a loop of one-row ``assign`` calls.
``tentative_departures`` is the one-interval case of both. Per block, results
are bit-identical to a numpy logit over that block alone: each step rounds
once, as its numpy form does, maxima are exact in any order, and the kernel
totals each block as ``ndarray.sum`` does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dnl
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
        if not np.isfinite((self.theta, self.mu_early, self.mu_late, self.time_unit_s,
                            *self.target_arrival_s)).all():
            raise ChoiceError("choice parameters must be finite")  # NaN passes every check below
        if self.theta <= 0:
            raise ChoiceError("dispersion theta must be positive")
        if not 0 < self.mu_early < 1 < self.mu_late:
            raise ChoiceError("penalties must satisfy 0 < mu_early < 1 < mu_late")
        if self.time_unit_s <= 0:
            raise ChoiceError("time unit must be positive")


def _od_sizes(path_set: PathSet) -> tuple[int, ...]:
    return tuple(sl.stop - sl.start for sl in path_set.od_slices)


def cell_disutility(phi_s, grid: TimeGrid, path_set: PathSet, params: ChoiceParams) -> np.ndarray:
    """Systematic disutility of the (paths, T) travel times ``phi_s`` (seconds).

    Cell (p, j) departs at the middle of interval j and aims at the target
    arrival of path p's OD: travel time plus a quadratic penalty on the gap
    between arrival and target, weighted by ``mu_early`` or ``mu_late``, with
    every time in ``params.time_unit_s``. It is the first pass of a share
    table of one provision interval, 0, stopped before the logit.
    """
    T, P = grid.n_intervals, path_set.n_paths
    phi = np.ascontiguousarray(phi_s, dtype=float)
    if phi.shape != (P, T):
        raise ChoiceError(f"travel times of shape {phi.shape} are not ({P} paths, {T} intervals)")
    lay = _layout(_od_sizes(path_set), T, 0, 1)
    return _exponents(phi[None], 0, grid, path_set, params, 0.0, lay)[0].reshape(P, T)


@dataclass(frozen=True)
class _Layout:
    """Every OD's choice set at provision intervals ``first``.. as blocks of one array.

    Interval t contributes its paths x (intervals t..T-1) cell matrix
    row-major, after the intervals before it, so the choice set of one OD at
    t -- the rows of its paths -- is one contiguous block. Blocks are numbered
    in that order; ODs without paths have none: the order ``open`` selects in.
    """

    open: np.ndarray  # (n, P, T) bool, departure j >= provision interval first + i
    start: np.ndarray  # (blocks,) int64, first cell of each block
    size: np.ndarray  # (blocks,) int64, cells of each block
    cells: int  # cells of all blocks
    block_od: np.ndarray  # (blocks,)
    od_sizes: tuple[int, ...]  # paths of each OD


def open_cells(first: int, n: int, T: int) -> np.ndarray:
    """(n, 1, T) mask of departures j >= t at provision intervals t = first..first + n - 1."""
    return (np.arange(T) >= np.arange(first, first + n)[:, None])[:, None, :]


@functools.lru_cache(maxsize=64)
def _layout(od_sizes: tuple[int, ...], T: int, first: int, n: int) -> _Layout:
    """Layout of intervals ``first``..``first + n - 1`` for ODs of ``od_sizes`` paths.

    Cached: every table of one path set and grid shares it, and nothing
    writes to its arrays.
    """
    sizes = np.array(od_sizes, dtype=np.int64)
    ods = np.flatnonzero(sizes)
    size = (sizes[ods] * (T - np.arange(first, first + n))[:, None]).ravel()  # per interval, OD
    return _Layout(open=open_cells(first, n, T).repeat(int(sizes.sum()), axis=1),
                   start=np.cumsum(size) - size, size=size, cells=int(size.sum()),
                   block_od=np.tile(ods, n), od_sizes=od_sizes)


def _exponents(phi: np.ndarray, first: int, grid: TimeGrid, path_set: PathSet,
               params: ChoiceParams, theta: float, lay: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``lay`` by the first pass of the logit (``dnl_logit_exponents``).

    ``phi`` is C-contiguous (intervals, 1 or paths, 1 or T). Returns each
    cell's exponent, -``theta`` times its disutility (times 0.0 in a block
    that is not finite) less its block's largest, and whether each block's
    disutilities are finite; with ``theta`` 0, the disutilities themselves.
    """
    (n, phi_paths, phi_cols), T, P = phi.shape, grid.n_intervals, path_set.n_paths
    target, mids = np.array(params.target_arrival_s, dtype=float), grid.interval_mids()
    z, finite = np.empty(lay.cells), np.empty(lay.start.shape, dtype=bool)
    code = dnl._kernel().dnl_logit_exponents(
        dnl._arg(phi, np.float64, phi.shape), n, phi_paths, phi_cols, first, T,
        dnl._arg(mids, np.float64, (T,)), dnl._arg(path_set.od_of_path, np.int64, (P,)), P,
        dnl._arg(target, np.float64, target.shape), len(target), params.time_unit_s,
        params.mu_early, params.mu_late, theta, dnl._arg(z, np.float64, z.shape), lay.cells,
        dnl._arg(finite, np.bool_, finite.shape), len(finite))
    if code == -2:
        raise MemoryError("logit kernel could not allocate its work array")
    if code:
        raise ChoiceError(f"the blocks of {P} paths at provision intervals {first}.."
                          f"{first + n - 1} do not fill the layout's {lay.cells} cells")
    return z, finite


@dataclass(frozen=True)
class ShareTable:
    """Logit shares of every OD's choice set at consecutive provision intervals.

    Built once per information product by ``share_table``. Assigning demand
    to it (``assign``) only scales shares and folds residuals, so it can
    follow a remaining demand that changes from one interval to the next.
    """

    first: int  # first provision interval
    n_paths: int
    layout: _Layout
    share: np.ndarray  # (cells,)
    top: np.ndarray  # (blocks,) cell of each block's first largest share
    finite: np.ndarray  # (blocks,) whether each block's disutilities are finite

    def __post_init__(self) -> None:
        # ``assign`` and ``dnl_rollout`` add each block's residual at ``top`` unchecked
        start, size = self.layout.start, self.layout.size
        top = np.asarray(self.top)
        if top.shape != start.shape or not ((start <= top) & (top < start + size)).all():
            raise ChoiceError("a share table's top cell lies outside its block")


def share_table(
    phi_s: np.ndarray,
    first: int,
    grid: TimeGrid,
    path_set: PathSet,
    params: ChoiceParams,
) -> ShareTable:
    """Logit shares of every OD's choice set at intervals ``first``, ``first`` + 1, ...

    ``phi_s[i, p, j]`` is the travel time of path p for departure interval j
    provided at interval ``first + i``; ``phi_s`` may be any 3-D array that
    broadcasts to (intervals, paths, T), so instantaneous times, reused for
    every departure, come as (intervals, paths, 1). Cells with j before the
    provision interval are not read. The shares of all intervals take two
    kernel passes over the open cells around one ``exp``; each OD's block at
    each interval gets exactly the shares, and the same first largest share,
    as a numpy logit over that block alone.
    """
    T = grid.n_intervals
    P = path_set.n_paths
    phi = np.asarray(phi_s, dtype=float)
    if phi.ndim != 3 or phi.shape[1] not in (1, P) or phi.shape[2] not in (1, T):
        raise ChoiceError(
            f"travel times of shape {phi.shape} do not broadcast to "
            f"(intervals, {P} paths, {T} departure intervals)"
        )
    n = len(phi)
    if not (n and 0 <= first and first + n <= T):
        raise ChoiceError(f"provision intervals {first}..{first + n - 1} outside horizon")
    lay = _layout(_od_sizes(path_set), T, first, n)
    share, finite = _exponents(np.ascontiguousarray(phi), first, grid, path_set, params,
                               params.theta, lay)
    np.exp(share, out=share)
    top = np.empty(lay.start.shape, dtype=np.int64)
    if dnl._kernel().dnl_logit_shares(
            dnl._arg(share, np.float64, share.shape), lay.cells,
            dnl._arg(lay.start, np.int64, top.shape), dnl._arg(lay.size, np.int64, top.shape),
            len(top), dnl._arg(top, np.int64, top.shape)):
        raise ChoiceError(f"a block does not lie inside the layout's {lay.cells} cells")
    return ShareTable(first, P, lay, share, top, finite)


def assign(table: ShareTable, t_index: int, remaining_demand: np.ndarray) -> np.ndarray:
    """Assign remaining demand over every OD's choice set at ``t_index``, ``t_index`` + 1, ...

    ``remaining_demand`` holds one row of per-OD demand for each of those
    intervals. Returns their cells flat, in the table's layout order, which
    ``layout.open`` selects in. Per-OD totals are conserved exactly (the
    floating-point residual of each total is folded into the block's first
    largest share).
    """
    lay = table.layout
    demand = np.asarray(remaining_demand, dtype=float)
    i, n = t_index - table.first, len(lay.open)
    if demand.ndim != 2 or not 0 <= i < i + len(demand) <= n:
        raise ChoiceError(f"demand rows {demand.shape} from provision interval {t_index} are "
                          f"not in the share table's {table.first}..{table.first + n - 1}")
    m = len(lay.block_od) // n  # blocks per interval, at least one
    blocks = slice(i * m, (i + len(demand)) * m)
    start, size = lay.start[blocks], lay.size[blocks]
    cells = slice(start[0], start[-1] + size[-1])
    demand = demand[:, lay.block_od[:m]].ravel()  # per block
    if (demand < 0).any():
        raise ChoiceError(f"negative remaining demand for OD {lay.block_od[np.argmax(demand < 0)]}")
    if ((demand != 0.0) & ~table.finite[blocks]).any():
        raise ChoiceError("disutility matrix has non-finite entries")
    out = table.share[cells] * np.repeat(demand, size)
    residual = demand - dnl.run_sums(out, start - cells.start, size)
    out[table.top[blocks] - cells.start] += residual
    return out


def tentative_departures(
    phi_s: np.ndarray,
    remaining_demand: np.ndarray,
    t_index: int,
    grid: TimeGrid,
    path_set: PathSet,
    params: ChoiceParams,
) -> np.ndarray:
    """Assign each OD's remaining demand over its open (path, interval) choices.

    ``phi_s`` is either a per-path vector of instantaneous travel times,
    reused for every departure, or a paths x T matrix of travel times by
    departure interval, of which the columns from ``t_index`` on are read.
    Per-OD totals are conserved exactly (the floating-point residual of the
    share sum is folded into the largest-share cell). The one-interval case
    of ``share_table`` and ``assign``.
    """
    phi = np.asarray(phi_s, dtype=float)
    table = share_table(phi[None, :, None] if phi.ndim == 1 else phi[None], t_index, grid,
                        path_set, params)
    demand = np.asarray(remaining_demand, dtype=float)[None]
    return assign(table, t_index, demand).reshape(path_set.n_paths, -1)


def remaining_demand(
    history: np.ndarray,
    class_demand: np.ndarray,
    path_set: PathSet,
) -> np.ndarray:
    """Per-OD demand not yet departed before each interval t of ``history``, (T, ODs).

    Row t is ``class_demand`` less the departures of ``history[:, :t]``:
    each path's total of those columns, as ``ndarray.sum`` gives it, added
    per OD in path order, as ``np.add.at`` adds. Tiny negative remainders
    are clamped to zero; anything larger is an overdraw error (``_unspent``).
    """
    class_demand = np.asarray(class_demand, dtype=float)
    h = np.ascontiguousarray(history, dtype=float)
    P, T = h.shape
    prefix = dnl.run_sums(h, np.tile(np.arange(P, dtype=np.int64) * T, T),
                          np.repeat(np.arange(T, dtype=np.int64), P)).reshape(T, P)
    departed = np.zeros((T, len(class_demand)))
    np.add.at(departed, (slice(None), path_set.od_of_path), prefix)
    return _unspent(class_demand - departed, class_demand)


def _unspent(remaining: np.ndarray, class_demand: np.ndarray) -> np.ndarray:
    """``remaining`` per OD (last axis), floating-point dust below zero clamped to zero.

    Dust lies within 1e-9 of the class demand, or of one vehicle; a larger
    negative remainder is an overdraw and raises.
    """
    floor = -1e-9 * np.maximum(1.0, class_demand)
    if np.any(remaining < floor):
        worst = np.unravel_index(np.argmin(remaining - floor), remaining.shape)
        raise ChoiceError(f"OD {worst[-1]}: departures exceed class demand "
                          f"{class_demand[worst[-1]]!r} by {-remaining[worst]!r}")
    return np.maximum(remaining, 0.0)


def rollout(table: ShareTable, class_demand: np.ndarray, path_set: PathSet) -> np.ndarray:
    """One class's realized departures, paths x the table's provision intervals.

    At each interval the class's remaining demand is assigned to the table,
    as ``assign`` assigns one row, and only the current column is realized
    and subtracted from it, per OD in path order. An overdraw beyond
    floating-point dust raises; dust is clamped to zero (``_unspent``). The
    whole loop is one kernel call (``dnl_rollout``), which repeats those
    operations in that order; a failed check raises the error that
    ``assign`` or ``_unspent`` raises on the remaining demand it left.
    """
    lay = table.layout
    od_sizes = _od_sizes(path_set)
    if table.n_paths != path_set.n_paths or lay.od_sizes != od_sizes:
        raise ChoiceError(f"share table of ODs with {lay.od_sizes} paths ({table.n_paths} in "
                          f"all) does not fit the path set's {od_sizes} ({path_set.n_paths})")
    demand = np.ascontiguousarray(class_demand, dtype=float)
    if demand.shape != (len(od_sizes),):
        raise ChoiceError(f"class demand of shape {demand.shape} is not one per OD "
                          f"of {len(od_sizes)}")
    P, (n, _, T) = table.n_paths, lay.open.shape
    blocks, width = lay.start.shape, T - table.first
    rem = demand.copy()
    y = np.empty((P, n))
    work = np.empty(P * width)  # one interval's cells
    failed = dnl._kernel().dnl_rollout(
        dnl._arg(table.share, np.float64, (lay.cells,)), dnl._arg(lay.start, np.int64, blocks),
        dnl._arg(lay.size, np.int64, blocks), dnl._arg(table.top, np.int64, blocks),
        dnl._arg(table.finite, np.bool_, blocks), dnl._arg(lay.block_od, np.int64, blocks),
        blocks[0] // n, n, width, dnl._arg(path_set.od_of_path, np.int64, (P,)), P, len(od_sizes),
        *(dnl._arg(x, np.float64, x.shape) for x in (demand, rem, y, work)))
    if failed:
        i, overdrawn = divmod(failed - 1, 2)
        if overdrawn:
            _unspent(rem, demand)
        assign(table, table.first + i, rem[None])
        raise ChoiceError(f"rollout stopped at provision interval {table.first + i}")
    return y
