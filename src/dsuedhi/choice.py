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
choice set at any number of provision intervals, over the open cells of a
cached ``_Layout``, whose argument block passes its arrays to the kernel
(``dnl_step.c``, which states the disutility, and finds the blocks from
the runs of equal OD in the paths): a table is that layout and its
shares. A first pass writes each block's exponents, shifted by the
block's largest, and refuses a block that is not finite; numpy's ``exp``
takes them in place, since libm's ``exp`` may differ from it in the last
bit; a second pass divides each block by its total. ``assign`` scales the
shares of each interval by one remaining-demand row and folds the residual
of each total into the block's first largest share, found there, in one
kernel pass (``dnl_assign``), into the information's (provision interval,
path, departure interval) layout: the pooled reaction of a forecast
assigns every interval at once, from ``remaining_demand`` (one kernel
pass, ``dnl_remaining``), as the array that the forecast batch reads, and
``tentative_departures`` is the one-interval case. Per block, results are
bit-identical to a numpy logit over that block alone. ``rollout`` carries
one class through the intervals of a table, realizing one column at a
time from its own remaining demand, in closed form: an OD keeps what its
current column does not take, so its remaining demand is its demand times
the product of what it kept before.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    arrival of path p's OD: travel time plus a quadratic penalty on the gap,
    weighted by ``mu_early`` or ``mu_late``, every time in
    ``params.time_unit_s``; the first pass of a share table, before the logit.
    """
    T, P = grid.n_intervals, path_set.n_paths
    phi = np.ascontiguousarray(phi_s, dtype=float)
    if phi.shape != (P, T):
        raise ChoiceError(f"travel times of shape {phi.shape} are not ({P} paths, {T} intervals)")
    lay = _layout(_od_sizes(path_set), grid, 0, 1)
    return _exponents(phi[None], params, 0.0, lay).reshape(P, T)


class _LayoutBlock(dnl._Block):
    """``layout_t``: a ``_Layout``'s arrays and sizes, for the logit kernels."""

    _fields_ = dnl._fields("path_od mids", "n first T P cells")


@dataclass(frozen=True)
class _Layout:
    """Every OD's choice set at provision intervals ``first``.. as blocks of one array.

    Interval t contributes its paths x (intervals t..T-1) cell matrix
    row-major, after the intervals before it, so the choice set of one OD at
    t -- the rows of its paths -- is one contiguous block. Blocks come in
    that order; ODs without paths have none: the order ``open_cells``
    selects in. The kernel finds each block from the run of its OD's paths.
    ``block`` (``layout_t``) holds the arrays, read-only, for the kernel, and
    the sizes: intervals ``n``, ``T``, paths ``P``.
    """

    cells: int  # cells of all blocks
    ods: np.ndarray  # the ODs that have paths, in block order
    own: np.ndarray  # (P, n) int64, the cell of each path's own departure interval
    heads: np.ndarray  # int64, first path of each OD that has paths
    rows: np.ndarray  # (P,) int64, each path's OD among those that have paths
    od_sizes: tuple[int, ...]  # paths of each OD
    first: int
    mids: np.ndarray  # (T,) interval midpoints
    block: _LayoutBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (P, n), T, i64 = self.own.shape, len(self.mids), np.int64
        path_od = np.repeat(np.arange(len(self.od_sizes), dtype=i64), self.od_sizes)
        for x in (self.ods, self.own, self.heads, self.rows):
            x.flags.writeable = False
        object.__setattr__(self, "block", _LayoutBlock(
            [(path_od, i64, P), (self.mids, np.float64, T)], n, self.first, T, P, self.cells))


def open_cells(first: int, n: int, T: int) -> np.ndarray:
    """(n, 1, T) mask of departures j >= t at provision intervals t = first..first + n - 1."""
    return (np.arange(T) >= np.arange(first, first + n)[:, None])[:, None, :]


@functools.lru_cache(maxsize=64)
def _layout(od_sizes: tuple[int, ...], grid: TimeGrid, first: int, n: int) -> _Layout:
    """Layout of intervals ``first``..``first + n - 1`` of ``grid`` for ODs of ``od_sizes`` paths.

    Cached: every table of one path set and grid shares it.
    """
    sizes, T = np.array(od_sizes, dtype=np.int64), grid.n_intervals
    ods, P, width = np.flatnonzero(sizes), int(sizes.sum()), T - np.arange(first, first + n)
    cells = P * width  # per interval
    return _Layout(cells=int(cells.sum()), ods=ods,
                   own=np.cumsum(cells) - cells + np.arange(P)[:, None] * width,
                   heads=(np.cumsum(sizes) - sizes)[ods],
                   rows=np.repeat(np.arange(len(ods)), sizes[ods]), od_sizes=od_sizes,
                   first=first, mids=grid.interval_mids())


def _exponents(phi: np.ndarray, params: ChoiceParams, theta: float, lay: _Layout) -> np.ndarray:
    """The cells of ``lay`` by the first pass of the logit (``dnl_logit_exponents``).

    ``phi`` is C-contiguous (intervals, paths, 1 or T). Returns each
    cell's exponent, -``theta`` times its disutility less its block's
    largest, and raises if a block's disutilities are not all finite; with
    ``theta`` 0, the disutilities themselves, finite or not. Raises unless
    ``params`` has one target arrival per OD.
    """
    b, target = lay.block, np.array(params.target_arrival_s, dtype=float)
    if len(target) != len(lay.od_sizes):
        raise ChoiceError(f"{len(target)} target arrivals for {len(lay.od_sizes)} ODs: "
                          "there must be one per OD")
    z = np.empty(lay.cells)
    code = dnl._kernel().dnl_logit_exponents(
        b.ptr, dnl._arg(phi, np.float64, (b.n, b.P, phi.shape[2])), phi.shape[2],
        dnl._arg(target, np.float64, target.shape), len(target), params.time_unit_s,
        params.mu_early, params.mu_late, theta, dnl._arg(z, np.float64, (b.cells,)))
    if code == -3:
        raise ChoiceError("non-finite disutilities: an open cell's travel time or schedule "
                          "penalty is NaN or infinite")
    if code == -2:
        raise MemoryError("logit kernel could not allocate its work array")
    if code:
        raise ChoiceError(f"the blocks of {b.P} paths at provision intervals {b.first}.."
                          f"{b.first + b.n - 1} do not fill the layout's {b.cells} cells")
    return z


@dataclass(frozen=True)
class ShareTable:
    """Logit shares of every OD's choice set at consecutive provision intervals.

    Built once per information product by ``share_table``. Assigning demand
    to it (``assign``) only scales shares and folds residuals, so it can
    follow a remaining demand that changes between intervals.
    """

    layout: _Layout  # with the first provision interval and the paths
    share: np.ndarray  # (cells,)


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
    is (intervals, paths, T) or, for instantaneous times reused for every
    departure, (intervals, paths, 1). Cells with j before the provision
    interval are not read. Each OD's block at each interval gets exactly the
    shares of a numpy logit over that block alone. A block whose
    disutilities are not all finite raises, whether its OD has demand or
    not, and so does one whose shares are not, as where theta times a
    disutility overflows.
    """
    T, P = grid.n_intervals, path_set.n_paths
    phi = np.asarray(phi_s, dtype=float)
    if phi.ndim != 3 or phi.shape[1] != P or phi.shape[2] not in (1, T):
        raise ChoiceError(f"travel times of shape {phi.shape} do not broadcast to "
                          f"(intervals, {P} paths, {T} departure intervals)")
    n = len(phi)
    if not (n and 0 <= first and first + n <= T):
        raise ChoiceError(f"provision intervals {first}..{first + n - 1} outside horizon")
    lay = _layout(_od_sizes(path_set), grid, first, n)
    share = _exponents(np.ascontiguousarray(phi), params, params.theta, lay)
    np.exp(share, out=share)
    code = dnl._kernel().dnl_logit_shares(lay.block.ptr, dnl._arg(share, np.float64, share.shape))
    if code == 1:
        raise ChoiceError(f"logit shares are not finite: theta {params.theta!r} times a "
                          "disutility overflows")
    if code:
        raise ChoiceError(f"a block does not lie inside the layout's {lay.cells} cells")
    return ShareTable(lay, share)


def assign(table: ShareTable, remaining_demand: np.ndarray) -> np.ndarray:
    """Assign remaining demand over every OD's choice set at each interval of ``table``.

    ``remaining_demand`` holds one row of demand for each of the table's
    provision intervals, one entry per OD. Returns a (rows, paths, T) array:
    row i holds interval ``first`` + i's cells (p, j) at [i, p, j] for j
    from that interval on, its open cells, and 0.0 before them. Per-OD
    totals are conserved exactly: each total's residual is folded into its
    block's first largest share, which the kernel (``dnl_assign``) finds
    there.
    """
    b, n_od = table.layout.block, len(table.layout.od_sizes)
    demand = np.ascontiguousarray(remaining_demand, dtype=float)
    if demand.shape != (b.n, n_od):
        raise ChoiceError(f"demand of shape {demand.shape} is not one row of {n_od} ODs for "
                          f"each of the share table's provision intervals {b.first}.."
                          f"{b.first + b.n - 1}")
    out = np.empty((b.n, b.P, b.T))
    code = dnl._kernel().dnl_assign(
        b.ptr, dnl._arg(table.share, np.float64, (b.cells,)),
        dnl._arg(demand, np.float64, demand.shape), n_od, dnl._arg(out, np.float64, out.shape))
    if code > 0:
        raise ChoiceError(f"negative remaining demand for OD {code - 1}")
    if code == -2:
        raise MemoryError("assignment kernel could not allocate its work array")
    if code:
        raise ChoiceError(f"the blocks of {b.P} paths at provision intervals {b.first}.."
                          f"{b.first + b.n - 1} do not fit the share table's layout")
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
    share sum is folded into the largest-share cell). Returns the (paths,
    T - ``t_index``) open cells of the one-interval case of ``share_table``
    and ``assign``.
    """
    phi = np.asarray(phi_s, dtype=float)
    table = share_table(phi[None, :, None] if phi.ndim == 1 else phi[None], t_index, grid,
                        path_set, params)
    demand = np.asarray(remaining_demand, dtype=float)[None]
    return assign(table, demand)[0, :, t_index:]


def remaining_demand(
    history: np.ndarray,
    class_demand: np.ndarray,
    path_set: PathSet,
) -> np.ndarray:
    """Per-OD demand not yet departed before each interval t of ``history``, (T, ODs).

    ``history`` has one row per path. Row t is ``class_demand`` less the
    departures of ``history[:, :t]``: each path's ``ndarray.sum`` of those
    columns, added per OD in path order, as ``np.add.at`` adds, by the
    kernel (``dnl_remaining``); dust below zero is clamped, more raises as
    ``_unspent`` does.
    """
    class_demand = _per_od(class_demand, len(path_set.od_slices))
    h = np.ascontiguousarray(history, dtype=float)
    if h.ndim != 2 or len(h) != path_set.n_paths:
        raise ChoiceError(f"departure history of shape {h.shape} is not one row per path "
                          f"of {path_set.n_paths}")
    (P, T), n_od = h.shape, len(class_demand)
    out = np.empty((T, n_od))
    code = dnl._kernel().dnl_remaining(
        dnl._arg(h, np.float64, h.shape), P, T, dnl._arg(path_set.od_of_path, np.int64, (P,)),
        dnl._arg(class_demand, np.float64, (n_od,)), n_od, dnl._arg(out, np.float64, out.shape))
    if code < 0:
        raise ChoiceError(f"a path's OD lies outside the {n_od} ODs")
    return _unspent(out, class_demand) if code else out  # an overdraw: ``_unspent`` names it


def _per_od(class_demand, n_od: int) -> np.ndarray:
    """``class_demand`` as a C-contiguous float array; ``ChoiceError`` unless one per OD."""
    demand = np.ascontiguousarray(class_demand, dtype=float)
    if demand.shape != (n_od,):
        raise ChoiceError(f"class demand of shape {demand.shape} is not one per OD of {n_od}")
    return demand


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


def rollout(table: ShareTable, class_demand: np.ndarray) -> np.ndarray:
    """One class's realized departures, paths x the table's provision intervals.

    At each interval the class realizes only the current column of the
    table's assignment of its remaining demand: each path's share of its
    own departure interval times its OD's remaining demand. An OD keeps 1 - c
    of it, c its column's shares, so what remains before interval i is its
    demand times the product of what it kept before. A remainder below zero
    is an overdraw (``_unspent``) or dust, clamped to zero; a negative
    demand raises as ``assign`` does.
    """
    lay = table.layout
    demand, ods = _per_od(class_demand, len(lay.od_sizes)), lay.ods
    s = table.share[lay.own]
    keep = 1.0 - np.add.reduceat(s, lay.heads)  # (ODs with paths, n)
    rem = np.empty_like(keep)
    rem[:, 0] = demand[ods]
    np.maximum(keep[:, :-1], 0.0, out=rem[:, 1:])
    np.multiply.accumulate(rem, axis=1, out=rem)
    if keep.min() < 0.0 or demand.min() < 0.0:  # an overdraw, dust or a negative demand
        negative = demand[ods] < 0.0
        if negative.any():
            raise ChoiceError(f"negative remaining demand for OD {ods[np.argmax(negative)]}")
        after = np.tile(demand, (rem.shape[1], 1))  # an OD without paths keeps its demand
        after[:, ods] = (rem * keep).T
        _unspent(after, demand)
    return s * rem[lay.rows]
