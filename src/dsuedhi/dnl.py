"""Dynamic network loading on cumulative curves.

Link-transmission-style kinematic wave model on a triangular fundamental
diagram. Per time step, each link offers a sending flow (demand) and a
receiving flow (supply); node models resolve the competition: merges split
supply in proportion to demand, diverges scale a link's whole sendable flow so
that no outgoing supply is exceeded (FIFO-proportional restriction).

The sending flow follows the corrected rule: with a positive backlog the link
may discharge at most the backlog itself within one step (never more than
capacity); without a backlog it discharges what arrives at the downstream end
during the step. Vehicles are fluid; cumulative counts are sampled at interval
boundaries and linearly interpolated in between. Origins feed the first link
of each path through unbounded-storage source connectors whose waits count
toward path travel time; destinations are sinks with infinite supply.

Loading continues past the departure horizon until the network drains (or a
step cap is hit, in which case remaining trips are extrapolated at terminal
discharge rate and flagged). The cap, ``_step_cap``, allows 20 times the
horizon's steps plus 200 to drain; tests lower it by patching that function,
as they patch ``_CHUNK_BYTES``.

When some link's free-flow time is shorter than the departure interval, the
loader refines its internal step until every link spans at least one step, so
sub-interval traversal stays exact whenever free-flow times divide the
interval; departures, probes, and reported travel times remain on the
departure grid.

Layout. Every cumulative curve pair (entries, exits) is a *row*: the links
that some path uses, in link order, then one source connector per distinct
first link. Vehicles follow enumerated paths, so a link on no path never
carries one; it gets no row, and the result reports zero curves for it. A
*slot* is one (row, path) pair and holds that path's share of the row's entry
curve; all slot curves live in one slots x steps array, numbered row-major
and in path order within a row, so each row owns a contiguous block of slots.
Index arrays give each slot its row, its path's next link row, and the path's
slot there. Link rows keep link order, so slots, merges and row totals add
the same numbers in the same order as they would with a row for every link.

Work per plan, per join and per step. A plan (one network's links, path set
and grid) is built once and kept while among the last few used, with its
batch copies and the positions of every step's lagged reads, which depend on
the step alone. A join builds the index arrays of the slots that move on and
the rows their merge inflows enter. A step is a fixed set of numpy calls over
all rows, reading curves by flat gathers: one inversion for the FIFO window
[tau0, tau1] of every row's outflow; ``np.bincount`` for merge inflows, links
before sources as in a loop over them; ``np.minimum.reduceat`` for each row's
diverge factor; one scatter to the successor slots, which never collides
because a path visits a link once; ``np.add.at`` into the existing entry
column. A slot that moved nothing adds 0.0, which changes no sum: no curve
holds -0.0.

Batch axis. ``load_batch`` steps B departure patterns of one (network, path
set, grid) together as B disjoint copies of those rows and slots: the link
rows of copies B-1, ..., 0, then the sources of copies 0, ..., B-1, each
copy's slots a block in the single-pattern order, so the first k copies
occupy one contiguous range of rows and slots. A pattern may start at
interval t from a base loading whose departures it shares before t (a
strategic forecast spliced at t shares the candidate's): it copies the
base's rows up to step t * refine and joins the lockstep pass there. Copies
are sorted by start, so each step works on the contiguous range of those
that have joined, and path times are computed for intervals from t on only.
Every pattern keeps its own drain test, tolerance and step count, and gets
exactly the result of loading it alone from step 0; ``load`` is the batch of
one. The time axis holds the boundaries stepped so far: it starts at the
horizon plus half of it, grows by half while a pattern has not drained, and
stops at the step cap. A batch whose curves would exceed a fixed byte budget
at that first size is stepped in equal chunks.

Exact sums. Results are bit-identical to a loop that sums each row's slots
with ``ndarray.sum``. ``_Segments`` is the one place that rule lives: numpy
adds fewer than 8 numbers in sequence, as ``np.bincount`` does, and 8 or
more pairwise, so its per-run totals come from ``bincount`` and runs of 8 or
more are summed again on their slice. The loader's rows and the logit's
blocks (``choice``) are both runs of it. ``_fill_sources`` keeps its own
source-row sums: they run across a non-contiguous axis, which numpy adds in
sequence, so ``_Segments`` would change their bits.

Sensitivity. The sending rule branches on an absolute backlog
``> _EPS_VEH`` (1e-12 vehicles). A last-bit change in a per-row total can
flip that branch and hold back a whole step of discharge: on a test lattice
with 20 slots per link, summing rows with ``bincount`` alone moved path
times by one whole step. Outputs therefore depend on the summation order
above, not only on the model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .network import Network, PathSet, TimeGrid

_EPS_VEH = 1e-12


class DnlError(RuntimeError):
    """Raised when loading input is infeasible or internally inconsistent."""


def check_feasible(values: np.ndarray, path_set: PathSet, demand_per_od: np.ndarray) -> None:
    """Verify per-OD totals match the class demands (membership in the feasible set).

    Entries must be finite and at least -1e-9; each OD's total must lie
    within 1e-9 of its demand, relative to the demand or to one vehicle.
    """
    if not np.isfinite(values).all():
        raise ValueError("departure matrix has non-finite entries")
    if values.min(initial=0.0) < -1e-9:
        raise ValueError("departure matrix has negative entries")
    for od_index, d in enumerate(demand_per_od):
        got = values[path_set.od_slices[od_index]].sum()
        if abs(got - d) > 1e-9 * max(1.0, d):
            raise ValueError(
                f"OD {od_index}: departures sum to {got!r}, demand is {d!r}"
            )


@dataclass
class LoadingResult:
    """Cumulative curves and path travel times of one loading."""

    grid: TimeGrid
    n_steps: int
    sim_dt_s: float
    link_up: np.ndarray  # used links x (n_steps+1), cumulative entries at sim boundaries
    link_dn: np.ndarray  # used links x (n_steps+1), cumulative exits at boundaries
    used_links: np.ndarray  # link of each row of link_up and link_dn, ascending
    n_links: int
    src_up: np.ndarray  # sources x (n_steps+1)
    src_dn: np.ndarray
    path_time: np.ndarray  # paths x T, travel time per departure interval
    extrapolated: np.ndarray  # paths x T bool, trip extended past simulation
    instant_path_time: np.ndarray | None = None  # paths x T, sums of entry-time link times
    drained: bool = True
    _state: tuple | None = field(default=None, repr=False)  # plan, departures, link slots

    @property
    def n_up(self) -> np.ndarray:
        """links x (n_steps+1), cumulative entries; zero on links no path uses."""
        return self._all_links(self.link_up)

    @property
    def n_dn(self) -> np.ndarray:
        """links x (n_steps+1), cumulative exits; zero on links no path uses."""
        return self._all_links(self.link_dn)

    def _all_links(self, rows: np.ndarray) -> np.ndarray:
        if len(rows) == self.n_links:
            return rows
        out = np.zeros((self.n_links, rows.shape[1]))
        out[self.used_links] = rows
        return out

    @property
    def boundaries(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.sim_dt_s


def link_demand_rate(n_up_lagged, n_dn_now, arrival_mass, capacity_vps, dt_s):
    """Sending flow rate of links over one step, elementwise over arrays.

    ``n_up_lagged`` is the upstream cumulative count one free-flow time ago,
    ``arrival_mass`` the flow reaching the downstream end during the step when
    no backlog is queued.
    """
    backlog = np.subtract(n_up_lagged, n_dn_now)
    queued = np.minimum(capacity_vps, backlog / dt_s)
    free = np.minimum(capacity_vps, np.maximum(arrival_mass, 0.0) / dt_s)
    return np.where(backlog > _EPS_VEH, queued, free)[()]


def link_supply_rate(n_dn_wave_lagged, n_up_now, storage_veh, capacity_vps, dt_s):
    """Receiving flow rate of links over one step, floored at zero, elementwise."""
    room = np.add(n_dn_wave_lagged, storage_veh) - n_up_now
    return np.maximum(0.0, np.minimum(capacity_vps, room / dt_s))[()]


def _positions(times, dt: float, last) -> tuple[np.ndarray, np.ndarray]:
    """Sample index and fraction of the next segment of ``times``, on samples every ``dt``.

    Times before 0 sit at sample 0, and times from sample ``last`` (per row,
    or one for all) on at fraction 1 of the segment before it.
    """
    x = np.minimum(np.maximum(times / dt, 0.0), last)
    idx = np.minimum(x.astype(np.intp), last - 1)
    return idx, x - idx


def _interp_rows(flat: np.ndarray, at, frac, hold: bool = False) -> np.ndarray:
    """Piecewise-linear values of boundary-sampled curves stored row after row in ``flat``.

    ``at`` is a row's start in ``flat`` plus a sample index, ``frac`` the
    fraction of the next segment (``_positions``); with ``hold``, fraction 1
    reads the sample itself instead of evaluating the segment there.
    """
    lo = flat[at]
    hi = flat[at + 1]
    out = lo + frac * (hi - lo)
    return np.where(frac >= 1.0, hi, out) if hold else out


def _invert_rows(curves, flat, starts, targets, dt: float, rate_beyond,
                 n) -> tuple[np.ndarray, np.ndarray]:
    """Earliest times at which non-decreasing curves reach targets, per row.

    ``curves`` holds the rows, which ``flat`` stores from ``starts`` (a
    column) on. ``targets`` is rows x targets per row, searched among the
    first ``n`` samples of each row (per row, or one for all). Targets are
    relaxed by a vanishing epsilon so that a probe carrying only numerical
    dust (logit tail masses far below one vehicle) does not wait for the
    next real cohort. Counting the samples below a target is
    ``searchsorted(side="left")`` on these curves. Beyond its last sample a
    row's curve is extended at its ``rate_beyond``; the second return flags
    targets that needed that extension.
    """
    targets = np.maximum(targets - (_EPS_VEH + _EPS_VEH * targets), 0.0)
    idx = np.minimum((curves[:, None, :] < targets[:, :, None]).sum(axis=2), n)
    beyond = idx >= n
    i = np.minimum(np.maximum(idx, 1), n - 1)
    at = starts + i
    lo = flat[at - 1]
    inside = (idx > 0) & ~beyond
    step = np.divide(targets - lo, flat[at] - lo, out=np.zeros(targets.shape), where=inside)
    out = ((i - 1) + step) * dt  # 0 where no sample is below the target
    if beyond.any():
        extended = (n - 1) * dt + (targets - flat[starts + n - 1]) / rate_beyond[:, None]
        out = np.where(beyond, extended, out)
    return out, beyond


@dataclass(frozen=True)
class _Segments:
    """Consecutive runs of a flat array, each totalled as ``ndarray.sum`` totals it.

    ``start`` holds each run's first element and ``of`` the run of every
    element. numpy adds fewer than 8 numbers in sequence, as ``np.bincount``
    does, and 8 or more pairwise, so ``sums`` takes every total from
    ``bincount`` and sums the runs of 8 or more again, each on its own row of
    element indices: ``wide`` holds (runs, element indices) per run size.
    """

    start: np.ndarray  # (runs,)
    of: np.ndarray  # (elements,)
    wide: tuple

    @classmethod
    def from_sizes(cls, size) -> _Segments:
        size = np.asarray(size, dtype=np.intp)
        start = np.cumsum(size) - size
        wide = []
        for n in sorted(set(size[size >= 8].tolist())):
            runs = np.flatnonzero(size == n)
            wide.append((runs, start[runs][:, None] + np.arange(n)))
        return cls(start, np.repeat(np.arange(len(size)), size), tuple(wide))

    def sums(self, x: np.ndarray) -> np.ndarray:
        """Per-run totals of ``x``, each bit-identical to ``x[run].sum()``."""
        out = np.bincount(self.of, weights=x, minlength=len(self.start))
        for runs, index in self.wide:
            out[runs] = x[index].sum(axis=1)
        return out

    def part(self, lo: int, hi: int) -> tuple[_Segments, slice]:
        """Runs ``lo``..``hi - 1``, re-based to start at 0, and the slice of their elements."""
        e0, e1 = (int(self.start[r]) if r < len(self.start) else len(self.of) for r in (lo, hi))
        wide = []
        for runs, index in self.wide:
            a, b = np.searchsorted(runs, (lo, hi))
            if b > a:
                wide.append((runs[a:b] - lo, index[a:b] - e0))
        return _Segments(self.start[lo:hi] - e0, self.of[e0:e1] - lo, tuple(wide)), slice(e0, e1)


def _widen(curves: np.ndarray, cols: int) -> np.ndarray:
    """``curves`` with ``cols`` columns, the new ones copies of the last."""
    out = np.empty((len(curves), cols))
    out[:, : curves.shape[1]] = curves
    out[:, curves.shape[1] :] = curves[:, -1:]
    return out


class _Plan:
    """Index arrays of one (network links, path link sequences, grid).

    Rows are the links that some path uses, in link order, then one source
    connector per distinct first link. A slot is one (row, path) pair; slots
    are numbered row-major, in path order within a row. The other links
    never carry a vehicle and get no row. ``_plan`` keeps the last few plans,
    so loads of one network share one; a plan changes only to cache more.
    """

    def __init__(self, links: tuple, seqs: tuple, grid: TimeGrid):
        self.n_links = N = len(links)
        link_ff = np.array([l.free_flow_s for l in links])
        link_cap = np.array([l.capacity_vps for l in links])
        wave_lag = np.array([l.length_m / l.backward_wave_mps for l in links])
        storage = np.array([l.storage_veh for l in links])
        # refine the internal step until every link, used or not, spans at
        # least one step
        min_ff = float(link_ff.min()) if N else grid.dt_s
        self.refine = max(1, int(np.ceil(grid.dt_s / min_ff - 1e-12)))
        self.dt = grid.dt_s / self.refine
        self.key = (links, seqs, grid)

        self.source_links = tuple(sorted({seq[0] for seq in seqs}))
        n_src = len(self.source_links)
        src_index = {a: s for s, a in enumerate(self.source_links)}
        self.src_of_path = np.array([src_index[seq[0]] for seq in seqs], dtype=np.intp)
        # (link or N + source, path) -> the path's next link, or -1 at the exit
        succ = {(N + src_index[seq[0]], p): seq[0] for p, seq in enumerate(seqs)}
        for p, seq in enumerate(seqs):
            for i, a in enumerate(seq):
                succ[a, p] = seq[i + 1] if i + 1 < len(seq) else -1
        pairs = sorted(succ)
        slot_of = {pair: j for j, pair in enumerate(pairs)}
        self.n_link_slots = L = sum(len(seq) for seq in seqs)
        slot_link = np.array([r for r, _ in pairs], dtype=np.intp)
        self.slot_path = np.array([p for _, p in pairs], dtype=np.intp)
        self.slot_dest = np.array([slot_of.get((succ[r, p], p), -1) for r, p in pairs],
                                  dtype=np.intp)

        # Rows are numbered in link order, then the sources, so slots keep
        # the order of a row for every link. row[x] is the row of link x or
        # of source x - N; its last entry, -1, maps -1 to itself.
        self.used_links = np.flatnonzero(np.bincount(slot_link[:L], minlength=N))
        self.A = A = len(self.used_links)
        self.ff, self.cap, self.wave_lag, self.storage = (
            x[self.used_links] for x in (link_ff, link_cap, wave_lag, storage))
        row = np.full(N + n_src + 1, -1, dtype=np.intp)
        row[self.used_links] = np.arange(A)
        row[N:-1] = np.arange(A, A + n_src)
        self.slot_row = row[slot_link]
        self.slot_next = row[[succ[pair] for pair in pairs]]
        self.src_links = row[list(self.source_links)]
        self.src_row_start = np.searchsorted(self.slot_row[L:], np.arange(A, A + n_src + 1))

        # row of every path at each hop, padded with -1
        hops = max((len(seq) for seq in seqs), default=0)
        path_links = np.full((len(seqs), max(hops, 1)), -1, dtype=np.intp)
        for p, seq in enumerate(seqs):
            path_links[p, : len(seq)] = seq
        self.path_rows = row[path_links]
        self._copies: dict[int, _Copies] = {}
        self._lags = (np.empty(0),)

    def copies(self, B: int) -> _Copies:
        if B not in self._copies:
            self._copies[B] = _Copies(self, B)
        return self._copies[B]

    def lags(self, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions (steps x 3 x 1 x used links) of the lagged reads of steps 0 to ``cols`` - 2.

        Step t reads entries at t*dt - ff and t*dt + dt - ff and exits at t*dt - wave_lag, none
        after t*dt <= (cols - 2) * dt, so the clamp to the last sample never binds.
        """
        if len(self._lags[0]) < cols:
            now = (np.arange(cols, dtype=float) * self.dt)[:, None]
            times = np.stack((np.minimum(now - self.ff, now),
                              np.minimum(now + self.dt - self.ff, now),
                              now - self.wave_lag), axis=1)
            self._lags = _positions(times[:, :, None, :], self.dt, cols - 1)
        return self._lags


_plan = functools.lru_cache(maxsize=8)(_Plan)


class _Copies:
    """B disjoint copies of a plan's rows and slots, stepped as one network.

    Rows are the link rows of copies B-1, ..., 1, 0, then the sources of copies
    0, 1, ..., B-1; slots are numbered row-major, so the link slots of each
    copy, and its source slots, form blocks in the plan's slot order. The
    first k copies thus hold one contiguous range of rows and one of slots,
    links before sources (``_Active``). A merge, a row total or a drain sum
    adds the same numbers in the same order as a load of one copy alone.
    """

    def __init__(self, plan: _Plan, B: int):
        A, L, n_src = plan.A, plan.n_link_slots, len(plan.source_links)
        self.B = B
        self.sizes = (A, L, n_src)
        block = np.arange(B)[:, None]  # copy j's sources are block j
        link_block = block[::-1]  # and its links block B-1-j

        def tiled(index, shift, blocks):  # per-block index arrays; -1 stays -1
            return np.where(index >= 0, index + shift * blocks, -1).ravel()

        size = np.bincount(plan.slot_row)  # slots per row: links, then sources
        self.seg = _Segments.from_sizes(np.concatenate((np.tile(size[:A], B),
                                                        np.tile(size[A:], B))))
        self.slot_next = np.concatenate((tiled(plan.slot_next[:L], A, block),
                                         tiled(plan.slot_next[L:], A, link_block)))
        self.slot_dest = np.concatenate((tiled(plan.slot_dest[:L], L, block),
                                         tiled(plan.slot_dest[L:], L, link_block)))
        self.src_links = tiled(plan.src_links, A, link_block)
        self.cap, self.storage = np.tile(plan.cap, B), np.tile(plan.storage, B)
        R = B * (A + n_src)
        self.rate_beyond = np.concatenate((self.cap, np.ones(B * n_src)))
        # samples known at step 0: a link's entries up to now, a source's one step ahead
        self.n_known = (np.arange(R) >= B * A).astype(np.intp)[:, None] + 1


class _Active:
    """The rows and slots of the first k copies, indexed from their start.

    Built once per join, with the index arrays a step over them uses.
    """

    def __init__(self, c: _Copies, k: int):
        A, L, n_src = c.sizes
        r0, r1 = (c.B - k) * A, c.B * A + k * n_src
        self.rows = slice(r0, r1)
        self.seg, self.slots = c.seg.part(r0, r1)  # each row's slots; no row is empty
        self.A, self.L = k * A, k * L
        self.R = r1 - r0
        links = slice(r0, c.B * A)
        self.cap, self.storage = c.cap[links], c.storage[links]
        self.rate_beyond = c.rate_beyond[self.rows]
        self.n_known = c.n_known[self.rows]
        nxt = c.slot_next[self.slots]
        moves = nxt >= 0  # slots whose path continues on a link
        self.next_row = np.where(moves, nxt - r0, self.A)  # A, a pad, where it ends
        self.moving = np.flatnonzero(moves)
        self.moving_dest = c.slot_dest[self.slots][self.moving] - self.slots.start
        self.link_moving = self.moving[: np.searchsorted(self.moving, self.L)]
        # merge inflows: the link slots that move, in slot order, then the sources
        self.inflow_index = np.concatenate((self.next_row[self.link_moving],
                                            c.src_links[: k * n_src] - r0))


def _step_cap(t_sim: int) -> int:
    """Steps after which a loading of ``t_sim`` departure steps stops, drained or not."""
    return t_sim + 20 * t_sim + 200


def _first_cols(t_sim: int, s_max: int) -> int:
    """Boundaries allocated up front: the horizon plus half of it to drain."""
    return min(s_max, t_sim + t_sim // 2 + 1) + 1


# Curves of one batch chunk (entries, exits and slot entries of every pattern
# at the first allocation) stay under 2 MiB; a batch over it is split into
# chunks of equal size. The step's temporaries are about as large again, so a
# batch of forecasts adds a few MB at most to the peak memory of the
# one-at-a-time loads it replaces. Larger chunks save per-step overhead but
# add memory one for one. The 30 forecasts of a 60-link, 23-path lattice with
# T = 30, whose paths use 24 of the links, take 65,424 bytes each and run as
# one chunk; with a row for every link they took 92,496 bytes and ran as two
# chunks of 15.
_CHUNK_BYTES = 2 * 2**20

# Booleans compared at once when path times count the samples below their
# targets (256 KiB): batches are timed a few patterns at a time within it.
_COUNT_CELLS = 2**18


def _pattern_bytes(plan: _Plan, grid: TimeGrid) -> int:
    """Bytes of one pattern's curves at the first allocation of the time axis."""
    t_sim = grid.n_intervals * plan.refine
    rows = 2 * (plan.A + len(plan.source_links)) + len(plan.slot_row)  # entries, exits, slots
    return 8 * rows * _first_cols(t_sim, _step_cap(t_sim))


def _departures(values, ndim: int, path_set: PathSet, grid: TimeGrid) -> np.ndarray:
    """Departures with ``ndim`` axes, the last two (paths, intervals), floored at 0."""
    h = np.asarray(values, dtype=float)
    want = (path_set.n_paths, grid.n_intervals)
    if h.ndim != ndim or h.shape[-2:] != want:
        axes = "(patterns, paths, intervals)" if ndim == 3 else "(paths, intervals)"
        raise DnlError(f"departure matrix shape {h.shape} is not {axes} ending in {want}")
    if not np.isfinite(h).all():
        raise DnlError("departures must be finite")
    if h.min(initial=0.0) < -1e-9:
        raise DnlError("negative departures")
    return np.maximum(h, 0.0)


def load(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    departures: np.ndarray,
    *,
    compute_link_times: bool = True,
) -> LoadingResult:
    """Map total path departures to path travel times.

    A batch of one of the stepper behind ``load_batch``. Deterministic:
    identical inputs give bit-identical results. With ``compute_link_times``,
    ``instant_path_time`` sums each path's link times for entry at each
    interval start. ``link_up`` and ``link_dn`` are views of arrays with up
    to half as many columns again as the loading used; ``n_up`` and ``n_dn``
    are those curves themselves when every link is on a path, and otherwise
    new arrays, with zero rows for the other links, on each access. The
    result keeps its slot curves, so it can serve as the base of a
    ``load_batch`` whose patterns start after interval 0.
    """
    h = _departures(departures, 2, path_set, grid)
    plan = _plan(net.links, path_set.link_seq, grid)
    res = _step(plan, grid, h[None], np.zeros(1, dtype=np.intp))[0]
    if compute_link_times:
        link_time = _link_times(plan, grid, res.link_up, res.link_dn)
        res.instant_path_time = np.zeros(h.shape)
        for hop in plan.path_rows.T:
            on = hop >= 0
            res.instant_path_time[on] += link_time[hop[on]]
    return res


def load_batch(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    departures: np.ndarray,
    *,
    base: LoadingResult | None = None,
    starts=None,
) -> list[LoadingResult]:
    """Load B departure patterns, ``departures[B, P, T]``, in one pass.

    The patterns step forward together on disjoint copies of the network;
    each keeps its own drain test and step count. Pattern b starts at
    interval ``starts[b]`` (default 0): it must have the departures of
    ``base``, a loading of the same network, path set and grid, before that
    interval, takes the base's curves up to there and is stepped from there
    on. Its curves, step count and drain flag are bit-identical to ``load``
    of that pattern alone, and so are its path times from its start on;
    ``path_time`` is NaN (and ``extrapolated`` False) before it, and
    ``instant_path_time`` is None. Large batches are
    stepped in chunks whose curves stay under a fixed byte budget.

    The ``link_up``, ``link_dn``, ``src_up`` and ``src_dn`` curves of a
    result are views into arrays shared by its whole chunk, so a result kept
    alive keeps the curves of every pattern of its chunk; copy what is kept.
    ``n_up`` and ``n_dn`` are built from them on access, as for ``load``.
    """
    h = _departures(departures, 3, path_set, grid)
    B, _, T = h.shape
    starts = np.zeros(B, dtype=np.intp) if starts is None else np.asarray(starts)
    if starts.shape != (B,) or (B and (starts.dtype.kind not in "iu"
                                       or starts.min() < 0 or starts.max() >= T)):
        raise DnlError(f"starts must be {B} intervals in [0, {T})")
    if base is None:
        if starts.any():
            raise DnlError("patterns that start after interval 0 need a base loading")
        plan = _plan(net.links, path_set.link_seq, grid)
    else:
        if base._state is None:
            raise DnlError("base loading carries no loader state")
        plan, base_h, _ = base._state
        if plan.key != (net.links, path_set.link_seq, grid):
            raise DnlError("base was loaded on another network, path set or grid")
        before = np.arange(T) < starts[:, None]
        if np.any((h != base_h) & before[:, None, :]):
            raise DnlError("a pattern has other departures than the base before its start")
    if not B:
        return []
    order = np.argsort(starts, kind="stable")
    chunks = -(-B // max(1, _CHUNK_BYTES // _pattern_bytes(plan, grid)))
    results: list[LoadingResult] = [None] * B
    for part in np.array_split(order, chunks):
        for b, res in zip(part, _step(plan, grid, h[part], starts[part], base)):
            results[b] = res
    return results


def _fill_sources(plan: _Plan, h: np.ndarray, src_slots: np.ndarray, src_rows: np.ndarray) -> None:
    """Write the source entry curves of the patterns ``h[B, P, T]``.

    They are exogenous, so known for the whole horizon up front; departures
    ramp linearly inside each departure interval. ``src_slots`` and
    ``src_rows`` are the source slots and source rows of a batch.
    """
    B, _, T = h.shape
    refine = plan.refine
    t_sim = T * refine
    h_cum = np.concatenate([np.zeros((B, h.shape[1], 1)), np.cumsum(h, axis=2)], axis=2)
    rows = h_cum[:, plan.slot_path[plan.n_link_slots :]].reshape(-1, T + 1)
    src_slots[:, : t_sim + 1 : refine] = rows
    fine = np.linspace(0.0, 1.0, refine + 1)[1:-1] if refine > 1 else np.empty(0)
    for j, frac in enumerate(fine, start=1):
        src_slots[:, j : t_sim + 1 : refine] = rows[:, :-1] + frac * np.diff(rows, axis=1)
    src_slots[:, t_sim + 1 :] = rows[:, -1:]
    cols = src_slots.shape[1]
    per_copy = src_slots.reshape(B, -1, cols)
    per_row = src_rows.reshape(B, -1, cols)
    start = plan.src_row_start
    for s in range(len(start) - 1):
        per_row[:, s] = per_copy[:, start[s] : start[s + 1]].sum(axis=1)


def _step(
    plan: _Plan,
    grid: TimeGrid,
    h: np.ndarray,
    starts: np.ndarray,
    base: LoadingResult | None = None,
) -> list[LoadingResult]:
    """Step the patterns ``h[B, P, T]`` together; one result per pattern.

    ``starts`` is ascending. Pattern b takes the base's curves up to step
    ``starts[b] * refine`` and joins the pass there; until then its copy is
    not stepped. A drained pattern's result ends at its own step; the copy
    of it that is stepped on with the rest is never read past there. A
    batch of one keeps its link slot curves, so its result can serve as a
    base.
    """
    B, P, T = h.shape

    c = plan.copies(B)
    A1, L1, n_src = c.sizes
    AB, LB = B * A1, B * L1
    refine = plan.refine
    dt = plan.dt
    t_sim = T * refine
    s_max = _step_cap(t_sim)
    cols = _first_cols(t_sim, s_max)

    # cumulative entries and exits of every row, entries of every slot
    up = np.zeros((len(c.rate_beyond), cols))
    dn = np.zeros((len(c.rate_beyond), cols))
    slots = np.zeros((len(c.seg.of), cols))

    _fill_sources(plan, h, slots[LB:], up[AB:])

    joins = starts * refine
    k = int(joins[-1]) + 1  # boundaries up to the last join, taken from the base
    if k > 1:
        base_slots = base._state[2]
        for rows, curves in ((up[:AB], base.link_up), (dn[:AB], base.link_dn),
                             (dn[AB:], base.src_dn), (slots[:LB], base_slots)):
            # columns past a copy's own join are rewritten before it reads them
            rows.reshape(B, -1, cols)[:, :, :k] = curves[:, :k]

    drain_tol = np.array([1e-9 * max(1.0, float(x.sum())) for x in h])
    n_steps = np.full(B, s_max)
    drained = np.zeros(B, dtype=bool)
    joined = 0
    for t in range(int(joins[0]), s_max):
        stale = t + 2 > cols  # views of the curves to take again
        if stale:
            cols = min(s_max + 1, cols + cols // 2)
            up, dn, slots = (_widen(x, cols) for x in (up, dn, slots))
        if joined < B and joins[joined] <= t:
            joined = int(np.searchsorted(joins, t, side="right"))
            act = _Active(c, joined)
            A, L, R, seg = act.A, act.L, act.R, act.seg
            stale = True
        if stale:
            u, d, s = up[act.rows], dn[act.rows], slots[act.slots]
            n_up, src_up, n_dn, src_dn = u[:A], u[A:], d[:A], d[A:]
            # the same rows stored row after row, each row's start there
            u_flat, d_flat, s_flat = u.reshape(-1), d.reshape(-1), s.reshape(-1)
            row_at, slot_at = (np.arange(0, x.size, cols)[:, None] for x in (u, s))
            link_at = row_at[:A].reshape(-1, plan.A)  # copies x the plan's link rows
            lag_idx, lag_frac = plan.lags(cols)
        n_up[:, t + 1] = n_up[:, t]
        d[:, t + 1] = d[:, t]
        s[:L, t + 1] = s[:L, t]

        # lagged reads: entries a free-flow time before the step's ends, exits a wave time ago
        at, frac = link_at + lag_idx[t], lag_frac[t]
        nup_lag, arr_hi = _interp_rows(u_flat, at[:2], frac[:2]).reshape(2, A)
        ndn_wave = _interp_rows(d_flat, at[2], frac[2]).reshape(A)

        # sending masses: links by the demand rule, sources all that entered
        ndn_now = n_dn[:, t]
        mass = np.concatenate((
            link_demand_rate(nup_lag, ndn_now, arr_hi - nup_lag, act.cap, dt) * dt,
            src_up[:, t + 1] - src_dn[:, t]))
        sends = mass > _EPS_VEH  # tested before the clamp to what has arrived
        bound = np.where(nup_lag - ndn_now > _EPS_VEH, nup_lag, arr_hi) - ndn_now
        np.minimum(mass[:A], bound, out=mass[:A])
        mass = np.where(sends, mass, 0.0)

        # FIFO: the mass leaving a row entered it during [tau0, tau1]; each
        # slot's entries over that window, scaled to the mass, leave with it
        window = np.empty((R, 2))
        window[:, 0] = d[:, t]
        np.add(d[:, t], mass, out=window[:, 1])
        tau, _ = _invert_rows(u[:, : t + 2], u_flat, row_at, window, dt, act.rate_beyond,
                              act.n_known + t)
        idx, frac = _positions(tau[seg.of], dt, t + 1)
        ends = _interp_rows(s_flat, slot_at + idx, frac, hold=True)
        comp = np.maximum(ends[:, 1] - ends[:, 0], 0.0)
        total = seg.sums(comp)
        comp *= np.divide(mass, total, out=np.ones(R), where=total > 0.0)[seg.of]

        # receiving masses; merges scale inflows to supply
        recv_mass = link_supply_rate(ndn_wave, n_up[:, t], act.storage, act.cap, dt) * dt
        inflow_demand = np.bincount(act.inflow_index,
                                    np.concatenate((comp[act.link_moving], mass[A:])), minlength=A)
        factor = np.ones(A + 1)  # and 1 for slots whose path ends
        np.divide(recv_mass, inflow_demand, out=factor[:A], where=inflow_demand > recv_mass)

        # diverges scale a row's whole outflow by its most restrictive factor
        theta = np.minimum.reduceat(np.where(comp > 0.0, factor[act.next_row], 1.0), seg.start)
        out = comp * theta[seg.of]
        total = seg.sums(out)
        d[:, t + 1] += total

        # transfer to each path's slot on its next link (never collides); each
        # inflow is added to the entry column in turn, as a loop does (a sum
        # added at once rounds otherwise), a source's total in one addition
        s[:, t + 1][act.moving_dest] += out[act.moving]
        np.add.at(n_up[:, t + 1], act.inflow_index,
                  np.concatenate((out[act.link_moving], total[A:])))

        if t + 1 >= t_sim:  # every copy has joined
            done = _stored(plan, u[:, t + 1] - d[:, t + 1], B) <= drain_tol
            if done.any():
                n_steps[done & ~drained] = t + 1
                drained |= done
                if drained.all():
                    break

    S_end = int(n_steps.max())  # every pattern was stepped this far
    path_time = np.full((B, P, T), np.nan)
    extrapolated = np.zeros((B, P, T), dtype=bool)
    lo = 0
    while lo < B:
        # a few patterns at a time, so no temporary outgrows the curves; each
        # is timed from the earliest start among them, kept from its own
        t0 = int(starts[lo])
        hi = min(B, lo + max(1, _COUNT_CELLS // max(1, P * (T - t0) * (S_end + 1))))
        times, flags = _path_times(plan, grid, dt, up, dn, n_steps, np.arange(lo, hi), t0)
        timed = np.arange(t0, T) >= starts[lo:hi, None, None]
        np.copyto(path_time[lo:hi, :, t0:], times, where=timed)
        np.copyto(extrapolated[lo:hi, :, t0:], flags, where=timed)
        lo = hi

    results = []
    for j, S in enumerate(n_steps.tolist()):
        links = slice((B - 1 - j) * A1, (B - j) * A1)
        sources = slice(AB + j * n_src, AB + (j + 1) * n_src)
        results.append(LoadingResult(
            grid=grid,
            n_steps=S,
            sim_dt_s=dt,
            link_up=up[links, : S + 1],
            link_dn=dn[links, : S + 1],
            used_links=plan.used_links,
            n_links=plan.n_links,
            src_up=up[sources, : S + 1],
            src_dn=dn[sources, : S + 1],
            path_time=path_time[j],
            extrapolated=extrapolated[j],
            drained=bool(drained[j]),
            _state=(plan, h[j], slots[:L1, : S + 1]) if B == 1 else None,
        ))
    return results


def _stored(plan: _Plan, inside: np.ndarray, B: int) -> np.ndarray:
    """Vehicles stored in each of B patterns; ``inside`` is entries minus exits per row.

    A pattern's links are summed over all links in link order, with zeros on
    the links that have no row, as with a row for every link. Summing only
    the rows would not give the same total: numpy adds 8 or more numbers
    pairwise, in partial sums picked by position, so where a number sits
    changes the rounding, and a last-bit change can move the step at which a
    pattern drains. With every link on a path the rows are that layout
    already, and no array is built.
    """
    on_links = inside[: B * plan.A].reshape(B, -1)
    if plan.A < plan.n_links:
        every_link = np.zeros((B, plan.n_links))
        every_link[:, plan.used_links] = on_links
        on_links = every_link
    return on_links.sum(axis=1)[::-1] + inside[B * plan.A :].reshape(B, -1).sum(axis=1)


def _link_times(plan: _Plan, grid: TimeGrid, link_up, link_dn) -> np.ndarray:
    """Travel time for entry at each departure-interval boundary, per used link row."""
    times = grid.interval_starts()
    up, dn = np.ascontiguousarray(link_up), np.ascontiguousarray(link_dn)
    at = np.arange(0, up.size, up.shape[1])[:, None]  # each row's start in the flat curves
    idx, frac = _positions(times, plan.dt, up.shape[1] - 1)
    entries = _interp_rows(up.reshape(-1), at + idx, frac)
    exit_t = np.empty_like(entries)
    # at most as many links per inversion as there are paths, so its
    # temporary stays within the paths x T x steps of _path_times
    chunk = max(1, len(plan.path_rows))
    for lo in range(0, plan.A, chunk):
        rows = slice(lo, lo + chunk)
        exit_t[rows] = _invert_rows(dn[rows], dn.reshape(-1), at[rows], entries[rows], plan.dt,
                                    plan.cap[rows], dn.shape[1])[0]
    return np.maximum(plan.ff[:, None], exit_t - times)


def _path_times(
    plan: _Plan, grid: TimeGrid, sim_dt: float, up, dn, n_steps, copies, t0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Chain FIFO exit times through source and links, per departure interval.

    The probe for interval t is the cohort's median vehicle: it departs at the
    interval midpoint with half of its own column ahead of it, so a column
    feels the queue it builds itself. ``up`` and ``dn`` hold the rows of a
    batch in the layout of ``_Copies`` (C-contiguous, with columns past the
    last step), and pattern b's curves end at its own step ``n_steps[b]``;
    the results are copies x paths x intervals t0 on.
    """
    A1, n_src, P = plan.A, len(plan.source_links), len(plan.path_rows)
    B, k = len(up) // (A1 + n_src), len(copies)
    cols, width = up.shape[1], int(n_steps.max()) + 1  # every row was stepped this far
    hops = np.tile(plan.path_rows, (k, 1))  # link row of each (pattern, path) per hop
    first_row = np.repeat(A1 * (B - 1 - copies), P)  # each pattern's first link row
    n = np.repeat(n_steps[copies] + 1, P)[:, None]  # samples per row
    last = n - 1
    mids = grid.interval_mids()[t0:]
    src = B * A1 + np.repeat(n_src * copies, P) + np.tile(plan.src_of_path, k)
    at = src[:, None] * cols
    idx, frac = _positions(mids, sim_dt, last)
    counts = _interp_rows(up.reshape(-1), at + idx, frac)
    clock, flagged = _invert_rows(dn[src, :width], dn.reshape(-1), at, counts, sim_dt,
                                  plan.cap[hops[:, 0]], n)
    clock = np.maximum(clock, mids)
    for hop in hops.T:
        on = hop >= 0
        a = hop[on]
        row = first_row[on] + a
        at = row[:, None] * cols
        idx, frac = _positions(clock[on], sim_dt, last[on])
        counts = _interp_rows(up.reshape(-1), at + idx, frac)
        exit_t, beyond = _invert_rows(dn[row, :width], dn.reshape(-1), at, counts, sim_dt,
                                      plan.cap[a], n[on])
        clock[on] = np.maximum(clock[on] + plan.ff[a][:, None], exit_t)
        flagged[on] |= beyond
    return (clock - mids).reshape(k, P, -1), flagged.reshape(k, P, -1)
