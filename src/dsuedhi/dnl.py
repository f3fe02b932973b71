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
horizon's steps plus 200 to drain; tests lower it by patching that function.

When some link's free-flow time is shorter than the departure interval, the
loader refines its internal step until every link some path uses spans at
least one step, so sub-interval traversal stays exact whenever free-flow times
divide the interval; departures, probes, and reported travel times remain on
the departure grid. Links that no path uses do not set the step.

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

Work per plan and per step. A plan (one network's links, path set and grid)
is built once and kept while among the last few used. The time loop and the
read-out of travel times are C functions in ``dnl_step.c``, which states how
they go, compiled on first use with the C compiler Python was built with and
cached on disk (``_kernel``). A cell's probe, the cohort's median vehicle,
departs at the interval midpoint with half of its own column ahead of it, so
a column feels the queue it builds itself, and passes its path's rows
through the prefix trie of their row sequences (``_trie``); a load's link
times are read out as paths of one row each (``dnl_path_times``).

Arguments. What stays the same from call to call reaches the kernel in
argument blocks (``_Block``), C structs of pointers and sizes, each filled
and checked once, when its owner is built: a plan's ``plan_t``, which holds
the read-out of its paths, the ``readout_t`` of its link rows, and a share
table's ``layout_t`` (``choice._Layout``). A call passes a block's address
and only its own arrays, which ``_arg`` checks every time.

Batch axis. ``load_batch`` loads B departure patterns of one (network, path
set, grid) one after another through one block of curves, the plan's rows
and slots. Each pattern starts at an interval t from a base loading and has
the base's departures before t (a forecast spliced at t has the
candidate's): the kernel splices them with the pattern's own from t on,
checks them and floors them at zero, so no cell of the pattern before t is
read. It copies the base's curves up to step t * refine and steps from there
on its own, with its own drain test and step count, until it drains or
reaches the step cap; starts may come in any order. Its path times
from t on are read out into one (patterns, paths, intervals) array before
the next pattern takes the block, and are exactly those of loading it alone
from step 0; ``load`` is the batch of one, and its block is its curves. The
block has the horizon plus half of it in columns. A pattern that outgrows
them stops the kernel; Python allocates a block half as wide again, for the
patterns after too, and that pattern begins again in it from its start. A
batch keeps only its path times, step counts and drain flags, so its memory
is one pattern's curves whatever B is.

Exact sums. Results are bit-identical to a loop that sums each row's slots
with ``ndarray.sum``. The kernel is compiled with -ffp-contract=off and
without fast-math, so every operation rounds once, as in numpy, and each sum
mirrors the numpy call it stands for. Merge inflows add in sequence, in slot
order, links before sources, as ``np.bincount`` does, and each is added to
the entry column in turn, a source's total in one addition, as ``np.add.at``
does. Row totals and the drain sum (a copy's rows: used links in link order,
then the sources) are ``ndarray.sum``, 0.0 plus numpy's pairwise sum, whose
order ``dnl_step.c`` states once. The rest of the package sums in that order
only through the kernel: ``choice`` totals its logit blocks, assigned
blocks (``dnl_assign``) and the prefixes of a departure history
(``dnl_remaining``) there. A source's entry curve is 0.0 plus its slots'
curves in sequence, as numpy sums a (slots, columns) block over its slots.

Sensitivity. The sending rule branches on an absolute backlog ``> EPS_VEH``
(1e-12 vehicles, defined in ``dnl_step.c``). A last-bit change in a per-row
total can flip that branch and hold back a whole step of discharge: on a test
lattice with 20 slots per link, summing rows with ``bincount`` alone moved
path times by one whole step. Outputs therefore depend on the summation order
above, not only on the model.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import HashedLinks, Network, PathSet, TimeGrid

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
            raise ValueError(f"OD {od_index}: departures sum to {got!r}, demand is {d!r}")


@dataclass
class LoadingResult:
    """Cumulative curves and path travel times of one loading (``load``)."""

    grid: TimeGrid
    n_steps: int
    sim_dt_s: float
    link_up: np.ndarray  # used links x (n_steps+1), cumulative entries at sim boundaries
    link_dn: np.ndarray  # used links x (n_steps+1), cumulative exits at boundaries
    src_up: np.ndarray  # sources x (n_steps+1)
    src_dn: np.ndarray
    path_time: np.ndarray  # paths x T, travel time per departure interval
    extrapolated: np.ndarray  # paths x T bool, trip extended past simulation
    drained: bool
    _state: tuple = field(repr=False)  # plan, departures as given, block (up, dn, slots): a base
    instant_path_time: np.ndarray | None = None  # paths x T, sums of entry-time link times

    @property
    def n_up(self) -> np.ndarray:
        """links x (n_steps+1), cumulative entries; zero on links no path uses."""
        return self._all_links(self.link_up)

    @property
    def n_dn(self) -> np.ndarray:
        """links x (n_steps+1), cumulative exits; zero on links no path uses."""
        return self._all_links(self.link_dn)

    def _all_links(self, rows: np.ndarray) -> np.ndarray:
        plan = self._state[0]
        if len(rows) == plan.n_links:
            return rows
        out = np.zeros((plan.n_links, rows.shape[1]))
        out[plan.used_links] = rows
        return out

    @property
    def boundaries(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.sim_dt_s


_PTR, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


def _fields(pointers: str, sizes: str, *more) -> list:
    """``_fields_`` of a ``_Block``: the named pointers, int64 sizes, then ``more``."""
    return [(name, _PTR) for name in pointers.split()] + [
        (name, _I64) for name in sizes.split()] + list(more)


class _Block(ctypes.Structure):
    """An argument block of the kernel: arrays that stay the same from call to call, then sizes.

    Built from the (array, dtype, length) of each pointer field, in the C
    struct's order, then the other fields. Each array is checked by ``_arg``
    once, here, made read-only and kept alive in ``arrays``, with those of a
    block it holds. ``ptr`` is the block's address.
    """

    def __init__(self, arrays, *fields):
        super().__init__(*(_arg(x, dtype, (n,)) for x, dtype, n in arrays), *fields)
        self.arrays = [x for x, _, _ in arrays] + [
            x for f in fields if isinstance(f, _Block) for x in f.arrays]
        for x in self.arrays:
            x.flags.writeable = False
        self.ptr = ctypes.addressof(self)


class _ReadOut(_Block):
    """``readout_t``: the prefix ``trie`` (``_trie``) of the row sequences ``path_rows``.

    With the R rows' free-flow times and capacities, the cells' departure
    ``times`` and the sample step; the kernel indexes by the trie unchecked.
    """

    _fields_ = _fields("node_row node_parent path_end row_ff row_cap times", "K P T",
                       ("dt", _F64))

    def __init__(self, path_rows, row_ff, row_cap, times, dt: float):
        self.trie, self.R = _trie(path_rows), len(row_ff)
        _check_trie(self.trie, path_rows, self.R)
        (K, _, P), T = map(len, self.trie), len(times)
        super().__init__([*zip(self.trie, [np.int64] * 3, (K, K, P)), (row_ff, np.float64, self.R),
                          (row_cap, np.float64, self.R), (times, np.float64, T)], K, P, T, dt)


class _PlanBlock(_Block):
    """``plan_t``: a ``_Plan``'s index arrays and link parameters, for ``dnl_step``."""

    _fields_ = _fields("row_start slot_next slot_dest src_link src_path ff cap wave_lag storage "
                       "frac", "A R L S refine", ("dt", _F64), ("paths", _ReadOut))


class _Plan:
    """Index arrays of one (network links, path link sequences, grid).

    Rows are the links that some path uses, in link order, then one source
    connector per distinct first link. A slot is one (row, path) pair; slots
    are numbered row-major, in path order within a row. The other links get
    no row, and the plan reads none of their parameters, so the refine
    factor is set by the used links alone. ``_plan`` keeps the last few
    plans, looked up by the network's ``plan_key``, whose hash is computed
    once: a load hashes no link. The kernel reads a plan through ``block``
    (``plan_t``), which holds ``paths``, the read-out of the paths' times at
    the interval midpoints; ``links`` reads each link row alone at the
    interval starts.
    """

    def __init__(self, links: tuple, seqs: tuple, grid: TimeGrid):
        self.n_links = len(links)
        self.used_links = np.array(sorted({a for seq in seqs for a in seq}), dtype=np.intp)
        self.source_links = tuple(sorted({seq[0] for seq in seqs}))
        self.A = A = len(self.used_links)
        n_src = len(self.source_links)
        used = [links[a] for a in self.used_links.tolist()]
        self.ff, self.cap, self.wave_lag, self.storage = np.array(
            [(l.free_flow_s, l.capacity_vps, l.length_m / l.backward_wave_mps, l.storage_veh)
             for l in used], dtype=float).reshape(-1, 4).T.copy()
        # refine the internal step until every link some path uses spans at
        # least one step
        min_ff = float(self.ff.min()) if A else grid.dt_s
        self.refine = max(1, int(np.ceil(grid.dt_s / min_ff - 1e-12)))
        self.dt = grid.dt_s / self.refine

        # each path's rows, its source first; (row, path) -> the path's next
        # row, or -1 at its exit; slots are these pairs in order
        rows_of = [[A + self.source_links.index(seq[0]),
                    *np.searchsorted(self.used_links, seq).tolist()] for seq in seqs]
        succ = {(r, p): n for p, rows in enumerate(rows_of) for r, n in zip(rows, rows[1:] + [-1])}
        pairs = sorted(succ)
        slot_of = {pair: j for j, pair in enumerate(pairs)}
        self.slot_row, self.slot_path = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
        self.slot_next = np.array([succ[pair] for pair in pairs], dtype=np.intp)
        self.slot_dest = np.array([slot_of.get((succ[r, p], p), -1) for r, p in pairs],
                                  dtype=np.intp)
        self.src_links = np.searchsorted(self.used_links, self.source_links)
        size = np.bincount(self.slot_row, minlength=A + n_src)  # slots per row
        row_start = np.concatenate(([0], np.cumsum(size)))
        self.n_link_slots = L = int(row_start[A])

        # the rows padded with -1; path times take a source as free-flow time
        # 0 and its first link's capacity
        self.path_rows = np.full((len(seqs), max(map(len, rows_of), default=1)), -1, dtype=np.intp)
        for p, rows in enumerate(rows_of):
            self.path_rows[p, : len(rows)] = rows
        self.row_ff = np.concatenate((self.ff, np.zeros(n_src)))
        self.row_cap = np.concatenate((self.cap, self.cap[self.src_links]))

        # the kernel reads these arrays, read-only from here on, through its blocks
        R, S, i64, f64 = A + n_src, len(pairs), np.int64, np.float64
        self.links = _ReadOut(np.arange(A)[:, None], np.zeros(A), self.cap,
                              grid.interval_starts(), self.dt)
        self.paths = _ReadOut(self.path_rows, self.row_ff, self.row_cap, grid.interval_mids(),
                              self.dt)
        self.block = _PlanBlock(
            [(row_start, i64, R + 1), (self.slot_next, i64, S), (self.slot_dest, i64, S),
             (self.src_links, i64, n_src), (self.slot_path[L:], i64, S - L),
             *((x, f64, A) for x in (self.ff, self.cap, self.wave_lag, self.storage)),
             (np.linspace(0.0, 1.0, self.refine + 1), f64, self.refine + 1)],
            A, R, L, S, self.refine, self.dt, self.paths)


@functools.lru_cache(maxsize=8)
def _plan(key: HashedLinks, seqs: tuple, grid: TimeGrid) -> _Plan:
    """The ``_Plan`` of ``key.links``; the key's hash is computed once per network."""
    return _Plan(key.links, seqs, grid)


def _trie(path_rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The prefix trie of the row sequences ``path_rows[P, hops]``, padded with -1.

    Returns ``node_row`` and ``node_parent`` of each node (-1: entered at
    departure; parents before children) and each path's end node
    ``path_end``, inner for a path that is a prefix of another.
    """
    nodes: dict[tuple[int, int], int] = {}  # (parent, row) -> node
    path_end = []
    for rows in path_rows.tolist():
        node = -1
        for r in rows:
            if r >= 0:
                node = nodes.setdefault((node, r), len(nodes))
        path_end.append(node)
    node_parent, node_row = np.array(list(nodes), dtype=np.int64).reshape(-1, 2).T.copy()
    return node_row, node_parent, np.array(path_end, dtype=np.int64)


def _check_trie(trie: tuple[np.ndarray, ...], path_rows: np.ndarray, R: int) -> None:
    """Raise ``DnlError`` unless ``trie`` (``_trie``) is one the read-out kernel may index.

    Each parent precedes its node, each row is in [0, R), and each path's end
    node chains back through exactly that path's rows.
    """
    node_row, node_parent, path_end = trie
    K = len(node_row)
    if len(node_parent) != K or not ((-1 <= node_parent) & (node_parent < np.arange(K))).all():
        raise DnlError("a prefix trie node does not come after its parent")
    if not ((0 <= node_row) & (node_row < R)).all():
        raise DnlError(f"a prefix trie node's row is outside [0, {R})")
    if len(path_end) != len(path_rows):
        raise DnlError(f"the prefix trie ends {len(path_end)} paths, not {len(path_rows)}")
    for p, (end, rows) in enumerate(zip(path_end.tolist(), path_rows.tolist())):
        chain = []
        if not 0 <= end < K:
            raise DnlError(f"path {p} ends at node {end}, outside [0, {K})")
        while end >= 0:
            chain.append(int(node_row[end]))
            end = int(node_parent[end])
        if chain[::-1] != [r for r in rows if r >= 0]:
            raise DnlError(f"path {p}'s prefix trie rows {chain[::-1]} are not its rows")


def _step_cap(t_sim: int) -> int:
    """Steps after which a loading of ``t_sim`` departure steps stops, drained or not."""
    return t_sim + 20 * t_sim + 200


def _first_cols(t_sim: int, s_max: int) -> int:
    """Boundaries allocated up front: the horizon plus half of it to drain."""
    return min(s_max, t_sim + t_sim // 2 + 1) + 1


def _departures(values, shape: tuple, axes: str) -> np.ndarray:
    """``values`` as a C-contiguous float array; ``DnlError`` unless of ``shape``.

    The kernel checks them and floors them at zero (``dnl_step``).
    """
    h = np.asarray(values, dtype=float, order="C")
    if h.shape != shape:
        raise DnlError(f"departure matrix shape {h.shape} is not {axes} {shape}")
    return h


def load(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    departures: np.ndarray,
    *,
    compute_link_times: bool = True,
) -> LoadingResult:
    """Map total path departures to path travel times.

    A batch of one of the stepper behind ``load_batch``; identical inputs
    give bit-identical results. Departures that are not finite raise
    ``DnlError``, then any below -1e-9; the rest are floored at zero. With
    ``compute_link_times``,
    ``instant_path_time`` sums each path's link times for entry at each
    interval start, hop by hop; without, it is None. ``link_up`` and
    ``link_dn`` are views of the block the loading ran its course in, which
    has up to half as many columns again as it used; ``n_up`` and ``n_dn``
    are those curves themselves when every link is on a path, and otherwise
    new arrays with zero rows for the other links. The result keeps its slot
    curves, to be a ``load_batch`` base.
    """
    # a copy: the result keeps it, as a batch base's departures
    h = _departures(departures, (path_set.n_paths, grid.n_intervals), "(paths, intervals)")
    h = h.copy()[None]
    plan = _plan(net.plan_key, path_set.link_seq, grid)
    path_time, extrapolated = np.empty(h.shape), np.empty(h.shape, dtype=bool)
    up, dn, slots, n_steps, drained = _step(plan, h, np.zeros(1, dtype=np.int64), path_time,
                                            extrapolated)
    A, S = plan.A, int(n_steps[0])
    res = LoadingResult(
        grid=grid, n_steps=S, sim_dt_s=plan.dt,
        link_up=up[:A, : S + 1], link_dn=dn[:A, : S + 1], src_up=up[A:, : S + 1],
        src_dn=dn[A:, : S + 1], path_time=path_time[0], extrapolated=extrapolated[0],
        drained=bool(drained[0]), _state=(plan, h[0], up, dn, slots),
    )
    if compute_link_times:
        # a hop past a path's end reads the zero row; cumsum adds the hops in
        # sequence whatever the shape, where sum would add them pairwise when
        # T = 1, and 0.0 leaves a positive link time sum unchanged
        link_time = _link_times(res)
        hop_times = np.vstack((link_time, np.zeros(grid.n_intervals)))[plan.path_rows[:, 1:]]
        res.instant_path_time = hop_times.cumsum(axis=1)[:, -1]
    return res


@dataclass
class BatchResult:
    """Path times of the patterns of one ``load_batch``, each timed from its own start."""

    path_time: np.ndarray  # patterns x paths x T, NaN before each pattern's start
    extrapolated: np.ndarray  # patterns x paths x T bool, False before each pattern's start
    n_steps: np.ndarray  # (patterns,) steps each pattern took
    drained: np.ndarray  # (patterns,) bool, whether each pattern drained before the step cap


def load_batch(base: LoadingResult, departures: np.ndarray, starts) -> BatchResult:
    """Load B patterns that follow ``base``, each from its own start.

    ``base`` is a ``load`` result; the batch has its network, path set and
    grid. ``starts`` holds B intervals in [0, T), in any order (one outside
    raises ``DnlError``). Pattern b is the base's departures before interval
    ``starts[b]`` and ``departures[b, P, T]`` from there on: the cells of
    ``departures`` before each start are not read. Each pattern's step
    count, drain flag and path times from its start on are bit-identical to
    ``load`` of that pattern alone; only these are kept. A departure of some
    pattern that is not finite raises ``DnlError`` before one below -1e-9
    does, as in ``load``.
    """
    plan, base_h = base._state[:2]
    starts = np.asarray(starts)
    if starts.ndim != 1 or (len(starts) and starts.dtype.kind not in "iu"):
        raise DnlError("starts must be a 1-D array of integer intervals")
    h = _departures(departures, (len(starts), *base_h.shape), "(patterns, paths, intervals)")
    path_time, extrapolated = np.full(h.shape, np.nan), np.zeros(h.shape, dtype=bool)
    n_steps, drained = _step(plan, h, starts.astype(np.int64), path_time, extrapolated, base)[3:]
    return BatchResult(path_time, extrapolated, n_steps, drained)


_KERNEL_SOURCE = Path(__file__).with_name("dnl_step.c")


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/dsuedhi`` or ``~/.cache/dsuedhi``; a new private one if unwritable."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "dsuedhi")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
    except OSError:
        pass
    return path if os.access(path, os.W_OK | os.X_OK) else tempfile.mkdtemp(prefix="dsuedhi-")


def _library(cc: list[str]) -> str:
    """Path of the step kernel built by the compiler command ``cc``, built on first use.

    The file name carries the CRC-32 of the source and the command, so a
    cached library is reused until either changes. It is built under a
    temporary name and moved into place, so no reader sees a partial file.
    """
    source = _KERNEL_SOURCE.read_bytes()
    command = [*cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off"]
    directory = _cache_dir()
    key = zlib.crc32(source + shlex.join(command).encode())
    path = os.path.join(directory, f"dnl_step-{key:08x}.so")
    if os.path.exists(path):
        return path
    import subprocess  # only to build

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    command += ["-o", tmp, str(_KERNEL_SOURCE)]
    try:
        try:
            run = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise DnlError(f"building the step kernel failed: {shlex.join(command)}\n{exc}"
                           ) from None
        if run.returncode:
            raise DnlError(f"building the step kernel failed (exit {run.returncode}): "
                           f"{shlex.join(command)}\n{run.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


@functools.cache
def _kernel() -> ctypes.CDLL:
    """The step kernel (``dnl_step.c``), built with the C compiler Python was built with."""
    lib = ctypes.CDLL(_library(shlex.split(sysconfig.get_config_var("CC") or "cc")))
    ptr, i64, f64 = _PTR, _I64, _F64  # an argument block is a pointer
    for name, argtypes in (
            ("dnl_step", [ptr, i64] + [ptr] * 6 + [i64] * 3 + [ptr] * 3 + [i64] + [ptr] * 4),
            ("dnl_path_times", [ptr, i64, i64] + [ptr] * 4),
            ("dnl_logit_exponents", [ptr, ptr, i64, i64, ptr, i64] + [f64] * 4 + [ptr, ptr]),
            ("dnl_logit_shares", [ptr] * 3),
            ("dnl_remaining", [ptr, i64, i64, ptr, ptr, i64, ptr]),
            ("dnl_assign", [ptr] * 4 + [i64, i64, ptr, i64, i64, ptr]),
            ("dnl_blocks", [ptr, i64])):
        getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, i64
    return lib


def _arg(x: np.ndarray, dtype, shape: tuple) -> int:
    """Address of ``x`` for the kernel, which reads it as C-contiguous ``dtype`` of ``shape``.

    Read through ctypes, at a third of the cost of ``ndarray.ctypes``,
    unless ``x`` is read-only or empty, which ctypes refuses.
    """
    if not (x.dtype == dtype and x.flags.c_contiguous and x.shape == shape):
        raise ValueError(f"kernel argument of dtype {x.dtype} and shape {x.shape} is not "
                         f"C-contiguous {np.dtype(dtype)} of shape {shape}")
    if x.flags.writeable and x.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(x))
    return x.ctypes.data


def _step(
    plan: _Plan,
    h: np.ndarray,
    starts: np.ndarray,
    path_time: np.ndarray,
    extrapolated: np.ndarray,
    base: LoadingResult | None = None,
) -> tuple[np.ndarray, ...]:
    """Step each of the patterns ``h[B, P, T]`` on its own and time it from its start.

    Pattern b is the base's departures before interval ``starts[b]`` and
    ``h[b]`` from there on, checked and floored at zero by the kernel
    (``dnl_step``). The patterns are loaded one after another in one block
    of curves (the entries ``up`` and exits ``dn`` of the plan's rows, the
    entries ``slots`` of its slots), from the base's curves at step
    ``starts[b] * refine``; their path times from their starts on go into
    ``path_time`` and ``extrapolated``. The kernel returns at a pattern that
    has not drained at the last column; a new block half as wide again takes
    over, and that pattern begins again in it. Returns the block, with the
    last pattern's curves up to column ``n_steps[-1]``, and each pattern's
    ``n_steps`` and ``drained``.
    """
    pl = plan.block
    B, P, T, R, S = len(h), plan.paths.P, plan.paths.T, pl.R, pl.S
    t_sim = T * plan.refine
    s_max = _step_cap(t_sim)
    cols = _first_cols(t_sim, s_max)
    n_steps, drained = np.empty(B, dtype=np.int64), np.empty(B, dtype=bool)
    base_args = (None, None, None, None, 0)
    if base is not None:  # its departures, then its block: up, dn and slots
        base_cols = base._state[2].shape[1]
        base_args = (*(_arg(x, np.float64, shape) for x, shape in zip(
            base._state[1:], ((P, T), (R, base_cols), (R, base_cols), (S, base_cols)))),
            base_cols)
    batch = [_arg(h, np.float64, (B, P, T)), _arg(starts, np.int64, (B,)), *base_args, s_max]
    out = [_arg(x, dtype, shape) for x, dtype, shape in (
        (n_steps, np.int64, (B,)), (drained, np.bool_, (B,)),
        (path_time, np.float64, (B, P, T)), (extrapolated, np.bool_, (B, P, T)))]
    first = 0
    while True:
        up, dn, slots = np.empty((R, cols)), np.empty((R, cols)), np.empty((S, cols))
        block = [_arg(x, np.float64, (n, cols)) for x, n in ((up, R), (dn, R), (slots, S))]
        code = _kernel().dnl_step(pl.ptr, B, *batch, cols, *block, first, *out)
        if code == 0:
            return up, dn, slots, n_steps, drained
        if code == -1:
            raise MemoryError("step kernel could not allocate its work arrays")
        if code == -3:
            raise DnlError("departures must be finite")
        if code == -4:
            raise DnlError("negative departures")
        if code < 0:
            raise DnlError(f"the step kernel refused its input: starts must lie in [0, {T}) "
                           f"and within the base's columns, and the {cols} columns must pass "
                           f"the horizon and every step count")
        first, cols = code - 1, min(s_max + 1, cols + cols // 2)


def _link_times(res: LoadingResult) -> np.ndarray:
    """Travel time for entry at each departure-interval boundary, per used link row.

    Each link row of the loading's block, read in place up to its last step,
    is a path of that row alone, with no free-flow floor: flooring its time
    at free-flow time gives max(ff, exit - entry), since ff > 0.
    """
    plan, (up, dn) = res._state[0], res._state[2:4]
    out = np.empty((plan.A, res.grid.n_intervals))
    _read_out(plan.links, res.n_steps, up[: plan.A], dn[: plan.A], out,
              np.empty(out.shape, dtype=bool))
    return np.maximum(plan.ff[:, None], out)


def _read_out(ro: _ReadOut, last: int, up, dn, path_time, extrapolated) -> None:
    """Chain FIFO exit times through each path's rows into every (P, T) cell (``dnl_path_times``).

    ``ro`` reads paths over the rows of the (rows, cols) curves ``up`` and
    ``dn`` up to sample ``last``, which the kernel indexes by unchecked.
    """
    cols, shape = up.shape[-1], (ro.P, ro.T)
    if not 0 <= last < cols:
        raise DnlError(f"read-out sample {last} is outside the curves' [0, {cols})")
    if _kernel().dnl_path_times(
            ro.ptr, last, cols, *(_arg(x, np.float64, (ro.R, cols)) for x in (up, dn)),
            _arg(path_time, np.float64, shape), _arg(extrapolated, np.bool_, shape)) < 0:
        raise MemoryError("read-out kernel could not allocate its work arrays")
