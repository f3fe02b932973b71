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

Work per plan and per step. A plan (one network's links, path set and grid)
is built once, with the index arrays the kernel reads, and kept while among
the last few used. The time loop and the read-out of travel times are C
functions in ``dnl_step.c``, compiled on first use with the C compiler Python
was built with and cached on disk (``_kernel``). One call steps each pattern
of a batch on its own up to the last allocated column, or until it drains;
between calls Python widens the time axis. A step reads each link's lagged
curves; applies the sending and receiving rules; finds every row's FIFO
window [tau0, tau1] of its outflow by bisection of its entry curve, which
never decreases; splits that outflow over the row's slots; scales merge
inflows to supply and a diverging row's whole outflow by its most
restrictive factor; and writes the next column, moving each slot's outflow
to its path's slot on the next link, which never collides because a path
visits a link once. A slot that moved nothing adds 0.0, which changes no
sum: no curve holds -0.0. After the last step one more call times every
open cell: its probe goes hop by hop, reading the entries ahead of it off a
row's entry curve and inverting the row's exit curve by the same bisection.
Link times are read out the same way, as paths of one row each.

Batch axis. ``load_batch`` loads B departure patterns of one (network, path
set, grid) as B single loads stacked copy-major: entries and exits are one
(B, rows, columns) array each and slot entries one (B, slots, columns)
array, every copy in the plan's own row and slot order. Each pattern starts
at an interval t from a base loading and has the base's departures before t
(a strategic forecast spliced at t has the candidate's), so the batch's
cells before t are not read: it copies the base's rows up to step t * refine
and steps from there on its own until it drains or reaches the step cap.
Path times are computed from t on only: one kernel call per stepped chunk
times its open cells, into one (patterns, paths, intervals) array for the
whole batch. Every pattern keeps its own drain test, tolerance and step
count, and gets exactly the path times of loading it alone from step 0;
``load`` is the batch of one. The time axis holds the boundaries stepped so
far: it starts at the horizon plus half of it, grows by half while a pattern
has not drained, and stops at the step cap. A batch whose curves would
exceed a fixed byte budget at that first size is stepped in equal chunks,
one after another; a batch returns only its path times, step counts and
drain flags, so each chunk's curves are freed once they are read out.

Exact sums. Results are bit-identical to a loop that sums each row's slots
with ``ndarray.sum``. The kernel is compiled with -ffp-contract=off and
without fast-math, so every operation rounds once, as in numpy, and each sum
mirrors the numpy call it stands for. Merge inflows add in sequence, in slot
order, links before sources, as ``np.bincount`` does, and each is added to
the entry column in turn, a source's total in one addition, as ``np.add.at``
does. Row totals and the drain sum (every link in link order, 0.0 where a
link has no row, then the sources) are ``ndarray.sum``: 0.0 plus numpy's
pairwise sum, which adds fewer than 8 numbers in sequence, up to 128 in 8
accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the tail
is added, and more in two halves split at n/2 rounded down to a multiple of
8. ``dnl_step.c`` states that order once; the rest of the package sums in
it only through the kernel: ``choice`` totals its logit blocks and the
prefixes of a departure history with ``run_sums`` (``dnl_run_sums``), and
its rollout's blocks in ``dnl_rollout``.
``_fill_sources`` keeps its own source-row sums: they run across a
non-contiguous axis, which numpy adds in sequence.

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

from .network import Network, PathSet, TimeGrid

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
    """Cumulative curves and path travel times of one loading (``load``)."""

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
    drained: bool
    _state: tuple = field(repr=False)  # plan, departures, link slots: a base for load_batch
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
        if len(rows) == self.n_links:
            return rows
        out = np.zeros((self.n_links, rows.shape[1]))
        out[self.used_links] = rows
        return out

    @property
    def boundaries(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.sim_dt_s


def _widen(curves: np.ndarray, cols: int) -> np.ndarray:
    """``curves`` with ``cols`` columns, the new ones copies of the last."""
    out = np.empty((*curves.shape[:-1], cols))
    out[..., : curves.shape[-1]] = curves
    out[..., curves.shape[-1] :] = curves[..., -1:]
    return out


class _Plan:
    """Index arrays of one (network links, path link sequences, grid).

    Rows are the links that some path uses, in link order, then one source
    connector per distinct first link. A slot is one (row, path) pair; slots
    are numbered row-major, in path order within a row. The other links
    never carry a vehicle and get no row. ``_plan`` keeps the last few plans,
    so loads of one network share one. ``args`` leads every step kernel
    call: the index arrays, the link parameters, the sizes and the step.
    """

    def __init__(self, links: tuple, seqs: tuple, grid: TimeGrid):
        self.n_links = N = len(links)
        link_ff, link_cap, wave_lag, storage = np.array(
            [(l.free_flow_s, l.capacity_vps, l.length_m / l.backward_wave_mps, l.storage_veh)
             for l in links], dtype=float).reshape(-1, 4).T
        # refine the internal step until every link, used or not, spans at
        # least one step
        min_ff = float(link_ff.min()) if N else grid.dt_s
        self.refine = max(1, int(np.ceil(grid.dt_s / min_ff - 1e-12)))
        self.dt = grid.dt_s / self.refine

        self.source_links = tuple(sorted({seq[0] for seq in seqs}))
        n_src = len(self.source_links)
        src_index = {a: s for s, a in enumerate(self.source_links)}
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
        size = np.bincount(self.slot_row, minlength=A + n_src)  # slots per row
        row_start = np.concatenate(([0], np.cumsum(size)))
        self.src_row_start = row_start[A:] - L

        # row of every path at each hop, its source first, padded with -1; path
        # times take a source as free-flow time 0 and its first link's capacity
        hops = max((len(seq) for seq in seqs), default=0)
        path_links = np.full((len(seqs), hops + 1), -1, dtype=np.intp)
        for p, seq in enumerate(seqs):
            path_links[p, : len(seq) + 1] = (N + src_index[seq[0]], *seq)
        self.path_rows = row[path_links]
        self.row_ff = np.concatenate((self.ff, np.zeros(n_src)))
        self.row_cap = np.concatenate((self.cap, self.cap[self.src_links]))

        # the kernel reads contiguous int64 indices and float64 parameters, kept alive here
        self._buffers = tuple(np.ascontiguousarray(x, dtype=np.int64) for x in (
            row_start, self.slot_next, self.slot_dest, self.src_links, self.used_links)
        ) + tuple(np.ascontiguousarray(x, dtype=float) for x in (
            self.ff, self.cap, self.wave_lag, self.storage))
        shapes = [(A + n_src + 1,), (len(pairs),), (len(pairs),), (n_src,)] + [(A,)] * 5
        dtypes = [np.int64] * 5 + [np.float64] * 4
        self.args = (*map(_arg, self._buffers, dtypes, shapes), A, n_src, N, self.dt)


_plan = functools.lru_cache(maxsize=8)(_Plan)


def _step_cap(t_sim: int) -> int:
    """Steps after which a loading of ``t_sim`` departure steps stops, drained or not."""
    return t_sim + 20 * t_sim + 200


def _first_cols(t_sim: int, s_max: int) -> int:
    """Boundaries allocated up front: the horizon plus half of it to drain."""
    return min(s_max, t_sim + t_sim // 2 + 1) + 1


# Curves of one batch chunk (entries, exits and slot entries of every pattern
# at the first allocation) stay under 2 MiB; a batch over it is split into
# chunks of equal size, stepped one after another. A chunk's curves are freed
# once its path times are read out, so a batch of forecasts adds about that
# budget, plus its (patterns, paths, intervals) times, to the peak memory of
# the one-at-a-time loads it replaces: the 120 forecasts of the shipped grid
# stretched to T = 120 run in 7 chunks with a traced peak of 4.4 MB, of which
# the returned times and flags take 1.0 MB, where keeping every chunk's
# curves until the batch returned peaked at 10.3 MB. The step kernel's work arrays hold a
# few numbers per row and slot. Larger chunks save calls but add memory one
# for one. The 30 forecasts of a 60-link, 23-path lattice with T = 30, whose
# paths use 24 of the links, take 65,424 bytes each and run as one chunk.
# Path timing holds no per-cell temporaries: the kernel writes each open
# cell's time and flag straight into the batch's result arrays.
_CHUNK_BYTES = 2 * 2**20


def _pattern_bytes(plan: _Plan, grid: TimeGrid) -> int:
    """Bytes of one pattern's curves at the first allocation of the time axis."""
    t_sim = grid.n_intervals * plan.refine
    rows = 2 * (plan.A + len(plan.source_links)) + len(plan.slot_row)  # entries, exits, slots
    return 8 * rows * _first_cols(t_sim, _step_cap(t_sim))


def _departures(values, P: int, T: int, base_h=None, starts=None) -> np.ndarray:
    """Departures of shape (P, T), or (patterns, P, T) with ``starts``, floored at 0.

    With ``starts``, pattern b is ``base_h`` before interval ``starts[b]`` and
    ``values[b]`` from there on, so the cells of ``values`` before its start
    are not read; the checks apply to the patterns so spliced.
    """
    h = np.asarray(values, dtype=float)
    want = (P, T) if starts is None else (len(starts), P, T)
    if h.shape != want:
        axes = "(paths, intervals)" if starts is None else "(patterns, paths, intervals)"
        raise DnlError(f"departure matrix shape {h.shape} is not {axes} {want}")
    if starts is not None:
        h = np.where(np.arange(T) < starts[:, None, None], base_h, h)
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
    interval start, hop by hop; without, it is None. ``link_up`` and
    ``link_dn`` are views of arrays with up to half as many columns again as
    the loading used; ``n_up`` and ``n_dn`` are those curves themselves when
    every link is on a path, and otherwise new arrays, with zero rows for the
    other links, on each access. The result keeps its slot curves, so it can
    serve as the base of a ``load_batch``.
    """
    h = _departures(departures, path_set.n_paths, grid.n_intervals)[None]
    plan = _plan(net.links, path_set.link_seq, grid)
    path_time, extrapolated = np.empty(h.shape), np.empty(h.shape, dtype=bool)
    up, dn, slots, n_steps, drained = _step(plan, grid, h, np.zeros(1, dtype=np.int64),
                                            path_time, extrapolated)
    A, S = plan.A, int(n_steps[0])
    res = LoadingResult(
        grid=grid, n_steps=S, sim_dt_s=plan.dt,
        link_up=up[0, :A, : S + 1], link_dn=dn[0, :A, : S + 1],
        used_links=plan.used_links, n_links=plan.n_links,
        src_up=up[0, A:, : S + 1], src_dn=dn[0, A:, : S + 1],
        path_time=path_time[0], extrapolated=extrapolated[0], drained=bool(drained[0]),
        _state=(plan, h[0], slots[0, : plan.n_link_slots, : S + 1]),
    )
    if compute_link_times:
        # a hop past a path's end reads the zero row; cumsum adds the hops in
        # sequence whatever the shape, where sum would add them pairwise when
        # T = 1, and 0.0 leaves a positive link time sum unchanged
        link_time = _link_times(plan, grid, res.link_up, res.link_dn)
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
    grid. ``starts`` holds B ascending intervals in [0, T). Pattern b is the
    base's departures before interval ``starts[b]`` and ``departures[b, P,
    T]`` from there on: the cells of ``departures`` before each start are
    not read. Each pattern takes the base's curves up to its start and, on
    its own copy of the network's rows and slots, steps on its own from
    there until it drains, with its own drain test and step count. Its step
    count, drain flag and path times from its start on are bit-identical to
    ``load`` of that pattern alone. Large batches are stepped in chunks whose
    curves stay under a fixed byte budget, one after another, and only their
    path times, step counts and drain flags are kept.
    """
    plan, base_h, _ = base._state
    P, T = base_h.shape
    starts = np.asarray(starts)
    if starts.ndim != 1 or (len(starts) and (starts.dtype.kind not in "iu" or starts[0] < 0
                                             or starts[-1] >= T or (np.diff(starts) < 0).any())):
        raise DnlError(f"starts must be ascending intervals in [0, {T})")
    h = _departures(departures, P, T, base_h, starts)
    out = BatchResult(np.full(h.shape, np.nan), np.zeros(h.shape, dtype=bool),
                      np.zeros(len(h), dtype=np.int64), np.zeros(len(h), dtype=bool))
    if not len(h):
        return out
    chunks = -(-len(h) // max(1, _CHUNK_BYTES // _pattern_bytes(plan, base.grid)))
    for part in np.array_split(np.arange(len(h)), chunks):
        b = slice(part[0], part[-1] + 1)
        # the chunk's curves are dropped with the returned tuple
        out.n_steps[b], out.drained[b] = _step(plan, base.grid, h[b], starts[b].astype(np.int64),
                                               out.path_time[b], out.extrapolated[b], base)[3:]
    return out


def _fill_sources(plan: _Plan, h: np.ndarray, src_slots: np.ndarray, src_rows: np.ndarray) -> None:
    """Write the source entry curves of the patterns ``h[B, P, T]``.

    They are exogenous, so known for the whole horizon up front; departures
    ramp linearly inside each departure interval. ``src_slots`` and
    ``src_rows`` are the batch's (patterns, source slots, columns) and
    (patterns, sources, columns) curves.
    """
    B, _, T = h.shape
    refine = plan.refine
    t_sim = T * refine
    h_cum = np.concatenate([np.zeros((B, h.shape[1], 1)), np.cumsum(h, axis=2)], axis=2)
    rows = h_cum[:, plan.slot_path[plan.n_link_slots :]]
    src_slots[..., : t_sim + 1 : refine] = rows
    fine = np.linspace(0.0, 1.0, refine + 1)[1:-1] if refine > 1 else np.empty(0)
    for j, frac in enumerate(fine, start=1):
        src_slots[..., j : t_sim + 1 : refine] = rows[..., :-1] + frac * np.diff(rows, axis=2)
    src_slots[..., t_sim + 1 :] = rows[..., -1:]
    start = plan.src_row_start
    for s in range(len(start) - 1):
        src_rows[:, s] = src_slots[:, start[s] : start[s + 1]].sum(axis=1)


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
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.dnl_step.argtypes = [ptr] * 9 + [i64] * 3 + [f64, i64, ptr] + [i64] * 3 + [ptr] * 6
    lib.dnl_step.restype = i64
    lib.dnl_path_times.argtypes = ([ptr, i64, i64, ptr, ptr, f64, ptr, i64, i64, ptr, ptr, i64, i64]
                                   + [ptr] * 4)
    lib.dnl_stored.argtypes = [ptr, ptr] + [i64] * 3 + [ptr]
    lib.dnl_run_sums.argtypes = [ptr, ptr, ptr, i64, ptr]
    lib.dnl_rollout.argtypes = [ptr] * 6 + [i64] * 3 + [ptr, i64, i64] + [ptr] * 4
    lib.dnl_rollout.restype = i64
    lib.dnl_stored.restype = f64
    lib.dnl_path_times.restype = lib.dnl_run_sums.restype = None
    return lib


def _arg(x: np.ndarray, dtype, shape: tuple) -> int:
    """Address of ``x`` for the kernel, which reads it as C-contiguous ``dtype`` of ``shape``."""
    if not (x.dtype == dtype and x.flags.c_contiguous and x.shape == shape):
        raise ValueError(f"kernel argument of dtype {x.dtype} and shape {x.shape} is not "
                         f"C-contiguous {np.dtype(dtype)} of shape {shape}")
    return x.ctypes.data


def run_sums(x: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``x.flat[s : s + n].sum()``, bit for bit, of each run (s, n) of ``start`` and ``size``.

    Runs may overlap, and must lie inside ``x``: the kernel does not check.
    """
    out = np.empty(len(start))
    _kernel().dnl_run_sums(_arg(x, np.float64, x.shape), _arg(start, np.int64, out.shape),
                           _arg(size, np.int64, out.shape), len(out),
                           _arg(out, np.float64, out.shape))
    return out


def _step(
    plan: _Plan,
    grid: TimeGrid,
    h: np.ndarray,
    starts: np.ndarray,
    path_time: np.ndarray,
    extrapolated: np.ndarray,
    base: LoadingResult | None = None,
) -> tuple[np.ndarray, ...]:
    """Step each of the patterns ``h[B, P, T]`` on its own and time it from its start.

    The batch is B single loads stacked copy-major: the curves are (B, rows,
    columns) and (B, slots, columns) arrays, each copy in the plan's row and
    slot order. Pattern b takes the base's curves up to step ``starts[b] *
    refine`` and steps from there until it drains or reaches the step cap.
    Its path times from its start on are written into ``path_time[b]`` and
    ``extrapolated[b]``. Returns the kernel's arrays: the entries ``up`` and
    exits ``dn`` of every row, the entries ``slots`` of every slot, and each
    pattern's ``n_steps`` and ``drained``; pattern b's curves end at column
    ``n_steps[b]``.
    """
    B, _, T = h.shape
    A, L = plan.A, plan.n_link_slots
    R, S = A + len(plan.source_links), len(plan.slot_row)
    refine = plan.refine
    t_sim = T * refine
    s_max = _step_cap(t_sim)
    cols = _first_cols(t_sim, s_max)

    # cumulative entries and exits of every row, entries of every slot
    up = np.zeros((B, R, cols))
    dn = np.zeros(up.shape)
    slots = np.zeros((B, S, cols))

    _fill_sources(plan, h, slots[:, L:], up[:, A:])

    t = (starts * refine).astype(np.int64)  # each pattern's next step
    k = int(t[-1]) + 1  # boundaries up to the last start, taken from the base
    if k > 1:
        base_slots = base._state[2]
        for rows, curves in ((up[:, :A], base.link_up), (dn[:, :A], base.link_dn),
                             (dn[:, A:], base.src_dn), (slots[:, :L], base_slots)):
            # columns past a pattern's own start are rewritten before it reads them
            rows[..., :k] = curves[:, :k]

    drain_tol = np.array([1e-9 * max(1.0, float(x.sum())) for x in h])
    n_steps = np.full(B, s_max, dtype=np.int64)
    drained = np.zeros(B, dtype=bool)
    step = _kernel().dnl_step
    per_copy = [_arg(x, dtype, (B,)) for x, dtype in (
        (t, np.int64), (drain_tol, np.float64), (n_steps, np.int64), (drained, np.bool_))]
    while True:
        stop = min(s_max, cols - 1)  # the last allocated column or the step cap
        curves = [_arg(x, np.float64, (B, n, cols)) for x, n in ((up, R), (dn, R), (slots, S))]
        if step(*plan.args, B, per_copy[0], stop, t_sim, cols, *curves, *per_copy[1:]) < 0:
            raise MemoryError("step kernel could not allocate its work arrays")
        if stop == s_max or drained.all():
            break
        cols = min(s_max + 1, cols + cols // 2)
        up, dn, slots = (_widen(x, cols) for x in (up, dn, slots))

    _read_out(plan.path_rows, plan.row_ff, plan.row_cap, plan.dt, grid.interval_mids(), starts,
              n_steps, up, dn, path_time, extrapolated)
    return up, dn, slots, n_steps, drained


def _link_times(plan: _Plan, grid: TimeGrid, link_up, link_dn) -> np.ndarray:
    """Travel time for entry at each departure-interval boundary, per used link row.

    Each row is read out as a path of that row alone, entered at the boundary
    with no free-flow floor; flooring its time there at free-flow time gives
    max(ff, exit - entry), since ff > 0.
    """
    (A, cols), T = link_up.shape, grid.n_intervals
    up, dn = (np.ascontiguousarray(x)[None] for x in (link_up, link_dn))
    out = np.empty((1, A, T))
    _read_out(np.arange(A)[:, None], np.zeros(A), plan.cap, plan.dt, grid.interval_starts(),
              np.zeros(1, dtype=np.int64), np.array([cols - 1]), up, dn, out,
              np.empty(out.shape, dtype=bool))
    return np.maximum(plan.ff[:, None], out[0])


def _read_out(path_rows, row_ff, row_cap, dt: float, times, starts, n_steps, up, dn,
              path_time, extrapolated) -> None:
    """Chain FIFO exit times through each path's rows, per open cell (``dnl_path_times``).

    The open cells (b, p, j >= ``starts[b]``) of the (B, P, T) ``path_time``
    and ``extrapolated`` are written, the others left as they are; the
    kernel's comment gives the arguments. For path times the probe is the
    cohort's median vehicle: it departs at the interval midpoint with half of
    its own column ahead of it, so a column feels the queue it builds itself.
    """
    (B, R, cols), (P, hops), T = up.shape, path_rows.shape, len(times)
    _kernel().dnl_path_times(
        _arg(path_rows, np.int64, (P, hops)), P, hops, _arg(row_ff, np.float64, (R,)),
        _arg(row_cap, np.float64, (R,)), dt, _arg(times, np.float64, (T,)), T,
        B, _arg(starts, np.int64, (B,)), _arg(n_steps, np.int64, (B,)), R, cols,
        *(_arg(x, np.float64, (B, R, cols)) for x in (up, dn)),
        _arg(path_time, np.float64, (B, P, T)), _arg(extrapolated, np.bool_, (B, P, T)))
