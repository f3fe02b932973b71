"""Independent reference computations used by unit and acceptance tests.

The loading oracle integrates cumulative curves at a hundredth of the
departure interval with plain point-queue recursions; it shares no code with
the production loader. The path oracles enumerate every simple path by
exhaustive search and build the dense link-path incidence matrix;
``reference_paths`` and ``reference_path_set`` are the deviation search as
it was before the integer graph, spur memo and time-bound pruning. Four
helpers read or set up loadings: ``vehicles_stored``, ``step_cap``,
``stepped``, which keeps the curves of a batch that ``dnl.load_batch`` drops,
and ``source_curves``, the numpy formula of the curves the kernel writes for
its sources; ``prefix_sums`` reads the kernel's prefix sums of rows, and
``departures`` splices, checks and floors the patterns of a
batch in numpy, as the kernel's ``begin`` does; ``solve_recording`` keeps
the input of every map a solve applies; ``systematic_disutility`` and
``logit`` state the disutility and the logit of one choice set in numpy;
``remaining_demand`` and ``assign`` are the numpy forms of the kernel passes
behind ``choice.remaining_demand`` and ``choice.assign``; ``rollout`` is the
per-interval loop of ``choice.assign`` calls that ``choice.rollout`` takes
in closed form;
``hop_chain`` reads path times out of a loading path by path, hop by hop,
where ``dnl_path_times`` passes each node of the paths' prefix trie once.
"""

from __future__ import annotations

import contextlib
import heapq

import numpy as np
import pytest

from dsuedhi import choice, dnl, equilibrium
from dsuedhi import network as nw
from dsuedhi.network import (Network, NetworkError, OdDemand, Path, PathSet, _node_sequence,
                              check_path, check_path_limits)
from loop_loader import _invert_vec, link_supply_rates


def vehicles_stored(res: dnl.LoadingResult) -> float:
    """Vehicles inside links or waiting at sources at a loading's final boundary."""
    on_links = float(np.sum(res.n_up[:, -1] - res.n_dn[:, -1]))
    at_sources = float(np.sum(res.src_up[:, -1] - res.src_dn[:, -1]))
    return on_links + at_sources


@contextlib.contextmanager
def step_cap(drain_steps: int | None):
    """Loads inside stop ``drain_steps`` steps after the horizon, drained or not.

    Patches ``dnl._step_cap`` for the block; None keeps the loader's own cap.
    """
    own = dnl._step_cap
    if drain_steps is not None:
        dnl._step_cap = lambda t_sim: t_sim + drain_steps
    try:
        yield
    finally:
        dnl._step_cap = own


def stepped(base: dnl.LoadingResult, batch, starts) -> list[dnl.LoadingResult]:
    """The patterns of ``dnl.load_batch(base, batch, starts)``, each stepped by its
    own ``dnl._step`` call, as the ``LoadingResult`` that ``dnl.load`` builds
    from the same arrays: the curves of a batch, which ``load_batch`` drops."""
    plan, base_h = base._state[:2]
    starts = np.asarray(starts, dtype=np.int64)
    batch = np.ascontiguousarray(batch, dtype=float)
    h = departures(batch, base_h, starts)
    A, out = plan.A, []
    for j in range(len(h)):
        path_time, extrapolated = np.full(h[j].shape, np.nan), np.zeros(h[j].shape, dtype=bool)
        up, dn, slots, n_steps, drained = dnl._step(plan, batch[j : j + 1], starts[j : j + 1],
                                                    path_time[None], extrapolated[None], base)
        S = int(n_steps[0])
        out.append(dnl.LoadingResult(
            grid=base.grid, n_steps=S, sim_dt_s=plan.dt, link_up=up[:A, : S + 1],
            link_dn=dn[:A, : S + 1], src_up=up[A:, : S + 1], src_dn=dn[A:, : S + 1],
            path_time=path_time, extrapolated=extrapolated, drained=bool(drained[0]),
            _state=(plan, h[j], up, dn, slots),
        ))
    return out


def departures(values, base_h: np.ndarray, starts) -> np.ndarray:
    """The patterns ``dnl.load_batch(base, values, starts)`` loads, in numpy.

    Pattern b is ``base_h`` before interval ``starts[b]`` and ``values[b]``
    from there on, so the cells of ``values`` before its start are not read.
    ``DnlError`` if a cell of some pattern is not finite, else if one is
    below -1e-9; the patterns floored at zero by ``np.maximum``, which takes
    -0.0 to 0.0.
    """
    T = base_h.shape[-1]
    h = np.where(np.arange(T) < np.asarray(starts)[:, None, None], base_h, values)
    if not np.isfinite(h).all():
        raise dnl.DnlError("departures must be finite")
    if h.min(initial=0.0) < -1e-9:
        raise dnl.DnlError("negative departures")
    return np.maximum(h, 0.0)


def prefix_sums(h) -> np.ndarray:
    """``h[:, :t].sum(axis=1)`` of every t, (T, rows), as the kernel takes them.

    ``dnl_remaining`` with one OD of zero demand per row, and one more
    without paths whose demand of -1 overdraws from the start, so that the
    kernel leaves every remainder unclamped: 0.0 less each sum, from which
    0.0 less it again gives the sum back exactly.
    """
    h = np.ascontiguousarray(h, dtype=float)
    P, T = h.shape
    out, demand = np.empty((T, P + 1)), np.append(np.zeros(P), -1.0)
    code = dnl._kernel().dnl_remaining(h.ctypes.data, P, T,
                                        np.arange(P, dtype=np.int64).ctypes.data,
                                        demand.ctypes.data, P + 1, out.ctypes.data)
    assert code == (1 if T else 0), code
    return 0.0 - out[:, :P]


def source_curves(plan, h: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The source slot and source row entry curves of the patterns ``h[B, P, T]``, in numpy.

    Sources are exogenous, so known for the whole horizon up front:
    cumulative departures (``np.cumsum`` after a 0.0) at every ``refine``-th
    of ``cols`` columns, ramping linearly inside each departure interval at
    the plan's ``np.linspace`` fractions, and the total from the horizon on.
    A source row adds its slots across a non-contiguous axis, which numpy
    does in sequence. Returns (B, source slots, cols) and (B, sources,
    cols) arrays.
    """
    B, _, T = h.shape
    refine = plan.refine
    t_sim = T * refine
    h_cum = np.concatenate([np.zeros((B, h.shape[1], 1)), np.cumsum(h, axis=2)], axis=2)
    rows = h_cum[:, plan.slot_path[plan.n_link_slots :]]
    src_slots = np.empty((*rows.shape[:2], cols))
    src_slots[..., : t_sim + 1 : refine] = rows
    fine = np.linspace(0.0, 1.0, refine + 1)[1:-1] if refine > 1 else np.empty(0)
    for j, frac in enumerate(fine, start=1):
        src_slots[..., j : t_sim + 1 : refine] = rows[..., :-1] + frac * np.diff(rows, axis=2)
    src_slots[..., t_sim + 1 :] = rows[..., -1:]
    L = plan.n_link_slots
    start = np.searchsorted(plan.slot_row[L:], plan.A + np.arange(len(plan.source_links) + 1))
    src_rows = np.stack([src_slots[:, start[s] : start[s + 1]].sum(axis=1)
                         for s in range(len(start) - 1)], axis=1)
    return src_slots, src_rows


def systematic_disutility(phi, t, target_arrival, mu_early: float, mu_late: float):
    """Travel time plus quadratic schedule-delay penalty, in numpy.

    All time arguments must share one unit; the result is expressed in that
    same unit (plus its square for the penalty term). Arrival exactly at the
    target incurs no penalty; early arrivals are weighted by ``mu_early``,
    late ones by ``mu_late``.
    """
    gap = np.asarray(t, dtype=float) + phi - target_arrival
    penalty = np.where(gap < 0.0, mu_early, mu_late)
    value = phi + penalty * gap * gap
    return float(value) if np.ndim(value) == 0 else value


def logit(psi, theta: float) -> np.ndarray:
    """Logit shares over one choice set, all entries of ``psi`` jointly: a numpy
    softmax of -``theta`` ``psi``, shifted by its largest value."""
    z = -theta * np.asarray(psi, dtype=float)
    w = np.exp(z - z.max())
    return w / w.sum()


def remaining_demand(history, class_demand, path_set) -> np.ndarray:
    """Per-OD demand not yet departed before each interval t of ``history``, in numpy.

    Row t is ``class_demand`` less each path's ``ndarray.sum`` of its first
    t columns, added per OD in path order (``np.add.at``); ``choice._unspent``
    clamps dust below zero and raises on more.
    """
    h = np.asarray(history, dtype=float)
    demand = np.asarray(class_demand, dtype=float)
    prefix = np.zeros(h.shape[::-1])
    for t in range(len(prefix)):
        prefix[t] = h[:, :t].sum(axis=1)
    departed = np.zeros((len(prefix), len(demand)))
    np.add.at(departed, (slice(None), path_set.od_of_path), prefix)
    return choice._unspent(demand - departed, demand)


def assign(table, t_index: int, remaining_demand) -> np.ndarray:
    """``choice.assign`` in numpy: the cells of the table's blocks at ``t_index``, ... flat.

    Each block's shares times its OD's demand in that interval's row, the
    demand less the block's ``ndarray.sum`` then added at its ``top``; a
    negative demand of an OD with paths raises first, then any demand other
    than 0 on a block that is not finite.
    """
    lay = table.layout
    demand = np.asarray(remaining_demand, dtype=float)
    n = lay.block.n
    m = len(lay.block_od) // n  # blocks per interval
    i = t_index - lay.first
    blocks = slice(i * m, (i + len(demand)) * m)
    start, size = lay.start[blocks], lay.size[blocks]
    cells = slice(start[0], start[-1] + size[-1])
    demand = demand[:, lay.block_od[:m]].ravel()  # per block
    if (demand < 0).any():
        raise choice.ChoiceError(
            f"negative remaining demand for OD {lay.block_od[np.argmax(demand < 0)]}")
    if ((demand != 0.0) & ~table.finite[blocks]).any():
        raise choice.ChoiceError("disutility matrix has non-finite entries")
    out = table.share[cells] * np.repeat(demand, size)
    at = start - cells.start
    residual = demand - np.array([out[a : a + k].sum() for a, k in zip(at, size)])
    out[table.top[blocks] - cells.start] += residual
    return out


def rollout(table, class_demand, path_set) -> np.ndarray:
    """One class's realized departures, one ``choice.assign`` per provision interval.

    At each interval the class's remaining demand is assigned to the table,
    and only the current column is realized and subtracted from it, per OD
    in path order (``np.subtract.at``); ``choice._unspent`` raises on an
    overdraw and clamps dust to zero.
    """
    demand = np.asarray(class_demand, dtype=float)
    rem = demand.copy()
    lay = table.layout
    n, P = lay.block.n, lay.block.P
    y = np.zeros((P, n))
    for i in range(n):
        y[:, i] = choice.assign(table, lay.first + i, rem[None]).reshape(P, -1)[:, 0]
        np.subtract.at(rem, path_set.od_of_path, y[:, i])
        rem = choice._unspent(rem, demand)
    return y


def hop_chain(res: dnl.LoadingResult, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Path times and extrapolated flags of ``res`` from interval ``start`` on, hop by hop.

    Each path's probe leaves at the interval midpoint and passes its rows
    (``_Plan.path_rows``) in turn, on its own: it reads the entries ahead of
    it off the row's entry curve, interpolated as ``dnl_step.c``'s
    ``lagged`` does, and leaves when the exit curve reaches them
    (``loop_loader._invert_vec``), but no sooner than the row's free-flow
    time after it came. Cells before ``start`` are NaN and False.
    """
    plan = res._state[0]
    up, dn = np.vstack((res.link_up, res.src_up)), np.vstack((res.link_dn, res.src_dn))
    last, dt, mids = res.n_steps, res.sim_dt_s, res.grid.interval_mids()
    P, T = len(plan.path_rows), len(mids)
    path_time, extrapolated = np.full((P, T), np.nan), np.zeros((P, T), dtype=bool)

    def lagged(row, time):
        x = min(max(time / dt, 0.0), float(last))
        idx = int(x)
        if idx == last and idx > 0:
            idx -= 1
        frac = x - idx
        return float(row[idx]) + frac * (float(row[idx + 1]) - float(row[idx]))

    for p, rows in enumerate(plan.path_rows.tolist()):
        for j in range(start, T):
            clock, flag = float(mids[j]), False
            for r in [row for row in rows if row >= 0]:
                ahead = lagged(up[r], clock)
                exit_, beyond = _invert_vec(dn[r, : last + 1], dt, np.array([ahead]),
                                            float(plan.row_cap[r]))
                clock = max(clock + float(plan.row_ff[r]), float(exit_[0]))
                flag |= bool(beyond[0])
            path_time[p, j] = clock - float(mids[j])
            extrapolated[p, j] = flag
    return path_time, extrapolated


def solve_recording(net, ps, grid, params, config):
    """``solve_sram`` and the class pair (instant, forecast) of every map it applied, in order.

    Wraps ``equilibrium.fixed_point_map`` for the solve.
    """
    iterates = []
    own = equilibrium.fixed_point_map

    def recording(h_instant, h_forecast, *args):
        iterates.append((h_instant.copy(), h_forecast.copy()))
        return own(h_instant, h_forecast, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "fixed_point_map", recording)
        return equilibrium.solve_sram(net, ps, grid, params, config), iterates


def all_simple_paths(net, origin, destination):
    """Exhaustive loopless path enumeration (reference for small graphs)."""
    results = []

    def walk(node, seq, visited):
        if node == destination:
            results.append(seq)
            return
        for link in net.links:
            if link.tail != node or link.head in visited:
                continue
            walk(link.head, seq + (link.link_id,), visited | {link.head})

    walk(origin, (), frozenset({origin}))
    results.sort()
    return results


# Path enumeration as network.py had it before it searched an integer graph
# with a spur memo and time-bound pruning, the reference the equivalence
# tests compare with. ``_shortest_path``, ``enumerate_paths`` and
# ``build_path_set`` are copied unchanged; they read the ``adjacency`` dict
# that ``Network`` held then, which ``_ReferenceNet`` rebuilds as it did.


class _ReferenceNet:
    """The parts of a ``Network`` the reference path enumeration reads."""

    def __init__(self, net: nw.Network):
        self.od_pairs, self.link_index, self.link = net.od_pairs, net.link_index, net.link
        out: dict[str, list[tuple[str, str, float, float]]] = {}
        for l in net.links:
            out.setdefault(l.tail, []).append((l.head, l.link_id, l.free_flow_s, l.length_m))
        for v in out.values():
            v.sort(key=lambda e: (e[2], e[1]))
        self.adjacency = out


def reference_paths(net, od, k_max, time_ratio, length_ratio):
    """The reference ``enumerate_paths``."""
    return enumerate_paths(_ReferenceNet(net), od, k_max, time_ratio, length_ratio)


def reference_path_set(net, k_max=5, time_ratio=1.5, length_ratio=1.5):
    """The reference ``build_path_set``."""
    return build_path_set(_ReferenceNet(net), k_max, time_ratio, length_ratio)


def _shortest_path(
    net: Network,
    origin: str,
    destination: str,
    weight: str,
    banned_links: frozenset[str] = frozenset(),
    banned_nodes: frozenset[str] = frozenset(),
) -> tuple[float, tuple[str, ...]] | None:
    """Dijkstra over the link multigraph; ties broken by link-id sequence."""
    wpos = 2 if weight == "time" else 3
    best: dict[str, float] = {origin: 0.0}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), origin)]
    done: set[str] = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == destination:
            return cost, seq
        for entry in net.adjacency.get(node, ()):
            head, link_id = entry[0], entry[1]
            if link_id in banned_links or head in banned_nodes or head in done:
                continue
            nxt = cost + entry[wpos]
            if nxt < best.get(head, np.inf) - 1e-15:
                best[head] = nxt
                heapq.heappush(heap, (nxt, seq + (link_id,), head))
    return None


def enumerate_paths(
    net: Network,
    od: OdDemand,
    k_max: int,
    time_ratio: float,
    length_ratio: float,
) -> list[tuple[str, ...]]:
    """Constrained k-shortest loopless paths for one OD pair.

    Deviation-path search (repeated shortest path with link exclusion) on
    free-flow time, then filtered so that free-flow time stays within
    ``time_ratio`` of the fastest path and length within ``length_ratio`` of
    the shortest path. Output is sorted by (free-flow time, link-id sequence).
    """
    check_path_limits(k_max, time_ratio, length_ratio)
    first = _shortest_path(net, od.origin, od.destination, "time")
    if first is None:
        raise NetworkError(f"OD pair with no path: {od.origin}->{od.destination}")
    by_length = _shortest_path(net, od.origin, od.destination, "length")
    assert by_length is not None
    time_bound = time_ratio * first[0] + 1e-12
    length_bound = length_ratio * by_length[0] + 1e-12

    def path_cost(seq: tuple[str, ...]) -> tuple[float, float]:
        t = sum(net.link(lid).free_flow_s for lid in seq)
        m = sum(net.link(lid).length_m for lid in seq)
        return t, m

    accepted: list[tuple[float, tuple[str, ...]]] = []
    shortest: list[tuple[float, tuple[str, ...]]] = [first]
    candidates: list[tuple[float, tuple[str, ...]]] = []
    seen = {first[1]}

    while len(accepted) < k_max:
        cost, seq = shortest[-1]
        if cost > time_bound:
            break
        if path_cost(seq)[1] <= length_bound:
            accepted.append((cost, seq))
        if len(accepted) >= k_max:
            break
        # branch: spur from every prefix of the newest shortest path
        nodes_of = _node_sequence(net, seq, od.origin)
        for i in range(len(seq)):
            root = seq[:i]
            spur_node = nodes_of[i]
            banned_links = {
                known[i]
                for _, known in shortest
                if len(known) > i and known[:i] == root
            }
            banned_nodes = frozenset(nodes_of[:i])
            spur = _shortest_path(
                net,
                spur_node,
                od.destination,
                "time",
                banned_links=frozenset(banned_links),
                banned_nodes=banned_nodes,
            )
            if spur is None:
                continue
            total = root + spur[1]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (path_cost(total)[0], total))
        if not candidates:
            break
        shortest.append(heapq.heappop(candidates))

    accepted.sort(key=lambda e: (e[0], e[1]))
    return [seq for _, seq in accepted[:k_max]]


def build_path_set(
    net: Network,
    k_max: int = 5,
    time_ratio: float = 1.5,
    length_ratio: float = 1.5,
) -> PathSet:
    """Enumerate constrained paths for all OD pairs with positive demand.

    Raises NetworkError when no OD pair has demand: there is nothing to load.
    """
    if not any(od.demand_total > 0 for od in net.od_pairs):
        raise NetworkError("no OD pair has demand")
    paths: list[Path] = []
    slices: list[slice] = []
    link_seqs: list[tuple[int, ...]] = []
    for od_index, od in enumerate(net.od_pairs):
        start = len(paths)
        if od.demand_total > 0:
            sequences = enumerate_paths(net, od, k_max, time_ratio, length_ratio)
            if not sequences:
                raise NetworkError(
                    f"no feasible path for OD pair {od.origin}->{od.destination}"
                )
        else:
            sequences = []
        for seq in sequences:
            check_path(net, od, seq)
            ff = sum(net.link(lid).free_flow_s for lid in seq)
            paths.append(Path(len(paths), od_index, seq, ff))
            link_seqs.append(tuple(net.link_index[lid] for lid in seq))
        slices.append(slice(start, len(paths)))
    od_of_path = np.array([p.od_index for p in paths], dtype=np.intp)
    ff = np.array([p.free_flow_s for p in paths])
    return PathSet(tuple(paths), tuple(slices), od_of_path, ff, tuple(link_seqs))


def incidence_matrix(path_set, net):
    """Link-path incidence: entry (a, p) is 1 iff path p traverses link a."""
    delta = np.zeros((net.n_links, path_set.n_paths))
    for p, seq in enumerate(path_set.link_seq):
        for a in seq:
            delta[a, p] = 1.0
    return delta


class FineCurve:
    """Cumulative curve on a fine uniform grid."""

    def __init__(self, n_steps, dt):
        self.dt = dt
        self.v = np.zeros(n_steps + 1)

    def at(self, t):
        x = np.clip(t / self.dt, 0.0, len(self.v) - 1.0)
        i = min(int(x), len(self.v) - 2)
        return self.v[i] + (x - i) * (self.v[i + 1] - self.v[i])

    def inverse(self, n):
        i = int(np.searchsorted(self.v, max(n - 1e-12, 0.0), side="left"))
        if i == 0:
            return 0.0
        if i >= len(self.v):
            return (len(self.v) - 1) * self.dt
        lo, hi = self.v[i - 1], self.v[i]
        return ((i - 1) + (n - lo) / (hi - lo)) * self.dt


def fine_single_link_oracle(h_per_interval, dt_coarse, length, speed, cap, refine=100):
    """Point-queue integration of one capacity-limited link at dt/refine.

    Departures queue at the entrance (entry rate capped at capacity), then
    traverse at free-flow speed; the exit is again capacity-limited. Returns a
    function mapping a departure clock to travel time.
    """
    ff = length / speed
    dt = dt_coarse / refine
    horizon = len(h_per_interval) * dt_coarse
    n = int(round((horizon + 40 * 3600) / dt))
    arrivals = FineCurve(n, dt)
    entry = FineCurve(n, dt)
    exit_ = FineCurve(n, dt)
    for k in range(n):
        t = k * dt
        idx = int(t / dt_coarse)
        rate = h_per_interval[idx] / dt_coarse if idx < len(h_per_interval) else 0.0
        arrivals.v[k + 1] = arrivals.v[k] + rate * dt
        entry.v[k + 1] = entry.v[k] + min(cap * dt, arrivals.v[k + 1] - entry.v[k])
        avail = entry.at((k + 1) * dt - ff) - exit_.v[k]
        exit_.v[k + 1] = exit_.v[k] + min(cap * dt, max(avail, 0.0))
        if t > horizon and exit_.v[k + 1] >= arrivals.v[-1] - 1e-9:
            for j in range(k + 1, n):
                exit_.v[j + 1] = exit_.v[k + 1]
            break

    def travel_time(tau):
        return exit_.inverse(arrivals.at(tau)) - tau

    return travel_time


def overloaded_link_comparison():
    """Single link fed at twice capacity for ten intervals: coarse vs fine."""
    cap, length, speed = 0.25, 2400.0, 20.0
    grid = nw.TimeGrid(4800.0, 120.0)
    cols = np.zeros(40)
    cols[:10] = 2 * cap * 120.0
    link = nw.Link("1", "A", "B", length, speed, 5.0, cap, 0.2)
    net = nw.validate_network([link], [nw.OdDemand("A", "B", float(cols.sum()), 0, 0.0)])
    ps = nw.build_path_set(net)
    res = dnl.load(net, ps, grid, cols[None, :])
    oracle_tt = fine_single_link_oracle(cols, 120.0, length, speed, cap)
    mids = grid.interval_mids()
    return [(float(res.path_time[0, t]), oracle_tt(mids[t])) for t in range(16)]


def merge_comparison():
    """Two approaches into one bottleneck, symmetric overload: coarse vs fine."""
    cap_out = 0.25
    links = [
        nw.Link("a", "A", "M", 2400, 20, 5, 1.0, 0.3),
        nw.Link("b", "B", "M", 2400, 20, 5, 1.0, 0.3),
        nw.Link("m", "M", "C", 2400, 20, 5, cap_out, 0.3),
    ]
    demands = [nw.OdDemand("A", "C", 360, 0, 0.0), nw.OdDemand("B", "C", 360, 0, 0.0)]
    net = nw.validate_network(links, demands)
    ps = nw.build_path_set(net)
    grid = nw.TimeGrid(7200.0, 120.0)
    h = np.zeros((2, 60))
    h[:, :10] = 36.0
    res = dnl.load(net, ps, grid, h)
    # the symmetric merge grants each approach half the bottleneck capacity,
    # so one approach behaves as a single link at cap/2 plus the bottleneck
    ff_in = 2400 / 20.0
    oracle_tt = fine_single_link_oracle(h[0], 120.0, 2400.0, 20.0, cap_out / 2)
    mids = grid.interval_mids()
    return [(float(res.path_time[0, t]), oracle_tt(mids[t]) + ff_in) for t in range(0, 12)]


def partially_full_supply_comparison():
    """Receiving-rate evaluations on coarse vs hundredfold-refined curves.

    Builds one smooth occupancy history (ramp in, slower ramp out), samples it
    at the departure interval and at a hundredth of it, and evaluates the
    receiving rule on both samplings at several probe times.
    """
    cap, length, wave, jam = 0.4, 2400.0, 5.0, 0.1
    storage = jam * length
    wave_lag = length / wave
    dt = 120.0

    # smooth accelerating inflow and delayed quadratic discharge, so coarse
    # and fine samplings genuinely differ through interpolation
    def n_up(t):
        return max(t, 0.0) ** 2 / 12000.0

    def n_dn(t):
        return max(t - 600.0, 0.0) ** 2 / 24000.0

    def sample(curve, step, n):
        return np.array([curve(k * step) for k in range(n + 1)])

    coarse_up = sample(n_up, dt, 80)
    coarse_dn = sample(n_dn, dt, 80)
    fine_up = sample(n_up, dt / 100, 8000)
    fine_dn = sample(n_dn, dt / 100, 8000)

    out = []
    for t in (1500.0, 1570.0, 1630.0, 1690.0):
        def rate(up, dn, step):
            # the step refines only the curve sampling; the rule's budget
            # window stays one departure interval
            lagged = FineCurve(len(dn) - 1, step)
            lagged.v = dn
            now = FineCurve(len(up) - 1, step)
            now.v = up
            return link_supply_rates(
                lagged.at(t - wave_lag), now.at(t), storage, cap, dt
            )

        out.append((rate(coarse_up, coarse_dn, dt), rate(fine_up, fine_dn, dt / 100)))
    return out


def diverge_comparison():
    """One approach splitting into a throttled and a free branch, fixed mix."""
    links = [
        nw.Link("a", "A", "M", 2400, 20, 5, 1.0, 0.3),
        nw.Link("x", "M", "X", 2400, 20, 5, 0.05, 0.3),
        nw.Link("y", "M", "Y", 2400, 20, 5, 1.0, 0.3),
    ]
    demands = [nw.OdDemand("A", "X", 120, 0, 0.0), nw.OdDemand("A", "Y", 120, 0, 0.0)]
    net = nw.validate_network(links, demands)
    ps = nw.build_path_set(net)
    grid = nw.TimeGrid(9600.0, 120.0)
    h = np.zeros((2, 80))
    h[:, :10] = 12.0
    res = dnl.load(net, ps, grid, h)

    # fine grid: even path mix, the whole sendable flow scales so the
    # throttled branch's supply is respected
    refine = 100
    dt = 120.0 / refine
    n = int(9600 / dt) + 40 * 100
    ff = 120.0
    arr = FineCurve(n, dt)
    ent = FineCurve(n, dt)
    ex_a = FineCurve(n, dt)
    for k in range(n):
        t = k * dt
        idx = int(t / 120.0)
        rate = 24.0 / 120.0 if idx < 10 else 0.0
        arr.v[k + 1] = arr.v[k] + rate * dt
        ent.v[k + 1] = ent.v[k] + min(1.0 * dt, arr.v[k + 1] - ent.v[k])
        avail = ent.at((k + 1) * dt - ff) - ex_a.v[k]
        send = min(1.0 * dt, max(avail, 0.0))
        theta = min(1.0, (0.05 * dt) / (send / 2)) if send > 0 else 1.0
        ex_a.v[k + 1] = ex_a.v[k] + theta * send

    def oracle_tt(tau):
        return ex_a.inverse(arr.at(tau)) + ff - tau

    mids = grid.interval_mids()
    return [(float(res.path_time[0, t]), oracle_tt(mids[t])) for t in range(0, 12)]
