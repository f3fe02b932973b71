"""Reference loader for exactness tests: ``dnl.load`` as a loop over links.

This is the loader as it was before the whole-network stepper, kept
unchanged apart from its interface: it takes a plain departure matrix, has
no warm start, counts no calls, raises ``ValueError`` and returns a
``SimpleNamespace`` with the fields of ``dnl.LoadingResult``. ``dnl.load``
must reproduce its outputs bit for bit. Beside its scalar rate rules are
their array forms, which the rule tests and ``oracles`` use.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from dsuedhi.network import Network, PathSet, TimeGrid

_EPS_VEH = 1e-12


def link_demand_rate(
    n_up_lagged: float,
    n_dn_now: float,
    arrival_mass: float,
    capacity_vps: float,
    dt_s: float,
) -> float:
    """Sending flow rate of one link over one step.

    ``n_up_lagged`` is the upstream cumulative count one free-flow time ago,
    ``arrival_mass`` the flow reaching the downstream end during the step when
    no backlog is queued.
    """
    backlog = n_up_lagged - n_dn_now
    if backlog > _EPS_VEH:
        return min(capacity_vps, backlog / dt_s)
    return min(capacity_vps, max(arrival_mass, 0.0) / dt_s)


def link_supply_rate(
    n_dn_wave_lagged: float,
    n_up_now: float,
    storage_veh: float,
    capacity_vps: float,
    dt_s: float,
) -> float:
    """Receiving flow rate of one link over one step, floored at zero."""
    room = n_dn_wave_lagged + storage_veh - n_up_now
    return max(0.0, min(capacity_vps, room / dt_s))


def link_demand_rates(n_up_lagged, n_dn_now, arrival_mass, capacity_vps, dt_s):
    """``link_demand_rate`` elementwise over arrays, as numpy evaluates it."""
    backlog = np.subtract(n_up_lagged, n_dn_now)
    queued = np.minimum(capacity_vps, backlog / dt_s)
    free = np.minimum(capacity_vps, np.maximum(arrival_mass, 0.0) / dt_s)
    return np.where(backlog > _EPS_VEH, queued, free)[()]


def link_supply_rates(n_dn_wave_lagged, n_up_now, storage_veh, capacity_vps, dt_s):
    """``link_supply_rate`` elementwise over arrays, as numpy evaluates it."""
    room = np.add(n_dn_wave_lagged, storage_veh) - n_up_now
    return np.maximum(0.0, np.minimum(capacity_vps, room / dt_s))[()]


def _interp(values: np.ndarray, dt: float, t: float) -> float:
    """Piecewise-linear value of a boundary-sampled curve, clamped outside."""
    if t <= 0.0:
        return float(values[0])
    x = t / dt
    idx = int(x)
    last = len(values) - 1
    if idx >= last:
        return float(values[last])
    return float(values[idx]) + (x - idx) * (float(values[idx + 1]) - float(values[idx]))


def _interp_vec(values: np.ndarray, dt: float, times: np.ndarray) -> np.ndarray:
    last = len(values) - 1
    x = np.clip(times / dt, 0.0, float(last))
    idx = np.minimum(x.astype(np.intp), last - 1)
    frac = x - idx
    return values[idx] + frac * (values[idx + 1] - values[idx])


def _invert_vec(
    values: np.ndarray, dt: float, targets: np.ndarray, rate_beyond: float
) -> tuple[np.ndarray, np.ndarray]:
    """Earliest times at which a non-decreasing curve reaches the targets.

    Targets are relaxed by a vanishing epsilon so that a probe carrying only
    numerical dust (logit tail masses far below one vehicle) does not wait for
    the next real cohort. Beyond the last sample the curve is extended at
    ``rate_beyond``; the second return flags targets that needed that
    extension.
    """
    targets = np.asarray(targets, dtype=float)
    targets = np.maximum(targets - (_EPS_VEH + _EPS_VEH * targets), 0.0)
    idx = np.searchsorted(values, targets, side="left")
    out = np.empty_like(targets)
    beyond = idx >= len(values)
    inside = (~beyond) & (idx > 0)
    at_zero = idx == 0
    out[at_zero] = 0.0
    if np.any(inside):
        i = idx[inside]
        lo = values[i - 1]
        hi = values[i]
        out[inside] = ((i - 1) + (targets[inside] - lo) / (hi - lo)) * dt
    if np.any(beyond):
        out[beyond] = (len(values) - 1) * dt + (targets[beyond] - values[-1]) / rate_beyond
    return out, beyond


def _invert(values: np.ndarray, dt: float, target: float, rate_beyond: float) -> float:
    out, _ = _invert_vec(values, dt, np.array([target]), rate_beyond)
    return float(out[0])


class _Plan:
    """Static per-(network, path set) structure used by the stepper."""

    def __init__(self, net: Network, path_set: PathSet):
        self.n_links = net.n_links
        self.ff = np.array([l.free_flow_s for l in net.links])
        self.wave_lag = np.array([l.length_m / l.backward_wave_mps for l in net.links])
        self.cap = np.array([l.capacity_vps for l in net.links])
        self.storage = np.array([l.storage_veh for l in net.links])

        first_links = sorted({seq[0] for seq in path_set.link_seq})
        self.source_links = tuple(first_links)
        self.src_index = {a: s for s, a in enumerate(first_links)}
        self.src_of_path = np.array(
            [self.src_index[seq[0]] for seq in path_set.link_seq], dtype=np.intp
        )
        self.src_paths: list[list[int]] = [[] for _ in first_links]
        for p, seq in enumerate(path_set.link_seq):
            self.src_paths[self.src_index[seq[0]]].append(p)

        # per link: paths traversing it and each path's successor link (-1 exits)
        self.link_paths: list[list[int]] = [[] for _ in range(net.n_links)]
        self.link_next: list[list[int]] = [[] for _ in range(net.n_links)]
        for p, seq in enumerate(path_set.link_seq):
            for pos, a in enumerate(seq):
                self.link_paths[a].append(p)
                self.link_next[a].append(seq[pos + 1] if pos + 1 < len(seq) else -1)
        # slot of each path within its downstream link's slot list
        self.slot_in_link = [
            {p: j for j, p in enumerate(paths)} for paths in self.link_paths
        ]
        self.link_targets: list[np.ndarray] = [
            np.array(nxt, dtype=np.intp) for nxt in self.link_next
        ]


def load(
    net: Network,
    path_set: PathSet,
    grid: TimeGrid,
    departures: np.ndarray,
    *,
    compute_link_times: bool = True,
    drain_max_steps: int | None = None,
) -> SimpleNamespace:
    """The loop loader: Python loops over links and sources in every step."""
    h = np.asarray(departures, dtype=float)
    T = grid.n_intervals
    if h.shape != (path_set.n_paths, T):
        raise ValueError(f"departure matrix shape {h.shape} != (paths, intervals) "
                       f"({path_set.n_paths}, {T})")
    if h.min(initial=0.0) < -1e-9:
        raise ValueError("negative departures")
    h = np.maximum(h, 0.0)

    plan = _Plan(net, path_set)
    A = plan.n_links
    n_src = len(plan.source_links)
    # refine the internal step until every link spans at least one step
    min_ff = float(plan.ff.min()) if A else grid.dt_s
    refine = max(1, int(np.ceil(grid.dt_s / min_ff - 1e-12)))
    dt = grid.dt_s / refine
    t_sim = T * refine
    if drain_max_steps is None:
        drain_max_steps = 20 * t_sim + 200
    s_max = t_sim + drain_max_steps

    # exogenous source entry curves (known for the whole horizon up front);
    # departures ramp linearly inside each departure interval
    h_cum = np.concatenate([np.zeros((path_set.n_paths, 1)), np.cumsum(h, axis=1)], axis=1)
    fine = np.linspace(0.0, 1.0, refine + 1)[1:-1] if refine > 1 else np.empty(0)
    src_up = np.zeros((n_src, s_max + 1))
    psrc_up: list[np.ndarray] = []
    for s, paths in enumerate(plan.src_paths):
        rows = h_cum[paths]
        curve = np.empty((len(paths), s_max + 1))
        curve[:, : t_sim + 1 : refine] = rows
        for j, frac in enumerate(fine, start=1):
            curve[:, j : t_sim + 1 : refine] = rows[:, :-1] + frac * np.diff(rows, axis=1)
        curve[:, t_sim + 1 :] = rows[:, -1:]
        psrc_up.append(curve)
        src_up[s] = curve.sum(axis=0)
    total_demand = float(h.sum())

    n_up = np.zeros((A, s_max + 1))
    n_dn = np.zeros((A, s_max + 1))
    src_dn = np.zeros((n_src, s_max + 1))
    pup = [np.zeros((len(paths), s_max + 1)) for paths in plan.link_paths]

    drain_tol = 1e-9 * max(1.0, total_demand)
    cap = plan.cap
    ff = plan.ff
    wave = plan.wave_lag
    storage = plan.storage

    n_steps = s_max
    drained = False
    for t in range(s_max):
        now = t * dt
        n_up[:, t + 1] = n_up[:, t]
        n_dn[:, t + 1] = n_dn[:, t]
        src_dn[:, t + 1] = src_dn[:, t]
        for a in range(A):
            pup[a][:, t + 1] = pup[a][:, t]

        # sending masses and FIFO compositions
        comps: list[np.ndarray | None] = [None] * A
        for a in range(A):
            ndn_now = float(n_dn[a, t])
            nup_lag = _interp(n_up[a], dt, now - ff[a])
            arr_hi = _interp(n_up[a], dt, min(now + dt - ff[a], now))
            rate = link_demand_rate(nup_lag, ndn_now, arr_hi - nup_lag, cap[a], dt)
            mass = rate * dt
            if mass <= _EPS_VEH:
                continue
            bound = (nup_lag if nup_lag - ndn_now > _EPS_VEH else arr_hi) - ndn_now
            mass = min(mass, bound)
            tau0 = _invert(n_up[a][: t + 1], dt, ndn_now, cap[a])
            tau1 = _invert(n_up[a][: t + 1], dt, ndn_now + mass, cap[a])
            comp = (
                _interp_cols(pup[a], t + 1, dt, tau1)
                - _interp_cols(pup[a], t + 1, dt, tau0)
            )
            np.maximum(comp, 0.0, out=comp)
            total = comp.sum()
            if total > 0.0:
                comp *= mass / total
            comps[a] = comp

        src_mass = np.zeros(n_src)
        src_comps: list[np.ndarray | None] = [None] * n_src
        for s in range(n_src):
            mass = float(src_up[s, t + 1] - src_dn[s, t])
            if mass <= _EPS_VEH:
                continue
            tau0 = _invert(src_up[s][: t + 2], dt, float(src_dn[s, t]), 1.0)
            tau1 = _invert(src_up[s][: t + 2], dt, float(src_dn[s, t]) + mass, 1.0)
            comp = (
                _interp_cols(psrc_up[s], t + 2, dt, tau1)
                - _interp_cols(psrc_up[s], t + 2, dt, tau0)
            )
            np.maximum(comp, 0.0, out=comp)
            total = comp.sum()
            if total > 0.0:
                comp *= mass / total
            src_mass[s] = mass
            src_comps[s] = comp

        # receiving masses and movement aggregation
        recv_mass = np.empty(A)
        for b in range(A):
            ndn_wave = _interp(n_dn[b], dt, now - wave[b])
            recv_mass[b] = (
                link_supply_rate(ndn_wave, float(n_up[b, t]), storage[b], cap[b], dt) * dt
            )

        inflow_demand = np.zeros(A)
        for a in range(A):
            if comps[a] is None:
                continue
            targets = plan.link_targets[a]
            mask = targets >= 0
            if np.any(mask):
                np.add.at(inflow_demand, targets[mask], comps[a][mask])
        for s in range(n_src):
            if src_comps[s] is not None:
                inflow_demand[plan.source_links[s]] += src_mass[s]

        factor = np.ones(A)
        constrained = inflow_demand > recv_mass
        factor[constrained] = recv_mass[constrained] / inflow_demand[constrained]

        # apply flows: diverge scaling, per-path transfer to successor links
        for a in range(A):
            comp = comps[a]
            if comp is None:
                continue
            targets = plan.link_targets[a]
            theta = 1.0
            for j in range(len(targets)):
                b = targets[j]
                if b >= 0 and comp[j] > 0.0:
                    f = factor[b]
                    if f < theta:
                        theta = f
            if theta <= 0.0:
                continue
            out = comp if theta == 1.0 else comp * theta
            n_dn[a, t + 1] += out.sum()
            paths_a = plan.link_paths[a]
            for j in range(len(targets)):
                b = targets[j]
                if b >= 0 and out[j] > 0.0:
                    slot = plan.slot_in_link[b][paths_a[j]]
                    pup[b][slot, t + 1] += out[j]
                    n_up[b, t + 1] += out[j]
        for s in range(n_src):
            comp = src_comps[s]
            if comp is None:
                continue
            b = plan.source_links[s]
            theta = factor[b]
            if theta <= 0.0:
                continue
            out = comp if theta == 1.0 else comp * theta
            src_dn[s, t + 1] += out.sum()
            n_up[b, t + 1] += out.sum()
            paths_s = plan.src_paths[s]
            for j in range(len(paths_s)):
                if out[j] > 0.0:
                    slot = plan.slot_in_link[b][paths_s[j]]
                    pup[b][slot, t + 1] += out[j]

        if t + 1 >= t_sim:
            stored = float(np.sum(n_up[:, t + 1] - n_dn[:, t + 1]))
            stored += float(np.sum(src_up[:, t + 1] - src_dn[:, t + 1]))
            if stored <= drain_tol:
                n_steps = t + 1
                drained = True
                break

    S = n_steps
    n_up = np.ascontiguousarray(n_up[:, : S + 1])
    n_dn = np.ascontiguousarray(n_dn[:, : S + 1])
    src_up = np.ascontiguousarray(src_up[:, : S + 1])
    src_dn = np.ascontiguousarray(src_dn[:, : S + 1])
    pup = [np.ascontiguousarray(c[:, : S + 1]) for c in pup]

    path_time, extrapolated = _path_times(plan, path_set, grid, dt, n_up, n_dn, src_up, src_dn)
    link_time = None
    instant = None
    if compute_link_times:
        link_time = _link_times(plan, grid, dt, n_up, n_dn)
        instant = np.zeros((path_set.n_paths, T))
        for p, seq in enumerate(path_set.link_seq):
            for a in seq:
                instant[p] += link_time[a]

    return SimpleNamespace(
        grid=grid,
        n_steps=S,
        sim_dt_s=dt,
        n_up=n_up,
        n_dn=n_dn,
        src_up=src_up,
        src_dn=src_dn,
        source_links=plan.source_links,
        path_time=path_time,
        extrapolated=extrapolated,
        link_time=link_time,
        instant_path_time=instant,
        drained=drained,
    )


def _interp_cols(curves: np.ndarray, n_known: int, dt: float, t: float) -> np.ndarray:
    """Interpolate several boundary-sampled curves (rows) at one time."""
    last = n_known - 1
    if t <= 0.0:
        return curves[:, 0].copy()
    x = t / dt
    idx = int(x)
    if idx >= last:
        return curves[:, last].copy()
    frac = x - idx
    return curves[:, idx] + frac * (curves[:, idx + 1] - curves[:, idx])


def _link_times(plan: _Plan, grid: TimeGrid, sim_dt: float, n_up, n_dn) -> np.ndarray:
    """Travel time for entry at each departure-interval boundary, per link."""
    times = grid.interval_starts()
    out = np.empty((plan.n_links, grid.n_intervals))
    for a in range(plan.n_links):
        entries = _interp_vec(n_up[a], sim_dt, times)
        exit_t, _ = _invert_vec(n_dn[a], sim_dt, entries, plan.cap[a])
        out[a] = np.maximum(plan.ff[a], exit_t - times)
    return out


def _path_times(
    plan: _Plan, path_set: PathSet, grid: TimeGrid, sim_dt: float, n_up, n_dn, src_up, src_dn
) -> tuple[np.ndarray, np.ndarray]:
    """Chain FIFO exit times through source and links, per departure interval.

    The probe for interval t is the cohort's median vehicle: it departs at the
    interval midpoint with half of its own column ahead of it, so a column
    feels the queue it builds itself.
    """
    mids = grid.interval_mids()
    path_time = np.empty((path_set.n_paths, grid.n_intervals))
    extrapolated = np.zeros((path_set.n_paths, grid.n_intervals), dtype=bool)
    for p, seq in enumerate(path_set.link_seq):
        s = plan.src_of_path[p]
        counts = _interp_vec(src_up[s], sim_dt, mids)
        clock, beyond = _invert_vec(src_dn[s], sim_dt, counts, plan.cap[seq[0]])
        clock = np.maximum(clock, mids)
        flagged = beyond.copy()
        for a in seq:
            counts = _interp_vec(n_up[a], sim_dt, clock)
            exit_t, beyond = _invert_vec(n_dn[a], sim_dt, counts, plan.cap[a])
            clock = np.maximum(clock + plan.ff[a], exit_t)
            flagged |= beyond
        path_time[p] = clock - mids
        extrapolated[p] = flagged
    return path_time, extrapolated
