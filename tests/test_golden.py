"""Loader outputs equal the stored golden arrays and the loop loader bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_cases
import loop_loader
import map_cases
from dsuedhi import dnl
from dsuedhi import network as nw
from golden_cases import FIELDS, GOLDEN, cases, load, outputs
from oracles import step_cap, stepped

CASES = cases()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {key: data[key] for key in data.files}


def assert_same(got: dict, want: dict) -> None:
    for field in FIELDS:
        assert np.shape(got[field]) == np.shape(want[field]), field
        assert np.array_equal(got[field], want[field]), field


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_matches_golden_exactly(golden, name):
    got = outputs(load(CASES[name]), *CASES[name][:2])
    assert_same(got, {f: golden[f"{name}__{f}"] for f in FIELDS})


@pytest.mark.parametrize("recorder", [golden_cases, map_cases], ids=["loader", "map"])
def test_recorder_writes_the_committed_file(tmp_path, recorder):
    # the scripts that regenerate the golden files reproduce them as committed
    path = tmp_path / recorder.GOLDEN.name
    recorder.record(path)
    with np.load(path) as got, np.load(recorder.GOLDEN) as want:
        assert sorted(got.files) == sorted(want.files)
        for key in want.files:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key


def test_cases_cover_wide_links_and_refinement():
    net, ps, grid, h, _ = CASES["wide_lattice"]
    slots = np.bincount([a for seq in ps.link_seq for a in seq])
    assert slots.max() >= 8
    assert dnl.load(net, ps, grid, h).sim_dt_s == grid.dt_s / 2
    capped = load(CASES["three_link_capped"])
    assert not capped.drained and capped.extrapolated.any()


def test_unused_links_carry_nothing_and_keep_the_refine_factor():
    # the shortest link, an exit ramp that no path uses, would need a finer
    # step than the used links; the loader's step is the used links' own
    net, ps, grid, h, _ = CASES["sparse_lattice"]
    used = sorted({a for seq in ps.link_seq for a in seq})
    unused = np.setdiff1d(np.arange(net.n_links), used)
    ff = np.array([link.free_flow_s for link in net.links])
    refine = np.ceil(grid.dt_s / ff[used].min())
    assert int(np.argmin(ff)) in unused and np.ceil(grid.dt_s / ff.min()) > refine
    res = dnl.load(net, ps, grid, h)
    assert res.sim_dt_s == grid.dt_s / refine
    for got in (res, stepped(res, h[None], [0])[0]):
        assert got.n_up.shape == got.n_dn.shape == (net.n_links, res.n_steps + 1)
        assert not got.n_up[unused].any() and not got.n_dn[unused].any()
        assert got.n_up[used, -1].all()


def random_lattice(seed: int):
    """A lattice with random size, link parameters, ODs, paths and departures.

    Link lengths are drawn so that the loader refines each interval into one,
    two or three steps; a short step cap sometimes leaves trips extrapolated.
    """
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 5, size=2)
    base = rng.choice([2500.0, 1300.0, 900.0])
    links = []
    for r in range(rows):
        for c in range(cols):
            for link_id, head, ok in ((f"e{r}{c}", f"n{r}{c + 1}", c + 1 < cols),
                                      (f"s{r}{c}", f"n{r + 1}{c}", r + 1 < rows)):
                if ok:
                    links.append(nw.Link(link_id, f"n{r}{c}", head,
                                         float(base * rng.uniform(1.0, 1.4)), 20.0, 5.0,
                                         float(rng.uniform(0.1, 0.6)),
                                         float(rng.uniform(0.1, 0.2))))
    # corner to corner has the most paths, so links with many path slots
    pairs = {("n00", f"n{rows - 1}{cols - 1}")}
    for _ in range(rng.integers(0, 4)):
        o = (int(rng.integers(0, rows - 1)), int(rng.integers(0, cols - 1)))
        d = (int(rng.integers(o[0] + 1, rows)), int(rng.integers(o[1] + 1, cols)))
        pairs.add((f"n{o[0]}{o[1]}", f"n{d[0]}{d[1]}"))
    ods = [nw.OdDemand(o, d, 1.0, 0.0, 1800.0) for o, d in sorted(pairs)]
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net, k_max=int(rng.integers(1, 21)), time_ratio=3.0, length_ratio=3.0)
    grid = nw.TimeGrid(120.0 * int(rng.integers(4, 13)), 120.0)
    h = rng.uniform(0.0, rng.choice([0.5, 20.0, 60.0]), size=(ps.n_paths, grid.n_intervals))
    h[rng.random(h.shape) < 0.3] = 0.0
    cap = None if rng.random() < 0.7 else int(rng.integers(0, 6))
    return net, ps, grid, h, cap


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_load_matches_loop_loader_on_random_lattices(seed):
    net, ps, grid, h, cap = random_lattice(seed)
    want = loop_loader.load(net, ps, grid, h, drain_max_steps=cap)
    # a warm start from this loading equals a cold load of changed departures
    k = int(np.random.default_rng(seed).integers(0, grid.n_intervals))
    changed = h.copy()
    changed[:, k:] = changed[:, k:][::-1]
    with step_cap(cap):
        got = dnl.load(net, ps, grid, h)
        cold = dnl.load(net, ps, grid, changed)
        batch = dnl.load_batch(got, changed[None], [k])
        warm = stepped(got, changed[None], [k])[0]
    assert_same(outputs(got, net, ps), {f: getattr(want, f) for f in FIELDS})
    assert np.isnan(batch.path_time[0, :, :k]).all()
    for f in ("path_time", "extrapolated"):
        assert np.array_equal(getattr(batch, f)[0, :, k:], getattr(cold, f)[:, k:]), f
    assert (batch.n_steps[0], batch.drained[0]) == (cold.n_steps, cold.drained)
    assert_same(started_outputs(warm, k, net, ps),
                {**outputs(cold, net, ps), **timed_from(cold, k)})


def with_unused_links(net, ps, seed: int):
    """``net`` and ``ps`` with 1-6 disconnected links whose ids fall between the
    existing ones, with free-flow times of 0.2 to 2 times that of the fastest
    link a path uses; the first is faster than every used link."""
    rng = np.random.default_rng([seed, 1])
    fastest = min(net.links[a].free_flow_s for seq in ps.link_seq for a in seq)
    after = rng.choice(net.n_links, size=min(net.n_links, int(rng.integers(1, 7))), replace=False)
    scale = rng.uniform(0.2, 2.0, len(after))
    scale[0] = rng.uniform(0.2, 1.0)
    extra = [nw.Link(f"{net.links[a].link_id}x", f"u{i}", f"v{i}",
                     20.0 * fastest * float(scale[i]), 20.0, 5.0,
                     float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.2)))
             for i, a in enumerate(after)]
    wide = nw.validate_network([*net.links, *extra], net.od_pairs)
    seqs = tuple(tuple(wide.link_index[lid] for lid in p.link_ids) for p in ps.paths)
    return wide, dataclasses.replace(ps, link_seq=seqs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_links_that_no_path_uses_change_nothing(seed):
    # a loading reads only the rows of used links and sources, so the same
    # paths on a network with more links give the same bytes
    net, ps, grid, h, cap = random_lattice(seed)
    wide, wide_ps = with_unused_links(net, ps, seed)
    rng = np.random.default_rng([seed, 2])
    starts = np.sort(rng.integers(0, grid.n_intervals, 3))
    patterns = h * rng.uniform(0.5, 1.5, (3, *h.shape))
    got = []
    with step_cap(cap):
        for n, p in ((net, ps), (wide, wide_ps)):
            res = dnl.load(n, p, grid, h)
            batch = dnl.load_batch(res, patterns, starts)
            arrays = [getattr(res, f) for f in ("path_time", "extrapolated", "instant_path_time",
                                                "link_up", "link_dn", "src_up", "src_dn")]
            arrays += [getattr(batch, f) for f in ("path_time", "extrapolated", "n_steps",
                                                   "drained")]
            got.append((res.sim_dt_s, res.n_steps, res.drained, [x.tobytes() for x in arrays]))
    assert got[1] == got[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_plan_arrays_follow_their_definitions(seed):
    net, ps, grid, _, _ = random_lattice(seed)
    net, ps = with_unused_links(net, ps, seed)
    plan = dnl._Plan(net.links, ps.link_seq, grid)
    # rows: the used links in link order, then one source per distinct first link
    used = sorted({a for seq in ps.link_seq for a in seq})
    sources = sorted({seq[0] for seq in ps.link_seq})
    row = {("link", a): r for r, a in enumerate(used)}
    row |= {("source", a): len(used) + s for s, a in enumerate(sources)}
    assert (plan.used_links.tolist(), list(plan.source_links)) == (used, sources)
    assert plan.src_links.tolist() == [row["link", a] for a in sources]
    links = [net.links[a] for a in used]
    assert plan.ff.tolist() == [link.free_flow_s for link in links]
    assert plan.cap.tolist() == [link.capacity_vps for link in links]
    assert plan.wave_lag.tolist() == [link.length_m / link.backward_wave_mps for link in links]
    assert plan.storage.tolist() == [link.storage_veh for link in links]
    # each path's rows: its source, then its links, padded with -1
    hops = max(map(len, ps.link_seq))
    for p, seq in enumerate(ps.link_seq):
        rows = [row["source", seq[0]], *(row["link", a] for a in seq)]
        assert plan.path_rows[p].tolist() == rows + [-1] * (hops + 1 - len(rows))
    # slots: row-major, in path order within a row; a row's slots start at row_start
    pairs = list(zip(plan.slot_row.tolist(), plan.slot_path.tolist()))
    assert pairs == sorted((r, p) for p, rows in enumerate(plan.path_rows.tolist())
                           for r in rows if r >= 0)
    R = len(used) + len(sources)
    assert plan.block.arrays[0].tolist() == np.searchsorted(plan.slot_row, np.arange(R + 1)).tolist()
    assert plan.n_link_slots == sum(map(len, ps.link_seq))
    # slot_next and slot_dest walk each path's rows from its source slot and end at -1
    for p, rows in enumerate(plan.path_rows.tolist()):
        j, walked = pairs.index((rows[0], p)), [rows[0]]
        while plan.slot_next[j] >= 0:
            j, nxt = plan.slot_dest[j], plan.slot_next[j]
            assert pairs[j] == (nxt, p)
            walked.append(nxt)
        assert plan.slot_dest[j] == -1 and walked == [r for r in rows if r >= 0]
    # the refine factor comes from the used links alone
    fastest = min(link.free_flow_s for link in links)
    assert plan.refine == max(1, int(np.ceil(grid.dt_s / fastest - 1e-12)))
    assert plan.dt == grid.dt_s / plan.refine


def test_loads_of_networks_that_differ_in_one_link_or_the_grid_use_their_own_plans():
    # the loader keeps a plan per (links, path link sequences, grid): two
    # networks with one path set and grid that differ in one link's capacity,
    # and the same links on another dt, loaded in turn, each equal the loop
    # loader, and loading the first again gives the first result again
    net, ps, grid, h, _ = CASES["three_link"]
    links = list(net.links)
    links[0] = dataclasses.replace(links[0], capacity_vps=links[0].capacity_vps / 2)
    narrow = nw.validate_network(links, net.od_pairs)
    fine = nw.TimeGrid(grid.horizon_s, grid.dt_s / 2)
    runs = [(net, grid, h), (narrow, grid, h), (net, grid, h),
            (net, fine, np.repeat(h / 2, 2, axis=1))]
    got = []
    for n, g, d in runs:
        got.append(outputs(dnl.load(n, ps, g, d), n, ps))
        want = loop_loader.load(n, ps, g, d)
        assert_same(got[-1], {f: getattr(want, f) for f in FIELDS})
    assert_same(got[2], got[0])
    assert not np.array_equal(got[1]["path_time"], got[0]["path_time"])


def timed_from(res: dnl.LoadingResult, k: int) -> dict:
    return {f: getattr(res, f)[:, k:] for f in ("path_time", "extrapolated")}


def started_outputs(res: dnl.LoadingResult, k: int, net, ps) -> dict:
    """``outputs`` of a batch pattern started at interval k (``oracles.stepped``),
    whose path times begin there; its instantaneous times, which a batch does
    not compute, sum its link times hop by hop as ``load`` sums them."""
    got = outputs(res, net, ps)
    instant = np.zeros_like(res.path_time)
    for p, seq in enumerate(ps.link_seq):
        for a in seq:
            instant[p] += got["link_time"][a]
    return {**got, **timed_from(res, k), "instant_path_time": instant}
