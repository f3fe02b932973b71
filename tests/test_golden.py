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
from oracles import step_cap

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
    net, ps, grid, h, _ = CASES["sparse_lattice"]
    used = sorted({a for seq in ps.link_seq for a in seq})
    unused = np.setdiff1d(np.arange(net.n_links), used)
    ff = np.array([link.free_flow_s for link in net.links])
    refine = np.ceil(grid.dt_s / ff.min())
    assert int(np.argmin(ff)) in unused and refine > np.ceil(grid.dt_s / ff[used].min())
    res = dnl.load(net, ps, grid, h)
    assert res.sim_dt_s == grid.dt_s / refine
    for got in (res, dnl.load_batch(res, h[None], [0])[0]):
        assert got.n_up.shape == got.n_dn.shape == (net.n_links, res.n_steps + 1)
        assert not got.n_up[unused].any() and not got.n_dn[unused].any()
        assert got.n_up[used, -1].all()


@pytest.mark.parametrize("seed", range(5))
def test_drain_sum_adds_every_link_in_link_order(seed):
    # numpy sums 8 or more numbers pairwise by position, so the used links'
    # stored vehicles are summed at their places among all links
    net, ps, grid, _, _ = CASES["sparse_lattice"]
    plan = dnl._plan(net.links, ps.link_seq, grid)
    B, A, n_src = 3, plan.A, len(plan.source_links)
    assert 8 <= A < net.n_links
    inside = np.random.default_rng(seed).uniform(0.0, 1.0, B * (A + n_src))
    links = np.zeros((B, net.n_links))
    links[:, plan.used_links] = inside[: B * A].reshape(B, A)[::-1]  # copies B-1, ..., 0
    sources = inside[B * A :].reshape(B, n_src)
    want = [np.sum(links[j]) + np.sum(sources[j]) for j in range(B)]
    every_link = np.empty(net.n_links)
    got = [dnl._kernel().dnl_stored(inside.ctypes.data, plan.used_links.ctypes.data, B, A,
                                    n_src, net.n_links, j, every_link.ctypes.data)
           for j in range(B)]
    assert got == want


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
        warm = dnl.load_batch(got, changed[None], [k])[0]
    assert_same(outputs(got, net, ps), {f: getattr(want, f) for f in FIELDS})
    assert np.isnan(warm.path_time[:, :k]).all()
    assert_same(started_outputs(warm, k, net, ps),
                {**outputs(cold, net, ps), **timed_from(cold, k)})


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
    """``outputs`` of a batch pattern started at interval k, whose path times
    begin there; its instantaneous times, which a batch does not compute, sum
    its link times hop by hop as ``load`` sums them."""
    got = outputs(res, net, ps)
    instant = np.zeros_like(res.path_time)
    for p, seq in enumerate(ps.link_seq):
        for a in seq:
            instant[p] += got["link_time"][a]
    return {**got, **timed_from(res, k), "instant_path_time": instant}
