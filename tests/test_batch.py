"""A batch of patterns loads exactly as the same patterns loaded alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsuedhi import dnl
from oracles import step_cap
from test_golden import random_lattice

FIELDS = ("path_time", "extrapolated", "n_steps", "drained", "n_up", "n_dn", "src_up",
          "src_dn")


def assert_batch_equals_solo(net, ps, grid, batch, cap=None):
    with step_cap(cap):
        got = dnl.load_batch(net, ps, grid, batch)
        solos = [dnl.load(net, ps, grid, pattern) for pattern in batch]
    assert len(got) == len(batch)
    for solo, res in zip(solos, got):
        for field in FIELDS:
            a, b = getattr(res, field), getattr(solo, field)
            assert np.shape(a) == np.shape(b), field
            assert np.array_equal(a, b), field
    return got


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 6))
def test_batch_equals_solo_loads_on_random_lattices(seed, size):
    net, ps, grid, h, cap = random_lattice(seed)
    rng = np.random.default_rng(seed)
    # scaled patterns drain at different steps; a late burst drains last
    batch = np.stack([h * rng.uniform(0.0, 3.0) for _ in range(size)])
    batch[-1, :, -1] += rng.uniform(0.0, 80.0, size=ps.n_paths)
    assert_batch_equals_solo(net, ps, grid, batch, cap)


def test_batch_drains_at_different_steps_and_keeps_a_capped_pattern(three_link):
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    light = np.zeros((ps.n_paths, T))
    light[:, 0] = 1.0
    heavy = np.zeros((ps.n_paths, T))
    heavy[:, :20] = 40.0
    got = assert_batch_equals_solo(net, ps, grid, np.stack([light, heavy, light * 2]))
    assert got[0].n_steps < got[1].n_steps and all(r.drained for r in got)
    capped = assert_batch_equals_solo(net, ps, grid, np.stack([light, heavy]), cap=3)
    assert capped[0].drained and not capped[1].drained
    assert capped[1].extrapolated.any() and capped[0].n_steps < capped[1].n_steps


def test_batch_keeps_each_patterns_own_tolerance_and_last_sample(three_link):
    # dust below a pattern's drain tolerance is still on its links when it
    # drains, so its last probes are extrapolated past its own last sample,
    # while a heavier pattern in the batch steps on
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    dusty = np.zeros((ps.n_paths, T))
    dusty[:, :6] = 10.0
    dusty[0, -1] = 1e-7
    heavy = np.zeros((ps.n_paths, T))
    heavy[:, 20:] = 40.0
    got = assert_batch_equals_solo(net, ps, grid, np.stack([dusty, heavy]))
    assert got[0].drained and got[0].extrapolated.any()
    assert got[0].n_steps < got[1].n_steps
    # a pattern of dust alone keeps its own tolerance, 1e-9 vehicles
    dust = np.zeros((ps.n_paths, T))
    dust[0, -1] = 1e-8
    got = assert_batch_equals_solo(net, ps, grid, np.stack([dust, heavy]))
    assert got[0].n_steps > T


def test_batch_grows_its_time_axis_and_splits_into_chunks(three_link, monkeypatch):
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    late = np.zeros((ps.n_paths, T))
    late[:, -1] = 1000.0  # drains long after the horizon plus half of it
    light = np.zeros((ps.n_paths, T))
    light[:, 0] = 1.0
    batch = np.stack([light, late, light, late, light])
    got = assert_batch_equals_solo(net, ps, grid, batch)
    t_sim = T * round(grid.dt_s / got[1].sim_dt_s)
    assert got[1].n_steps + 1 > dnl._first_cols(t_sim, 21 * t_sim + 200)
    monkeypatch.setattr(dnl, "_CHUNK_BYTES", 1)  # one pattern per chunk
    assert_batch_equals_solo(net, ps, grid, batch)


def test_batch_rejects_bad_shapes_and_negative_departures(three_link):
    net, ps, grid, _ = three_link
    good = np.ones((2, ps.n_paths, grid.n_intervals))
    for bad in (good[0], good[:, :, 1:], -good):
        with pytest.raises(dnl.DnlError):
            dnl.load_batch(net, ps, grid, bad)


def splice(h, tail, t):
    """``h`` with its columns from interval t on replaced by ``tail``."""
    out = h.copy()
    out[:, t:] = tail
    return out


def test_forecast_batch_equals_single_forecasts(grid_congested):
    net, ps, grid, _ = grid_congested
    rng = np.random.default_rng(21)
    h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
    ts = [0, 7, grid.n_intervals - 1]
    spliced = np.stack([splice(h, rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - t)), t)
                        for t in ts])
    base = dnl.load(net, ps, grid, h)
    batch = dnl.load_batch(net, ps, grid, spliced, base=base, starts=ts)
    assert len(batch) == len(ts)
    for t, s, res in zip(ts, spliced, batch):
        fc = res.path_time[:, t:]
        one = dnl.load_batch(net, ps, grid, s[None], base=base, starts=[t])[0].path_time[:, t:]
        assert fc.shape == one.shape == (ps.n_paths, grid.n_intervals - t)
        assert np.array_equal(fc, one)


def assert_started_equals_solo(net, ps, grid, base, batch, starts, cap=None):
    with step_cap(cap):
        got = dnl.load_batch(net, ps, grid, batch, base=base, starts=starts)
        solos = [dnl.load(net, ps, grid, pattern) for pattern in batch]
    for t, solo, res in zip(starts, solos, got):
        assert np.isnan(res.path_time[:, :t]).all() and not res.extrapolated[:, :t].any()
        assert np.array_equal(res.path_time[:, t:], solo.path_time[:, t:])
        assert np.array_equal(res.extrapolated[:, t:], solo.extrapolated[:, t:])
        for field in ("n_steps", "drained", "n_up", "n_dn", "src_up", "src_dn"):
            mine, want = getattr(res, field), getattr(solo, field)
            assert np.shape(mine) == np.shape(want), field
            assert np.array_equal(mine, want), field
    return got


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(4, 8), per_chunk=st.integers(1, 3))
def test_staggered_starts_equal_cold_solo_loads_on_random_lattices(seed, size, per_chunk):
    # refine 1-3 and capped drains come from the lattice; 4 or more patterns
    # at 1-3 patterns per chunk make at least two chunks
    net, ps, grid, h, cap = random_lattice(seed)
    rng = np.random.default_rng(seed)
    T = grid.n_intervals
    with step_cap(cap):
        base = dnl.load(net, ps, grid, h)
        budget = per_chunk * dnl._pattern_bytes(dnl._plan(net.links, ps.link_seq, grid), grid)
    starts = np.concatenate(([0, T - 1], rng.integers(0, T, size=size - 2)))
    rng.shuffle(starts)
    batch = []
    for t in starts:
        # scaled tails drain at different steps; some end in a late burst
        tail = h[:, t:] * rng.uniform(0.0, 3.0)
        if rng.random() < 0.3:
            tail[:, -1] += rng.uniform(0.0, 80.0, size=ps.n_paths)
        batch.append(splice(h, tail, t))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dnl, "_CHUNK_BYTES", budget)
        assert_started_equals_solo(net, ps, grid, base, np.stack(batch), starts, cap)
        if cap is None:  # again at the default chunking, as the map loads its forecasts
            mp.undo()
            assert_started_equals_solo(net, ps, grid, base, np.stack(batch), starts)


def test_staggered_batch_keeps_a_capped_pattern_beside_drained_ones(three_link):
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    h = np.zeros((ps.n_paths, T))
    h[:, 0] = 1.0
    heavy = h.copy()
    heavy[:, T // 2 :] = 40.0
    with step_cap(3):
        base = dnl.load(net, ps, grid, h)
    got = assert_started_equals_solo(net, ps, grid, base, np.stack([h, heavy, h]),
                                     np.array([T - 1, T // 2, 0]), cap=3)
    assert got[0].drained and got[2].drained and not got[1].drained
    assert got[1].extrapolated.any() and got[0].n_steps < got[1].n_steps


def test_started_patterns_need_a_matching_base(three_link):
    net, ps, grid, _ = three_link
    h = np.ones((2, ps.n_paths, grid.n_intervals))
    base = dnl.load(net, ps, grid, h[0])
    for kwargs in ({"starts": [0, 3]}, {"base": base, "starts": [0, grid.n_intervals]},
                   {"base": base, "starts": [0]}, {"base": base, "starts": [0.0, 1.0]}):
        with pytest.raises(dnl.DnlError):
            dnl.load_batch(net, ps, grid, h, **kwargs)
    changed = h.copy()
    changed[1, 0, 2] = 2.0
    with pytest.raises(dnl.DnlError):
        dnl.load_batch(net, ps, grid, changed, base=base, starts=[0, 3])
    dnl.load_batch(net, ps, grid, changed, base=base, starts=[0, 2])
