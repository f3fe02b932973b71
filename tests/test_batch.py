"""A batch of patterns loads exactly as the same patterns loaded alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsuedhi import dnl, info
from test_golden import random_lattice

FIELDS = ("path_time", "extrapolated", "n_steps", "drained", "n_up", "n_dn", "src_up",
          "src_dn")


def assert_batch_equals_solo(net, ps, grid, batch, cap=None):
    got = dnl.load_batch(net, ps, grid, batch, drain_max_steps=cap)
    assert len(got) == len(batch)
    for pattern, res in zip(batch, got):
        solo = dnl.load(net, ps, grid, pattern, drain_max_steps=cap)
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
    assert got[1].n_steps + 1 > dnl._first_cols(t_sim, 0, 21 * t_sim + 200)
    monkeypatch.setattr(dnl, "_CHUNK_BYTES", 1)  # one pattern per chunk
    assert_batch_equals_solo(net, ps, grid, batch)


def test_batch_adds_one_load_per_pattern(three_link):
    net, ps, grid, _ = three_link
    batch = np.ones((5, ps.n_paths, grid.n_intervals))
    dnl.reset_load_call_count()
    dnl.load_batch(net, ps, grid, batch)
    assert dnl.load_call_count() == 5


def test_batch_rejects_bad_shapes_and_negative_departures(three_link):
    net, ps, grid, _ = three_link
    good = np.ones((2, ps.n_paths, grid.n_intervals))
    for bad in (good[0], good[:, :, 1:], -good):
        with pytest.raises(dnl.DnlError):
            dnl.load_batch(net, ps, grid, bad)


def test_forecast_batch_equals_single_forecasts(grid_congested):
    net, ps, grid, _ = grid_congested
    rng = np.random.default_rng(21)
    h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
    ts = [0, 7, grid.n_intervals - 1]
    spliced = np.stack([info.splice(h, rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - t)), t)
                        for t in ts])
    batch = info.forecast_batch(net, ps, grid, spliced, ts)
    for t, s, fc in zip(ts, spliced, batch):
        one = info.forecast_info(net, ps, grid, s, t)
        assert fc.t_index == one.t_index == t
        assert np.array_equal(fc.phi_s, one.phi_s)
