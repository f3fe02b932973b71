import numpy as np
import pytest

from dsuedhi import choice, dnl, info
from dsuedhi import network as nw


def softmax_assignment(phi_s, dep_s, ta_s, demand, theta, mu1, mu2, unit):
    """Independent evaluation of the disutility/logit/assignment chain."""
    phi = np.asarray(phi_s, dtype=float)[:, None] / unit
    dep = np.asarray(dep_s, dtype=float)[None, :] / unit
    gap = dep + phi - ta_s / unit
    mu = np.where(gap < 0, mu1, mu2)
    psi = phi + mu * gap * gap
    w = np.exp(-theta * (psi - psi.min()))
    return demand * w / w.sum()


class TestForecastDepartures:
    def test_uncongested_matches_direct_formula(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        loading = dnl.load(net, ps, grid, np.zeros((ps.n_paths, grid.n_intervals)))
        inst = info.instant_info(loading, 0)
        totals = np.array([od.demand_total for od in net.od_pairs])
        got = choice.tentative_departures(inst.phi_s, totals, inst.t_index, grid, ps, params)
        dep = grid.interval_mids()
        for od_index, sl in enumerate(ps.od_slices):
            want = softmax_assignment(
                inst.phi_s[sl],
                dep,
                net.od_pairs[od_index].target_arrival_s,
                totals[od_index],
                params.theta,
                params.mu_early,
                params.mu_late,
                params.time_unit_s,
            )
            np.testing.assert_allclose(got[sl], want, rtol=1e-9, atol=1e-12)

    def test_zero_remaining_demand(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        loading = dnl.load(net, ps, grid, np.zeros((ps.n_paths, grid.n_intervals)))
        inst = info.instant_info(loading, 5)
        got = choice.tentative_departures(
            inst.phi_s, np.zeros(net.n_ods), inst.t_index, grid, ps, params
        )
        assert not got.any()


class TestPooledRemaining:
    def test_uses_total_pattern(self, grid_congested):
        net, ps, grid, _ = grid_congested
        h = np.zeros((ps.n_paths, grid.n_intervals))
        h[0, 0] = 5.0
        h[2, 1] = 7.0
        out = info.pooled_remaining_demand(h, 2, net, ps)
        totals = np.array([od.demand_total for od in net.od_pairs])
        want = totals.copy()
        want[ps.od_of_path[0]] -= 5.0
        want[ps.od_of_path[2]] -= 7.0
        np.testing.assert_array_equal(out, want)


class TestSplice:
    def test_at_first_interval_prediction_wins(self):
        hist = np.arange(12, dtype=float).reshape(3, 4)
        pred = np.full((3, 4), -1.0)
        out = info.splice(hist, pred, 0)
        np.testing.assert_array_equal(out, pred)

    def test_identical_overlap_reproduces_history(self):
        hist = np.arange(12, dtype=float).reshape(3, 4)
        out = info.splice(hist, hist[:, 2:].copy(), 2)
        np.testing.assert_array_equal(out, hist)

    def test_columnwise_construction(self):
        hist = np.arange(12, dtype=float).reshape(3, 4)
        pred = 100.0 + np.arange(6, dtype=float).reshape(3, 2)
        out = info.splice(hist, pred, 2)
        np.testing.assert_array_equal(out[:, :2], hist[:, :2])
        np.testing.assert_array_equal(out[:, 2:], pred)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            info.splice(np.zeros((3, 4)), np.zeros((3, 3)), 2)


class TestForecastInfo:
    def test_uncongested_equals_free_flow_and_instant(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        zeros = np.zeros((ps.n_paths, grid.n_intervals))
        loading = dnl.load(net, ps, grid, zeros)
        fc = info.forecast_batch(net, ps, grid, zeros[None], [4], loading)[0]
        assert fc.phi_s.shape == (ps.n_paths, grid.n_intervals - 4)
        assert np.abs(fc.phi_s - ps.free_flow_s[:, None]).max() <= 1e-9
        inst = info.instant_info(loading, 4)
        np.testing.assert_allclose(fc.phi_s[:, 0], inst.phi_s, atol=1e-9)

    def test_history_consistency_for_completed_trips(self, grid_congested):
        # columns before the provision interval are the real history, so
        # trips that finish before it keep their realized travel times
        net, ps, grid, params = grid_congested
        rng = np.random.default_rng(11)
        h = np.zeros((ps.n_paths, grid.n_intervals))
        h[:, :4] = rng.uniform(0, 4, size=(ps.n_paths, 4))
        base = dnl.load(net, ps, grid, h)
        t_idx = 30
        done = grid.interval_mids() + base.path_time.max(axis=0) < t_idx * grid.dt_s
        assert done[:4].all()
        pred = np.zeros((ps.n_paths, grid.n_intervals - t_idx))
        fc_world = info.splice(h, pred, t_idx)
        loading2 = dnl.load(net, ps, grid, fc_world)
        np.testing.assert_allclose(
            base.path_time[:, :4], loading2.path_time[:, :4], atol=1e-9
        )

    def test_matches_cold_load_of_spliced_pattern(self, grid_congested):
        net, ps, grid, params = grid_congested
        rng = np.random.default_rng(12)
        h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
        base = dnl.load(net, ps, grid, h)
        pred = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - 10))
        spliced = info.splice(h, pred, 10)
        via_helper = info.forecast_batch(net, ps, grid, spliced[None], [10], base)[0]
        cold = dnl.load(net, ps, grid, spliced)
        assert np.array_equal(via_helper.phi_s, cold.path_time[:, 10:])


class TestCostAccounting:
    def test_one_load_per_provision_interval_plus_one(self, three_link):
        net, ps, grid, params = three_link
        from dsuedhi.equilibrium import fixed_point_map

        d_i, d_f = net.class_demands()
        h_i = np.zeros((ps.n_paths, grid.n_intervals))
        h_f = np.zeros_like(h_i)
        for od_index, sl in enumerate(ps.od_slices):
            h_i[sl.start, 0] = d_i[od_index]
            h_f[sl.start, 1] = d_f[od_index]
        dnl.reset_load_call_count()
        fixed_point_map(h_i, h_f, net, ps, grid, params)
        assert dnl.load_call_count() == grid.n_intervals + 1
