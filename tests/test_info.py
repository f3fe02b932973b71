import numpy as np

from dsuedhi import choice, dnl, info
from dsuedhi import network as nw
from dsuedhi.equilibrium import random_feasible_parts
from test_batch import splice


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
        phi = loading.instant_path_time[:, 0]
        totals = np.array([od.demand_total for od in net.od_pairs])
        got = choice.tentative_departures(phi, totals, 0, grid, ps, params)
        dep = grid.interval_mids()
        for od_index, sl in enumerate(ps.od_slices):
            want = softmax_assignment(
                phi[sl],
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
        got = choice.tentative_departures(
            loading.instant_path_time[:, 5], np.zeros(net.n_ods), 5, grid, ps, params
        )
        assert not got.any()


class TestForecastInfo:
    def test_uncongested_equals_free_flow_and_instant(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        zeros = np.zeros((ps.n_paths, grid.n_intervals))
        loading = dnl.load(net, ps, grid, zeros)
        fc = dnl.load_batch(loading, zeros[None], [4]).path_time[0, :, 4:]
        assert fc.shape == (ps.n_paths, grid.n_intervals - 4)
        assert np.abs(fc - ps.free_flow_s[:, None]).max() <= 1e-9
        np.testing.assert_allclose(fc[:, 0], loading.instant_path_time[:, 4], atol=1e-9)

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
        fc_world = splice(h, pred, t_idx)
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
        spliced = splice(h, pred, 10)
        started = dnl.load_batch(base, spliced[None], [10])
        cold = dnl.load(net, ps, grid, spliced)
        assert np.array_equal(started.path_time[0, :, 10:], cold.path_time[:, 10:])

    def test_forecast_loads_the_pooled_reaction_spliced_onto_the_history(self, grid_congested):
        # the pooled remaining demand of both classes reacts to the
        # instantaneous times; one class's demand alone gives other forecasts
        net, ps, grid, params = grid_congested
        T = grid.n_intervals
        h_i, h_f = random_feasible_parts(np.random.default_rng(13), ps, grid, net.class_demands())
        h_total = h_i + h_f
        base = dnl.load(net, ps, grid, h_total)
        table = choice.share_table(base.instant_path_time.T[:, :, None], 0, grid, ps, params)
        forecasts = info.forecasts(net, ps, grid, h_total, table, base).path_time
        assert forecasts.shape == (T, ps.n_paths, T)
        totals = np.array([od.demand_total for od in net.od_pairs])
        for t in (0, 7, T - 1):
            # the demand not departed before t, and its one-interval logit reaction
            departed = np.bincount(ps.od_of_path, h_total[:, :t].sum(axis=1), minlength=len(totals))
            pooled = np.maximum(totals - departed, 0.0)
            reaction = choice.tentative_departures(base.instant_path_time[:, t], pooled, t, grid,
                                                   ps, params)
            spliced = splice(h_total, reaction, t)
            want = dnl.load(net, ps, grid, spliced).path_time[:, t:]
            assert np.array_equal(forecasts[t, :, t:], want)


class TestCostAccounting:
    def test_one_load_per_provision_interval_plus_one(self, three_link, monkeypatch):
        net, ps, grid, params = three_link
        from dsuedhi.equilibrium import fixed_point_map

        d_i, d_f = net.class_demands()
        h_i = np.zeros((ps.n_paths, grid.n_intervals))
        h_f = np.zeros_like(h_i)
        for od_index, sl in enumerate(ps.od_slices):
            h_i[sl.start, 0] = d_i[od_index]
            h_f[sl.start, 1] = d_f[od_index]
        loaded = []
        load, load_batch = dnl.load, dnl.load_batch

        def counted_load(*args, **kwargs):
            result = load(*args, **kwargs)
            loaded.append(result)
            return result

        def counted_load_batch(*args, **kwargs):
            batch = load_batch(*args, **kwargs)
            loaded.extend(batch.path_time)  # one row per pattern
            return batch

        monkeypatch.setattr(dnl, "load", counted_load)
        monkeypatch.setattr(dnl, "load_batch", counted_load_batch)
        fixed_point_map(h_i, h_f, net, ps, grid, params)
        assert len(loaded) == grid.n_intervals + 1
