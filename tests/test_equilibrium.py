import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsuedhi import choice, dnl
from dsuedhi import network as nw
from dsuedhi.equilibrium import (
    SolverConfig,
    SolverError,
    fixed_point_map,
    multistart,
    random_feasible_parts,
    solve_dsue,
    solve_sram,
)
from oracles import residual


class TestResidual:
    def test_zero_at_fixed_point(self):
        h = np.arange(6, dtype=float).reshape(2, 3)
        assert residual(h, h) == 0.0

    def test_ones_vs_zeros(self):
        h = np.ones(8)
        assert residual(h, np.zeros(8)) == pytest.approx(1.0)

    def test_zero_reference_convention(self):
        assert residual(np.zeros(3), np.ones(3)) == np.inf
        assert residual(np.zeros(3), np.zeros(3)) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_norm_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.1, 5, size=(3, 4))
        y = rng.uniform(0, 5, size=(3, 4))
        want = np.sqrt(((h - y) ** 2).sum()) ** 2 / np.sqrt((h**2).sum()) ** 2
        assert residual(h, y) == pytest.approx(want, rel=1e-12)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(SolverError):
            SolverConfig(gain_up=1.0)
        with pytest.raises(SolverError):
            SolverConfig(gain_down=1.5)
        with pytest.raises(SolverError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("field", ["tolerance", "gain_up", "gain_down"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(SolverError, match="finite"):
            SolverConfig(**{field: value})


class TestFixedPointMap:
    def test_zero_demand_maps_to_zero(self, grid_congested):
        net, ps, grid, params = grid_congested
        net0 = nw.Network(
            net.links,
            tuple(
                nw.OdDemand(od.origin, od.destination, 0.0, 0.0, od.target_arrival_s)
                for od in net.od_pairs
            ),
        )
        zeros = np.zeros((ps.n_paths, grid.n_intervals))
        mr = fixed_point_map(zeros, zeros, net0, ps, grid, params)
        assert not mr.y_parts[0].any() and not mr.y_parts[1].any()

    def test_image_is_feasible_for_any_input(self, three_link):
        net, ps, grid, params = three_link
        d_i, d_f = net.class_demands()
        rng = np.random.default_rng(2)
        h_i, h_f = random_feasible_parts(rng, ps, grid, (d_i, d_f))
        mr = fixed_point_map(h_i, h_f, net, ps, grid, params)
        dnl.check_feasible(mr.y_parts[0], ps, d_i)
        dnl.check_feasible(mr.y_parts[1], ps, d_f)

    def test_first_column_matches_direct_evaluation(self, three_link):
        net, ps, grid, params = three_link
        d_i, d_f = net.class_demands()
        rng = np.random.default_rng(3)
        h_i, h_f = random_feasible_parts(rng, ps, grid, (d_i, d_f))
        mr = fixed_point_map(h_i, h_f, net, ps, grid, params)

        # oracle: evaluate disutility, logit shares, and realization for the
        # first provision interval directly from the candidate loading
        loading = dnl.load(net, ps, grid, h_i + h_f)
        phi = loading.instant_path_time[:, 0]
        dep = grid.interval_mids() / params.time_unit_s
        for od_index, sl in enumerate(ps.od_slices):
            ta = net.od_pairs[od_index].target_arrival_s / params.time_unit_s
            gap = dep[None, :] + (phi[sl, None] / params.time_unit_s) - ta
            mu = np.where(gap < 0, params.mu_early, params.mu_late)
            psi = phi[sl, None] / params.time_unit_s + mu * gap * gap
            w = np.exp(-params.theta * (psi - psi.max() * 0 - psi.min()))
            share = w / w.sum()
            want = share[:, 0] * d_i[od_index]
            np.testing.assert_allclose(mr.y_parts[0][sl, 0], want, rtol=1e-9, atol=1e-9)

    def test_uncongested_solution_is_fixed_point(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        mr = fixed_point_map(*res.h, net, ps, grid, params)
        assert residual(res.h_total, mr.y_parts[0] + mr.y_parts[1]) <= 1e-10


class TestSolveSram:
    def test_three_link_converges_quickly(self, three_link_solution):
        res = three_link_solution
        assert res.converged
        assert res.n_iterations <= 100

    def test_zero_demand_converges_immediately(self, grid_congested):
        net, ps, grid, params = grid_congested
        net0 = net.with_class_split(0.5)
        net0 = nw.Network(
            net.links,
            tuple(
                nw.OdDemand(od.origin, od.destination, 0.0, 0.0, od.target_arrival_s)
                for od in net.od_pairs
            ),
        )
        res = solve_sram(net0, ps, grid, params, SolverConfig())
        assert res.converged and res.n_iterations == 1
        assert not res.h_total.any()

    def test_small_dispersion_no_slower_than_large(self, three_link):
        net, ps, grid, _ = three_link
        iters = {}
        for theta in (0.1, 2.0):
            params = choice.ChoiceParams(theta=theta, target_arrival_s=net.target_arrivals())
            res = solve_sram(net, ps, grid, params, SolverConfig())
            assert res.converged
            iters[theta] = res.n_iterations
        assert iters[0.1] <= iters[2.0]

    def test_every_iterate_feasible(self, grid_run, grid_congested):
        net, ps, grid, _ = grid_congested
        d_i, d_f = net.class_demands()
        res, iterates = grid_run
        assert len(iterates) == res.n_iterations
        for h_i, h_f in iterates:
            dnl.check_feasible(h_i, ps, d_i)
            dnl.check_feasible(h_f, ps, d_f)

    def test_step_size_contract(self, three_link):
        # force several iterations by starting far from the fixed point
        net, ps, grid, params = three_link
        rng = np.random.default_rng(5)
        h0 = random_feasible_parts(rng, ps, grid, net.class_demands())
        res = solve_sram(net, ps, grid, params, SolverConfig(tolerance=1e-12,
                                                             max_iterations=40), h0=h0)
        assert res.alphas[0] == 1.0
        assert np.all(np.diff(res.betas) > 0)
        assert np.all(np.diff(res.alphas) < 0)
        assert res.n_iterations == len(res.residuals)

    def test_fixed_point_certificate(self, grid_solution, grid_congested):
        net, ps, grid, params = grid_congested
        res = grid_solution
        assert res.converged
        mr = fixed_point_map(*res.h, net, ps, grid, params)
        again = residual(res.h_total, mr.y_parts[0] + mr.y_parts[1])
        assert again <= SolverConfig().tolerance

    def test_non_convergence_reported_with_trace(self, three_link):
        net, ps, grid, params = three_link
        rng = np.random.default_rng(6)
        h0 = random_feasible_parts(rng, ps, grid, net.class_demands())
        res = solve_sram(net, ps, grid, params,
                         SolverConfig(tolerance=1e-16, max_iterations=2), h0=h0)
        assert not res.converged
        assert res.n_iterations == 2
        assert len(res.residuals) == 2

    def test_result_carries_its_last_map(self, three_link, three_link_solution):
        # the loop stops before averaging, so the returned pattern is the
        # one the last map was applied to, converged or not
        net, ps, grid, params = three_link
        capped = solve_sram(net, ps, grid, params, SolverConfig(max_iterations=2))
        assert three_link_solution.converged and not capped.converged
        for res in (three_link_solution, capped):
            mr = fixed_point_map(*res.h, net, ps, grid, params)
            T = grid.n_intervals
            got, want = res.forecast_batch.path_time, mr.forecast_batch.path_time
            assert got.shape == want.shape == (T, ps.n_paths, T)
            open_ = np.broadcast_to(choice.open_cells(0, T, T), want.shape)
            assert np.array_equal(got[open_], want[open_])
            assert np.array_equal(res.loading.instant_path_time, mr.loading.instant_path_time)
            assert np.array_equal(res.loading.path_time, mr.loading.path_time)

    def test_rejects_infeasible_start(self, three_link):
        net, ps, grid, params = three_link
        bad = np.ones((ps.n_paths, grid.n_intervals))
        with pytest.raises(ValueError):
            solve_sram(net, ps, grid, params, SolverConfig(), h0=(bad, bad))

    @pytest.mark.parametrize("reshape", [
        pytest.param(lambda h: (*h, h[0]), id="third-class"),
        pytest.param(lambda h: h[:, :, :-1], id="one-interval-short"),
        pytest.param(lambda h: (h[0], h[1][:, :-1]), id="ragged"),
    ])
    def test_rejects_a_start_of_another_shape(self, three_link, reshape):
        # a third class used to be dropped silently, a short start failed on demand and a
        # ragged one in numpy
        net, ps, grid, params = three_link
        h0 = random_feasible_parts(np.random.default_rng(0), ps, grid, net.class_demands())
        with pytest.raises(SolverError, match=r"expected \(classes, paths, intervals\) "
                                              rf"\(2, {ps.n_paths}, {grid.n_intervals}\)"):
            solve_sram(net, ps, grid, params, SolverConfig(), h0=reshape(h0))

    def test_rejects_a_start_with_a_nan_cell(self, three_link):
        # it used to fail in the forecast batch, whose base check finds NaN != NaN
        net, ps, grid, params = three_link
        h0 = random_feasible_parts(np.random.default_rng(0), ps, grid, net.class_demands())
        h0[0][1, 3] = np.nan
        with pytest.raises(ValueError, match="departure matrix has non-finite entries"):
            solve_sram(net, ps, grid, params, SolverConfig(), h0=h0)


class TestClassLayout:
    """Both solvers return one (class, path, interval) array ``h``."""

    def test_each_class_row_meets_its_own_demand(self, three_link, three_link_solution):
        net, ps, grid, _ = three_link
        res = three_link_solution
        assert res.h.shape == (2, ps.n_paths, grid.n_intervals)
        for h_c, d in zip(res.h, net.class_demands()):
            dnl.check_feasible(h_c, ps, d)

    def test_total_is_the_sum_of_the_class_rows(self, three_link_solution):
        res = three_link_solution
        assert np.array_equal(res.h_total, res.h[0] + res.h[1])

    def test_class_demands_sum_to_the_od_totals(self, three_link):
        net = three_link[0]
        assert np.array_equal(net.class_demands().sum(axis=0),
                              [od.demand_total for od in net.od_pairs])

    def test_class_demands_are_one_read_only_array_per_network(self, three_link):
        # a map reads them twice and a solve once: built on the first call,
        # and no caller can change what the next one reads
        net = three_link[0]
        demands = net.class_demands()
        assert net.class_demands() is demands
        with pytest.raises(ValueError, match="read-only"):
            demands[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            demands[1] += 1.0
        assert demands.tolist() == [[od.demand_instant for od in net.od_pairs],
                                    [od.demand_forecast for od in net.od_pairs]]
        split = net.with_class_split(0.25)
        assert split.class_demands() is not demands
        assert split.class_demands()[0].tolist() == (0.25 * demands.sum(axis=0)).tolist()
        assert net.class_demands() is demands

    def test_dsue_has_one_pooled_row(self, three_link):
        net, ps, grid, params = three_link
        res = solve_dsue(net, ps, grid, params, SolverConfig())
        assert res.h.shape == (1, ps.n_paths, grid.n_intervals)
        assert np.array_equal(res.h[0], res.h_total)


class TestSolveDsue:
    def test_uncongested_matches_two_class_solution(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        cfg = SolverConfig()
        baseline = solve_sram(net, ps, grid, params, cfg)
        single = solve_dsue(net, ps, grid, params, cfg)
        dist = np.linalg.norm(single.h_total - baseline.h_total)
        assert dist <= 1e-6 * np.linalg.norm(baseline.h_total)

    def test_zero_demand(self, grid_congested):
        net, ps, grid, params = grid_congested
        net0 = nw.Network(
            net.links,
            tuple(
                nw.OdDemand(od.origin, od.destination, 0.0, 0.0, od.target_arrival_s)
                for od in net.od_pairs
            ),
        )
        res = solve_dsue(net0, ps, grid, params, SolverConfig())
        assert res.converged and not res.h_total.any()

    def test_congested_differs_from_two_class_solution(self, grid_congested, grid_solution):
        net, ps, grid, params = grid_congested
        single = solve_dsue(net, ps, grid, params, SolverConfig())
        assert single.converged and single.forecast_batch is None
        diff = np.linalg.norm(single.h_total - grid_solution.h_total)
        assert diff / np.linalg.norm(grid_solution.h_total) > 1e-3


class TestMultistart:
    def test_identical_starts_zero_distance(self, three_link):
        net, ps, grid, params = three_link
        cfg = SolverConfig()
        base = solve_sram(net, ps, grid, params, cfg)
        again = solve_sram(net, ps, grid, params, cfg)
        assert residual(base.h_total, again.h_total) == 0.0

    def test_seeded_runs_bit_identical(self, three_link):
        net, ps, grid, params = three_link
        cfg = SolverConfig()
        a = multistart(net, ps, grid, params, cfg, n_starts=3, seed=42)
        b = multistart(net, ps, grid, params, cfg, n_starts=3, seed=42)
        assert np.array_equal(a.distances, b.distances)

    def test_requires_two_starts(self, three_link):
        net, ps, grid, params = three_link
        with pytest.raises(SolverError):
            multistart(net, ps, grid, params, SolverConfig(), n_starts=1, seed=0)

    def test_random_parts_feasible(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(9)
        h_i, h_f = random_feasible_parts(rng, ps, grid, net.class_demands())
        d_i, d_f = net.class_demands()
        dnl.check_feasible(h_i, ps, d_i)
        dnl.check_feasible(h_f, ps, d_f)
