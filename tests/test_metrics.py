import numpy as np
import pytest

from dsuedhi import metrics
from dsuedhi.equilibrium import SolverConfig, solve_sram
from dsuedhi.network import TimeGrid


class TestTrimWindow:
    def test_default_drops_first_and_last_fifth(self):
        mask = metrics.trim_window(TimeGrid(1200.0, 120.0), 0.2)
        np.testing.assert_array_equal(
            mask, [False, False, True, True, True, True, True, True, False, False]
        )

    def test_zero_trim_keeps_everything(self):
        assert metrics.trim_window(TimeGrid(1200.0, 120.0), 0.0).all()

    def test_bounds(self):
        with pytest.raises(metrics.MetricsError):
            metrics.trim_window(TimeGrid(1200.0, 120.0), 0.5)


class TestInformationAccuracy:
    def test_uncongested_all_zero(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        rep = metrics.information_accuracy(res, grid, trim_fraction=0.0)
        assert rep.norm_instant <= 1e-9
        assert rep.norm_forecast <= 1e-9
        departed = rep.rel_diff[0][~np.isnan(rep.rel_diff[0])]
        assert np.abs(departed).max() <= 1e-9

    def test_congested_both_signs_for_instantaneous(self, three_link_solution):
        rep = metrics.information_accuracy(three_link_solution, TimeGrid(4800.0, 120.0))
        vals = rep.rel_diff[0][~np.isnan(rep.rel_diff[0])]
        assert np.any(vals < -1e-3), "no underestimation observed"
        assert np.any(vals > 1e-3), "no overestimation observed"

    def test_instantaneous_error_dominates_forecast_error(self, grid_solution, grid_congested):
        _, _, grid, _ = grid_congested
        rep = metrics.information_accuracy(grid_solution, grid)
        assert rep.norm_instant >= rep.norm_forecast - 1e-9

    def test_requires_two_class_result(self, grid_uncongested):
        from dsuedhi.equilibrium import solve_dsue

        net, ps, grid, params = grid_uncongested
        res = solve_dsue(net, ps, grid, params, SolverConfig())
        with pytest.raises(metrics.MetricsError):
            metrics.information_accuracy(res, grid)

    def test_floor_masks_unused_cells(self, grid_solution, grid_congested):
        _, _, grid, _ = grid_congested
        rep = metrics.information_accuracy(grid_solution, grid)
        unused = grid_solution.h[0] <= 1e-6
        assert np.isnan(rep.rel_diff[0][unused]).all()


class TestExperiencedDisutility:
    def test_zero_demand_empty_report(self, grid_congested):
        import dsuedhi.network as nw

        net, ps, grid, params = grid_congested
        net0 = nw.Network(
            net.links,
            tuple(
                nw.OdDemand(od.origin, od.destination, 0.0, 0.0, od.target_arrival_s)
                for od in net.od_pairs
            ),
        )
        res = solve_sram(net0, ps, grid, params, SolverConfig())
        rep = metrics.experienced_disutility(res, net0, ps, grid, params)
        assert np.isnan(rep.overall_average["all"])
        assert rep.per_od_total["all"].sum() == 0.0

    def test_symmetric_ods_equal_averages(self, grid_solution, grid_congested):
        # symmetric ODs of equal demand experience equal totals
        net, ps, grid, params = grid_congested
        rep = metrics.experienced_disutility(grid_solution, net, ps, grid, params)
        tot = rep.per_od_total["all"]
        np.testing.assert_allclose(tot, tot[0], rtol=1e-9)

    def test_uncongested_classes_equal_averages(self, grid_uncongested):
        # both classes see identical free-flow information, so their
        # experienced disutility distributions coincide
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        rep = metrics.experienced_disutility(res, net, ps, grid, params)
        np.testing.assert_allclose(
            rep.per_od_total["instant"], rep.per_od_total["forecast"], rtol=1e-9
        )
        assert rep.overall_average["instant"] == pytest.approx(
            rep.overall_average["forecast"], rel=1e-9)

    def test_totals_are_departure_weighted(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        rep = metrics.experienced_disutility(res, net, ps, grid, params, trim_fraction=0.0)
        # uncongested: disutility equals the free-flow value per cell
        from dsuedhi.choice import systematic_disutility

        u = params.time_unit_s
        dep = grid.interval_mids()
        total = 0.0
        for p, path in enumerate(ps.paths):
            ta = net.od_pairs[path.od_index].target_arrival_s
            v = systematic_disutility(
                ps.free_flow_s[p] / u, dep / u, ta / u, params.mu_early, params.mu_late
            )
            total += float((res.h_total[p] * v).sum())
        assert sum(rep.per_od_total["all"]) == pytest.approx(total, rel=1e-9)


class TestTotalTravelTime:
    def test_zero_demand(self, grid_congested):
        import dsuedhi.network as nw

        net, ps, grid, params = grid_congested
        net0 = nw.Network(
            net.links,
            tuple(
                nw.OdDemand(od.origin, od.destination, 0.0, 0.0, od.target_arrival_s)
                for od in net.od_pairs
            ),
        )
        res = solve_sram(net0, ps, grid, params, SolverConfig())
        assert metrics.total_travel_time(res, grid) == 0.0

    def test_uncongested_demand_weighted_free_flow(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        got = metrics.total_travel_time(res, grid, trim_fraction=0.0)
        want = float((res.h_total * ps.free_flow_s[:, None]).sum())
        assert got == pytest.approx(want, rel=1e-9)

    def test_trim_zero_equals_untrimmed_on_uncongested(self, grid_uncongested):
        net, ps, grid, params = grid_uncongested
        res = solve_sram(net, ps, grid, params, SolverConfig())
        # departures sit mid-horizon, so the default trim removes nothing
        assert metrics.total_travel_time(res, grid, 0.2) == pytest.approx(
            metrics.total_travel_time(res, grid, 0.0), rel=1e-12
        )
