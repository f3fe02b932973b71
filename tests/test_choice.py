import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsuedhi import choice, dnl, info
from dsuedhi import network as nw
from dsuedhi.equilibrium import random_feasible_parts
import oracles
from map_cases import corridor
from oracles import logit, prefix_sums


@pytest.fixture()
def three_path_set():
    links = [
        nw.Link("1", "A", "B", 4800, 20, 5, 0.6, 0.15),
        nw.Link("2", "A", "B", 7200, 20, 5, 0.6, 0.15),
        nw.Link("3", "B", "C", 4800, 20, 5, 0.5, 0.15),
    ]
    demands = [nw.OdDemand("A", "C", 6, 6, 240.0), nw.OdDemand("B", "C", 6, 6, 240.0)]
    net = nw.validate_network(links, demands)
    return net, nw.build_path_set(net)


def params_for(net, theta=1.0, unit=60.0):
    return choice.ChoiceParams(
        theta=theta, target_arrival_s=net.target_arrivals(), time_unit_s=unit
    )


def segment_values(seed: int, n: int) -> np.ndarray:
    """``n`` numbers of both signs, spread over 25 orders of magnitude."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-12, 13, n)


class TestSegments:
    """Per-run totals that the kernel takes (``oracles.prefix_sums``, the
    prefixes of a history's rows behind ``remaining_demand``) are
    ``ndarray.sum`` of each run, bit for bit, as its block totals are; numpy
    adds runs of 8 or more pairwise in blocks of 8 and 128, so these bits
    move if numpy's blocking does."""

    @staticmethod
    def totals(x, sizes):
        """The kernel's total of each run of ``sizes`` numbers of ``x``, in turn: the
        prefix of its own row, the run then zeros, as long as the run."""
        rows = np.zeros((len(sizes), max(sizes) + 1))
        edges = np.cumsum([0, *sizes])
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            rows[k, : b - a] = x[a:b]
        return prefix_sums(rows)[sizes, np.arange(len(sizes))]

    @settings(max_examples=80, deadline=None)
    @example(sizes=[130, 3, 8], seed=1)  # bincount alone differs here
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_equal_ndarray_sum_per_run(self, sizes, seed):
        x = segment_values(seed, sum(sizes))
        lay = choice._layout(tuple(sizes), nw.TimeGrid(60.0, 60.0), 0, 1)  # one block per OD
        edges = np.cumsum([0, *sizes])
        want = np.array([x[a:b].sum() for a, b in zip(edges[:-1], edges[1:])])
        assert self.totals(x, sizes).tobytes() == want.tobytes()
        assert lay.ods.tolist() == list(range(len(sizes))) and lay.cells == sum(sizes)

    def test_example_needs_more_than_bincount(self):
        sizes = [130, 3, 8]
        x = segment_values(1, sum(sizes))
        assert not np.array_equal(np.bincount(np.repeat(np.arange(3), sizes), weights=x),
                                  self.totals(x, sizes))


class TestSystematicDisutility:
    """``choice.cell_disutility``, the kernel's formula, against hand values
    and ``oracles.systematic_disutility``, the numpy reference."""

    @staticmethod
    def cells(phi, ta, dt):
        """The disutility of one path of travel time ``phi`` aiming at ``ta``, at
        departures dt / 2, 3 dt / 2 and 5 dt / 2, all in seconds."""
        params = choice.ChoiceParams(theta=1.0, target_arrival_s=(ta,), time_unit_s=1.0)
        return choice.cell_disutility(np.full((1, 3), phi), nw.TimeGrid(3 * dt, dt),
                                      path_set_of([1]), params)[0]

    def test_on_time_arrival_no_penalty(self):
        assert self.cells(10.0, 20.0, 20.0)[0] == 10.0

    def test_early_arrival(self):
        assert self.cells(10.0, 25.0, 20.0)[0] == pytest.approx(30.0)

    def test_late_arrival(self):
        assert self.cells(10.0, 15.0, 20.0)[0] == pytest.approx(40.0)

    @settings(max_examples=50, deadline=None)
    @given(
        phi=st.floats(0, 100),
        ta=st.floats(0, 200),
        dt=st.floats(1, 50),
    )
    def test_branches_and_lower_bound(self, phi, ta, dt):
        for t, v in zip((np.arange(3) + 0.5) * dt, self.cells(phi, ta, dt)):
            gap = t + phi - ta
            mu = 0.8 if gap < 0 else 1.2
            assert v == pytest.approx(phi + mu * gap * gap)
            assert v >= phi

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("unit", [1.0, 60.0, 7.0])
    def test_equals_the_numpy_reference(self, unit):
        rng = np.random.default_rng(int(unit))
        ps, T = path_set_of([3, 1, 2]), 9
        grid = nw.TimeGrid(T * 120.0, 120.0)
        params = choice.ChoiceParams(theta=1.0, target_arrival_s=(600.0, 0.0, 1e5),
                                     time_unit_s=unit)
        phi = rng.uniform(-1e3, 1e4, size=(ps.n_paths, T))
        phi.flat[rng.choice(phi.size, 4, replace=False)] = [np.nan, np.inf, -np.inf, -0.0]
        ta = np.array(params.target_arrival_s)[ps.od_of_path][:, None]
        want = oracles.systematic_disutility(phi / unit, grid.interval_mids() / unit, ta / unit,
                                             params.mu_early, params.mu_late)
        got = choice.cell_disutility(phi, grid, ps, params)
        assert got.tobytes() == want.tobytes()


class TestChoiceParams:
    def test_penalty_ordering_enforced(self):
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=1.0, target_arrival_s=(0.0,), mu_early=1.1)
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=1.0, target_arrival_s=(0.0,), mu_late=0.9)
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=0.0, target_arrival_s=(0.0,))

    @pytest.mark.parametrize("field", ["theta", "mu_early", "mu_late", "time_unit_s",
                                       "target_arrival_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        # NaN passes every ordering check, so finiteness is checked first
        kwargs = {"theta": 1.0, "target_arrival_s": (0.0,), field: value}
        if field == "target_arrival_s":
            kwargs[field] = (0.0, value)
        with pytest.raises(choice.ChoiceError, match="finite"):
            choice.ChoiceParams(**kwargs)


class TestDisutilityMatrices:
    """The disutility behind a share table: instantaneous times reused for
    every departure column, forecasts taken column by column."""

    @staticmethod
    def shares_at_first(table, ps, T):
        """The table's shares at its first interval, paths x remaining intervals."""
        return table.share[: ps.n_paths * (T - table.layout.first)].reshape(ps.n_paths, -1)

    @staticmethod
    def logit_of(phi, grid, ps, params, t):
        """Per-OD logit of ``phi`` (paths x intervals t..), block by block."""
        u = params.time_unit_s
        dep = (np.arange(t, grid.n_intervals) + 0.5) * grid.dt_s
        ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
        psi = oracles.systematic_disutility(phi / u, dep[None, :] / u, ta[:, None] / u,
                                            params.mu_early, params.mu_late)
        return np.concatenate([logit(psi[sl], params.theta)
                               for sl in ps.od_slices])

    def test_single_remaining_interval_matches_forecast_form(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net, unit=1.0)
        phi = np.array([30.0, 40.0, 20.0])
        by_departure = np.full((1, 3, 3), np.nan)
        by_departure[0, :, 2] = phi
        a = choice.share_table(phi[None, :, None], 2, grid, ps, params)
        b = choice.share_table(by_departure, 2, grid, ps, params)
        assert a.share.shape == (3,)
        assert np.array_equal(a.share, b.share)

    def test_instant_reuses_current_time_across_columns(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        phi = np.array([3.0, 3.0, 1.0]) * params.time_unit_s
        got = self.shares_at_first(choice.share_table(phi[None, :, None], 0, grid, ps, params),
                                   ps, 3)
        assert got.shape == (3, 3)
        # the same travel time in every column; only the schedule penalty varies
        want = self.logit_of(np.repeat(phi[:, None], 3, axis=1), grid, ps, params, 0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_forecast_column_specific_times(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        phi = np.array([[3, 4, 5], [3, 4, 3], [2, 1, 1]], dtype=float) * 60.0
        got = self.shares_at_first(choice.share_table(phi[None], 0, grid, ps, params), ps, 3)
        np.testing.assert_allclose(got, self.logit_of(phi, grid, ps, params, 0), rtol=1e-12)

    @pytest.mark.parametrize("targets", [(240.0,), (240.0, 240.0, 240.0)])
    def test_one_target_arrival_per_od(self, three_path_set, targets):
        # two ODs: a missing target is not a layout fault, and an extra one
        # is not ignored
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = choice.ChoiceParams(theta=1.0, target_arrival_s=targets)
        with pytest.raises(choice.ChoiceError,
                           match=f"^{len(targets)} target arrivals for 2 ODs"):
            choice.share_table(np.full((3, 3, 1), 60.0), 0, grid, ps, params)
        with pytest.raises(choice.ChoiceError, match="target arrivals for 2 ODs"):
            choice.cell_disutility(np.full((3, 3), 60.0), grid, ps, params)

    def test_forecast_shape_mismatch(self, three_path_set):
        # 3 paths, 3 intervals: no shape here broadcasts to (n, 3, 3); one
        # path's times are not repeated for every path
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        for shape in [(1, 3, 2), (1, 2, 3), (1, 1, 3), (1, 1, 1), (3, 3), (1, 3, 3, 1), (3,)]:
            with pytest.raises(choice.ChoiceError, match="do not broadcast"):
                choice.share_table(np.zeros(shape), 0, grid, ps, params)


class TestInformationLayout:
    """Travel times by (provision interval, path, departure interval): only the
    open cells, departure at or after provision, reach a share table."""

    @staticmethod
    def same_table(a, b):
        return a.layout is b.layout and a.share.tobytes() == b.share.tobytes()

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    @pytest.mark.parametrize("first", [0, 2])
    def test_closed_cells_are_not_read(self, three_path_set, first, fill):
        net, ps = three_path_set
        grid = nw.TimeGrid(720.0, 120.0)
        params = params_for(net)
        T = grid.n_intervals
        phi = np.random.default_rng(3).uniform(60.0, 900.0, size=(T - first, 3, T))
        closed = ~np.broadcast_to(choice.open_cells(first, T - first, T), phi.shape)
        assert closed.sum() == 3 * sum(range(first, T))
        filled = np.where(closed, fill, phi)
        assert self.same_table(choice.share_table(filled, first, grid, ps, params),
                               choice.share_table(phi, first, grid, ps, params))

    @pytest.mark.parametrize("first, n", [(0, 6), (1, 3)])
    def test_one_departure_column_equals_its_repetition(self, three_path_set, first, n):
        net, ps = three_path_set
        grid = nw.TimeGrid(720.0, 120.0)
        params = params_for(net)
        phi = np.random.default_rng(4).uniform(60.0, 900.0, size=(n, 3, 1))
        repeated = np.repeat(phi, grid.n_intervals, axis=2)
        assert self.same_table(choice.share_table(phi, first, grid, ps, params),
                               choice.share_table(repeated, first, grid, ps, params))

    @pytest.mark.parametrize("edit, message", [
        ({"cells": 19}, "intervals 0..2 do not fill the layout's 19 cells"),
        ({"first": 1}, "intervals 1..3 do not fill the layout's 18 cells"),
    ], ids=["cells", "past the horizon"])
    def test_a_layout_the_kernel_refuses_raises(self, three_path_set, monkeypatch, edit,
                                                 message):
        # the kernel checks that the layout's cells are those of its intervals
        net, ps = three_path_set
        lay = choice._layout((2, 1), nw.TimeGrid(360.0, 120.0), 0, 3)
        assert lay.cells == 18 and lay.ods.tolist() == [0, 1]
        monkeypatch.setattr(choice, "_layout", lambda *args: dataclasses.replace(lay, **edit))
        with pytest.raises(ValueError, match=message):
            choice.share_table(np.full((3, 3, 1), 60.0), 0, nw.TimeGrid(360.0, 120.0), ps,
                               params_for(net))

    def test_forecasts_are_nan_exactly_before_their_provision(self, grid_congested):
        net, ps, grid, params = grid_congested
        T = grid.n_intervals
        h_i, h_f = random_feasible_parts(np.random.default_rng(14), ps, grid,
                                         net.class_demands())
        base = dnl.load(net, ps, grid, h_i + h_f)
        table = choice.share_table(base.instant_path_time.T[:, :, None], 0, grid, ps, params)
        forecasts = info.forecasts(net, ps, grid, h_i + h_f, table, base).path_time
        assert forecasts.shape == (T, ps.n_paths, T)
        closed = ~np.broadcast_to(choice.open_cells(0, T, T), forecasts.shape)
        assert np.array_equal(np.isnan(forecasts), closed)


class TestLogit:
    """The reference logit, ``oracles.logit``, that the share tables are
    compared with, and that comparison on every block of a table."""

    @pytest.mark.parametrize("theta", [1e-9, 1.0, 10.0])
    def test_share_table_blocks_equal_the_reference_logit(self, theta):
        # bit for bit, also where a path's disutility (about 1.2e12) is so far
        # above the others that exp of its unshifted exponent would underflow
        ps, T, u = path_set_of([2, 3]), 4, 60.0
        grid = nw.TimeGrid(T * 120.0, 120.0)
        params = choice.ChoiceParams(theta=theta, target_arrival_s=(240.0, 0.0), time_unit_s=u)
        phi = np.random.default_rng(5).uniform(30.0, 900.0, size=(T, ps.n_paths, T))
        phi[1, 3] = 6e7
        table = choice.share_table(phi, 0, grid, ps, params)
        mids, start = grid.interval_mids(), 0
        for t in range(T):  # each interval's blocks, one per OD, follow the interval before
            for od, sl in enumerate(ps.od_slices):
                psi = oracles.systematic_disutility(phi[t, sl, t:] / u, mids[t:] / u,
                                                    params.target_arrival_s[od] / u,
                                                    params.mu_early, params.mu_late)
                want = logit(psi, theta).ravel()
                assert table.share[start : start + want.size].tobytes() == want.tobytes(), (t, od)
                start += want.size
        assert start == table.layout.cells
        # interval 1, OD 1's paths 2..4 x departures 1..3, from cell 20 + 6; path 3 takes none
        assert table.share[29:32].tolist() == [0.0] * 3

    def test_two_equal_choices(self):
        p = logit(np.array([5.0, 5.0]), theta=1.0)
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_near_zero_dispersion_uniform(self):
        psi = np.array([1.0, 50.0, 3.0, 7.0])
        p = logit(psi, theta=1e-9)
        np.testing.assert_allclose(p, 0.25, atol=1e-6)

    def test_log_two_ratio(self):
        p = logit(np.array([0.0, np.log(2.0)]), theta=1.0)
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        psi = rng.uniform(0, 50, size=(4, 7))
        p = logit(psi, theta=0.7)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_overflow_safe(self):
        p = logit(np.array([0.0, 1e6]), theta=10.0)
        assert p[0] == 1.0 and p[1] == 0.0

    def test_empty_choice_set(self):
        # an OD without paths gets no block, so the kernel never sees an empty choice set
        layout = choice._layout((2, 0, 1), nw.TimeGrid(360.0, 120.0), 0, 1)
        assert layout.ods.tolist() == [0, 2]
        assert layout.cells == 9
        assert layout.block.arrays[0].tolist() == [0, 0, 2]  # the OD of each path

    @settings(max_examples=40, deadline=None)
    @given(
        shift=st.floats(-50, 50),
        psi=st.lists(st.floats(0, 60), min_size=2, max_size=6),
    )
    def test_shift_invariance(self, shift, psi):
        psi = np.array(psi)
        a = logit(psi, theta=0.9)
        b = logit(psi + shift, theta=0.9)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(psi=st.lists(st.floats(0, 30), min_size=2, max_size=6, unique=True))
    def test_raising_one_entry_lowers_its_share(self, psi):
        psi = np.array(psi)
        before = logit(psi, theta=1.0)
        bumped = psi.copy()
        bumped[0] += 1.0
        after = logit(bumped, theta=1.0)
        assert after[0] < before[0]
        assert np.all(after[1:] >= before[1:] - 1e-15)

    def test_large_dispersion_concentrates_on_minimum(self):
        psi = np.array([4.0, 1.0, 9.0])
        p = logit(psi, theta=200.0)
        assert p[1] > 1.0 - 1e-12


class TestTentativeDepartures:
    def test_uniform_probabilities_split_evenly(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        # tiny dispersion makes all twelve travelers of an OD spread evenly
        params = params_for(net, theta=1e-9)
        h = choice.tentative_departures(
            np.zeros(3), np.array([12.0, 12.0]), 0, grid, ps, params
        )
        np.testing.assert_allclose(h[:2], 2.0, atol=1e-6)  # 12 over 2 paths x 3 cols
        np.testing.assert_allclose(h[2], 4.0, atol=1e-6)  # 12 over 1 path x 3 cols

    def test_zero_demand_zero_matrix(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        h = choice.tentative_departures(
            np.zeros(3), np.zeros(2), 0, grid, ps, params
        )
        assert not h.any()

    def test_shape_matches_remaining_horizon(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        h = choice.tentative_departures(
            np.array([180.0, 180.0, 60.0]), np.array([12.0, 12.0]), 0, grid, ps, params
        )
        assert h.shape == (3, 3)

    def test_exact_conservation_per_od(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(1200.0, 120.0)
        params = params_for(net, theta=0.31)
        rng = np.random.default_rng(1)
        phi = np.full((3, 10), np.nan)  # read from interval 3 on
        phi[:, 3:] = rng.uniform(60, 900, size=(3, 7))
        h = choice.tentative_departures(
            phi, np.array([12.0, 5.5]), 3, grid, ps, params
        )
        assert h[:2].sum() == 12.0
        assert h[2].sum() == 5.5
        assert (h >= 0).all()

    @pytest.mark.parametrize("demand", [[5.0, 5.0, 5.0], [5.0]], ids=["three", "one"])
    def test_demand_of_other_od_count_raises(self, three_path_set, demand):
        # two ODs: a third entry would be dropped, and a missing one read
        # past the end
        net, ps = three_path_set
        with pytest.raises(choice.ChoiceError, match="not one row of 2 ODs"):
            choice.tentative_departures(np.full(3, 60.0), np.array(demand), 0,
                                        nw.TimeGrid(360.0, 120.0), ps, params_for(net))


class TestRemainingDemand:
    """Row t is the demand left before interval t of the history."""

    def test_full_demand_at_start(self, three_path_set):
        net, ps = three_path_set
        d = np.array([12.0, 12.0])
        out = choice.remaining_demand(np.full((3, 2), 2.0), d, ps)
        np.testing.assert_array_equal(out[0], d)

    def test_after_first_interval(self, three_path_set):
        # realized first column (2, 2, 2): the second OD keeps 12 - 2 = 10,
        # the first keeps 12 - 4 = 8
        net, ps = three_path_set
        realized = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
        out = choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)
        np.testing.assert_array_equal(out, [[12.0, 12.0], [8.0, 10.0]])

    def test_feasible_assignment_exhausts_demand(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        h = choice.tentative_departures(
            np.array([60.0, 90.0, 30.0]), np.array([12.0, 12.0]), 0, grid, ps, params
        )
        # an empty interval after the horizon: its row is what all of h left
        out = choice.remaining_demand(np.hstack([h, np.zeros((3, 1))]), np.array([12.0, 12.0]), ps)
        np.testing.assert_allclose(out[-1], 0.0, atol=1e-12)

    def test_overdraw_raises(self, three_path_set):
        # the first two columns take 16 of the first OD's 12 before interval 2
        net, ps = three_path_set
        realized = np.full((3, 3), 4.0)
        with pytest.raises(choice.ChoiceError, match="exceed"):
            choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)

    @pytest.mark.parametrize("demand", [[12.0, 12.0, 12.0], [12.0]], ids=["three", "one"])
    def test_demand_of_other_od_count_raises(self, three_path_set, demand):
        # two ODs: a third entry would never decrease, and a missing one be
        # indexed past the end
        _, ps = three_path_set
        with pytest.raises(choice.ChoiceError, match="not one per OD of 2"):
            choice.remaining_demand(np.full((3, 2), 2.0), np.array(demand), ps)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (3,)])
    def test_history_of_other_path_count_raises(self, three_path_set, shape):
        # three paths: one row would be broadcast to all of them, and two
        # would fail inside numpy
        _, ps = three_path_set
        with pytest.raises(choice.ChoiceError, match="not one row per path of 3"):
            choice.remaining_demand(np.full(shape, 2.0), np.array([12.0, 12.0]), ps)

    def test_overdraw_in_rollout_raises(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        table = choice.share_table(np.full((3, ps.n_paths, 1), 60.0), 0, grid, ps,
                                   params_for(net))
        # every cell takes the whole demand, and the residual goes to each
        # block's largest share, its last cell (blocks of 6, 3, 4, 2, 2 and 1
        # cells), so the first OD's two paths depart 24 of its 12
        share = np.ones_like(table.share)
        share[[5, 8, 12, 14, 16, 17]] = 2.0
        table = dataclasses.replace(table, share=share)
        with pytest.raises(choice.ChoiceError, match="exceed") as err:
            choice.rollout(table, np.array([12.0, 12.0]))
        with pytest.raises(choice.ChoiceError) as loop:
            oracles.rollout(table, np.array([12.0, 12.0]), ps)
        assert str(err.value) == str(loop.value)
        assert str(err.value).startswith("OD 0: departures exceed class demand")

    def test_dust_clamped(self, three_path_set):
        net, ps = three_path_set
        realized = np.array([[6.0 + 2e-10, 0.0], [6.0, 0.0], [0.0, 0.0]])
        out = choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)
        assert out[1, 0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4),
        T=st.integers(9, 300),
        spent=st.sampled_from([0.5, 1.0, 1.0 + 5e-10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_row_is_the_per_interval_definition(self, sizes, T, spent, seed):
        # prefixes of 8 or more columns are summed pairwise, of more than
        # 128 in halves; ``spent`` of each OD's demand departs in all, so the
        # last rows are near zero or dust clamped to it
        ps = path_set_of(sizes)
        h = np.abs(segment_values(seed, ps.n_paths * T)).reshape(ps.n_paths, T)
        totals = np.bincount(ps.od_of_path, h.sum(axis=1), minlength=len(sizes)) / spent
        out = choice.remaining_demand(h, totals, ps)
        assert out.shape == (T, len(sizes))
        for t in range(T):
            departed = np.bincount(ps.od_of_path, h[:, :t].sum(axis=1), minlength=len(sizes))
            assert out[t].tobytes() == np.maximum(totals - departed, 0.0).tobytes(), t


class TestErrorTexts:
    """``remaining_demand``, ``assign`` and ``share_table`` name what they refuse:
    the overdrawn OD and its amount, the OD of a negative demand, as they did
    in numpy, and disutilities that are not finite."""

    def test_an_overdraw_names_the_worst_od_and_its_amount(self, three_path_set):
        # before interval 2 the first OD's two paths took 16 of its 12, the
        # second OD's path 8.5 of 8
        _, ps = three_path_set
        realized = np.array([[4.0, 4.0, 0.0], [4.0, 4.0, 0.0], [4.25, 4.25, 0.0]])
        with pytest.raises(choice.ChoiceError) as err:
            choice.remaining_demand(realized, np.array([12.0, 8.0]), ps)
        assert str(err.value) == (f"OD 0: departures exceed class demand {np.float64(12.0)!r} "
                                  f"by {np.float64(4.0)!r}")

    def test_a_negative_demand_names_the_od_of_its_first_block(self, three_path_set):
        net, ps = three_path_set
        phi = np.full((2, ps.n_paths, 2), 60.0)
        table = choice.share_table(phi, 0, nw.TimeGrid(240.0, 120.0), ps, params_for(net))
        for demand, message in (([[1.0, 1.0], [1.0, -1.0]], "negative remaining demand for OD 1"),
                                ([[1.0, -0.5], [-1.0, 1.0]], "negative remaining demand for OD 1"),
                                ([[-1.0, 1.0], [1.0, 1.0]], "negative remaining demand for OD 0"),
                                ([[1.0, 1.0], [-1.0, 1.0]], "negative remaining demand for OD 0")):
            with pytest.raises(choice.ChoiceError) as err:
                choice.assign(table, np.array(demand))
            assert str(err.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_travel_time_that_is_not_finite_is_refused_without_demand(self, three_path_set,
                                                                         bad):
        # an open cell of the second OD's only path, which has no demand: the
        # table is refused where it is built. Closed cells are not read, so a
        # forecast stack that is NaN before each interval builds
        net, ps = three_path_set
        grid, params = nw.TimeGrid(360.0, 120.0), params_for(net)
        phi = np.full((3, ps.n_paths, 3), 60.0)
        phi[~np.broadcast_to(choice.open_cells(0, 3, 3), phi.shape)] = np.nan
        choice.share_table(phi, 0, grid, ps, params)
        phi[1, 2, 2] = bad
        message = "non-finite disutilities: an open cell's travel time"
        with pytest.raises(choice.ChoiceError, match=message):
            choice.share_table(phi, 0, grid, ps, params)
        with pytest.raises(choice.ChoiceError, match=message):
            choice.tentative_departures(phi[1], np.array([6.0, 0.0]), 1, grid, ps, params)
        with pytest.raises(choice.ChoiceError, match=message):
            choice.tentative_departures(np.array([60.0, 60.0, bad]), np.array([6.0, 0.0]), 0,
                                        grid, ps, params)

    def test_shares_that_are_not_finite_name_their_cause(self, three_path_set):
        # every disutility is at least 5 minutes, so theta times the least
        # overflows, and each exponent is -inf less -inf: NaN
        net, ps = three_path_set
        grid, params = nw.TimeGrid(360.0, 120.0), params_for(net, theta=1e308)
        for make in (lambda: choice.share_table(np.full((3, 3, 1), 300.0), 0, grid, ps, params),
                     lambda: choice.tentative_departures(np.full(3, 300.0), np.array([6.0, 6.0]),
                                                         0, grid, ps, params)):
            with pytest.raises(choice.ChoiceError) as err:
                make()
            assert str(err.value) == ("logit shares are not finite: theta 1e+308 times a "
                                      "disutility overflows")


class TestRealize:
    """The per-interval rollout, which ``choice.rollout`` equals
    (``TestRollout``), realizes only the current column of each tentative
    plan."""

    @staticmethod
    def rollout(monkeypatch, three_path_set, plans):
        """Realized departures when the plan at interval i is ``plans[i]``, its open cells."""
        net, ps = three_path_set
        table = choice.share_table(np.full((len(plans), ps.n_paths, 1), 60.0), 0,
                                   nw.TimeGrid(360.0, 120.0), ps, params_for(net))
        monkeypatch.setattr(oracles, "assign_row", lambda table, i, rem: plans[i])
        return oracles.rollout(table, np.array([6.0, 6.0]), ps)

    def test_first_column_only(self, monkeypatch, three_path_set):
        tentative = np.array([[1.0, 1, 1], [1, 1, 1], [2, 3, 1]])
        np.testing.assert_array_equal(
            self.rollout(monkeypatch, three_path_set, [tentative])[:, 0], [1.0, 1.0, 2.0]
        )

    def test_single_column_realizes_fully(self, monkeypatch, three_path_set):
        tentative = np.array([[0.0], [1.0], [1.0]])
        np.testing.assert_array_equal(
            self.rollout(monkeypatch, three_path_set, [tentative])[:, 0], [0, 1, 1])

    def test_rolling_realization_recovers_class_matrices(self, monkeypatch, three_path_set):
        # tentative plans for three successive intervals, first class
        g = np.array([[1.0, 1, 1], [1, 1, 1], [2, 3, 1]])
        h = np.array([[0.0, 0], [3, 1], [3, 1]])
        i = np.array([[0.0], [1.0], [1.0]])
        # and the second class
        j = np.array([[2.0, 0, 0], [2, 1, 1], [2, 3, 1]])
        k = np.array([[0.0, 0], [1, 1], [2, 2]])
        l = np.array([[0.0], [1.0], [2.0]])

        first = self.rollout(monkeypatch, three_path_set, [g, h, i])
        second = self.rollout(monkeypatch, three_path_set, [j, k, l])

        m = np.array([[1.0, 0, 0], [1, 3, 1], [2, 3, 1]])
        n = np.array([[2.0, 0, 0], [2, 1, 1], [2, 2, 2]])
        o = np.array([[3.0, 0, 0], [3, 4, 2], [4, 5, 3]])
        np.testing.assert_array_equal(first, m)
        np.testing.assert_array_equal(second, n)
        np.testing.assert_array_equal(first + second, o)


class TestClassAdditivity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_total_is_sum_of_class_matrices(self, seed, grid_congested):
        net, ps, grid, params = grid_congested
        rng = np.random.default_rng(seed)
        d_i, d_f = net.class_demands()
        phi = rng.uniform(900, 2400, size=(ps.n_paths, grid.n_intervals))
        a = choice.tentative_departures(phi, d_i, 0, grid, ps, params)
        b = choice.tentative_departures(phi, d_f, 0, grid, ps, params)
        total = choice.tentative_departures(phi, d_i + d_f, 0, grid, ps, params)
        np.testing.assert_allclose(a + b, total, atol=1e-9)


def loop_tentative(phi_s, remaining, t, grid, ps, params):
    """Reference: the logit of one interval, one OD block at a time.

    Each block is shifted by its own maximum, normalised with
    ``ndarray.sum`` and has its residual folded into ``np.argmax`` of its
    shares. Returns the departures.
    """
    u = params.time_unit_s
    dep = (np.arange(t, grid.n_intervals) + 0.5) * grid.dt_s
    ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
    phi = np.asarray(phi_s, dtype=float)
    phi = phi[:, None] if phi.ndim == 1 else phi
    psi = oracles.systematic_disutility(phi / u, dep[None, :] / u, ta[:, None] / u,
                                        params.mu_early, params.mu_late)
    out = np.zeros_like(psi)
    for k, sl in enumerate(ps.od_slices):
        d = float(remaining[k])
        if sl.stop == sl.start or d == 0.0:
            continue
        if d < 0:
            raise choice.ChoiceError("reference rejects the block")
        z = -params.theta * psi[sl]
        z -= z.max()
        w = np.exp(z)
        prob = w / w.sum()
        block = prob * d
        block.reshape(-1)[np.argmax(prob.reshape(-1))] += d - block.sum()
        out[sl] = block
    return out


def path_set_of(sizes):
    """A path set whose ODs have ``sizes`` paths each (no network behind it)."""
    od_of_path = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return nw.PathSet(
        tuple(nw.Path(p, int(k), ("x",), 60.0) for p, k in enumerate(od_of_path)),
        tuple(slice(int(a), int(b)) for a, b in zip(starts[:-1], starts[1:])),
        od_of_path, np.full(len(od_of_path), 60.0), tuple(() for _ in od_of_path),
    )


def same(kernel, numpy):
    """``kernel()`` and ``numpy()``, the reference: byte for byte the same array, or the same
    error with the same message. Returns the array, or None after an error."""
    try:
        want = numpy()
    except (choice.ChoiceError, dnl.DnlError) as exc:
        with pytest.raises(type(exc)) as err:
            kernel()
        assert str(err.value) == str(exc)
        return None
    got = kernel()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return got


class TestKernelPassesEqualNumpy:
    """The kernel passes behind ``remaining_demand``, ``assign`` and a forecast
    batch's splice equal their numpy forms (``oracles.remaining_demand``,
    ``oracles.assign``, ``oracles.departures``) byte for byte, and refuse
    what they refuse with the same message."""

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 4), min_size=1, max_size=5),
        T=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_remaining_demand(self, sizes, T, seed):
        # per OD: zero demand and no departures, dust below zero that is
        # clamped, spare demand, or an overdraw, which is rarer; ODs without
        # paths keep any demand, -0.0 included; -0.0 departures too
        rng = np.random.default_rng(seed)
        ps = path_set_of(sizes)
        h = rng.uniform(0.0, 5.0, (ps.n_paths, T)) * (rng.random((ps.n_paths, T)) < 0.7)
        h[rng.random(h.shape) < 0.1] = -0.0
        kind = rng.choice(4, size=len(sizes), p=[0.25, 0.3, 0.35, 0.1])
        h[kind[ps.od_of_path] == 0] = 0.0
        totals = np.bincount(ps.od_of_path, h.sum(axis=1), minlength=len(sizes))
        demand = totals * np.choose(kind, [0.0, 1.0 - 5e-10, rng.uniform(1.0, 2.0), 0.5])
        demand[kind == 0] = rng.choice([0.0, -0.0], size=(kind == 0).sum())
        empty = np.array(sizes) == 0
        demand[empty] = rng.choice([0.0, -0.0, 3.5], size=empty.sum())
        same(lambda: choice.remaining_demand(h, demand, ps),
             lambda: oracles.remaining_demand(h, demand, ps))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any),
        T=st.integers(1, 12),
        bad_cell=st.sampled_from([None, None, np.nan, np.inf]),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_assign(self, sizes, T, bad_cell, negative, seed):
        # a table from a random first interval, one demand row per interval:
        # zeros, -0.0, dust and ordinary demand, and a negative demand; 0.0
        # in the cells before each row's interval. An open cell that is not
        # finite refuses the table where it is built, even where its OD has
        # no demand
        rng = np.random.default_rng(seed)
        ps = path_set_of(sizes)
        P, n_od = ps.n_paths, len(sizes)
        first = int(rng.integers(0, T))
        grid = nw.TimeGrid(T * 120.0, 120.0)
        params = choice.ChoiceParams(theta=0.3, target_arrival_s=tuple(rng.uniform(0, T * 120.0,
                                                                                   n_od)))
        phi = rng.uniform(30.0, 900.0, size=(T - first, P, T))
        if bad_cell is not None:
            phi[rng.integers(0, T - first), rng.integers(0, P), T - 1] = bad_cell
            with pytest.raises(choice.ChoiceError, match="non-finite disutilities"):
                choice.share_table(phi, first, grid, ps, params)
            return
        table = choice.share_table(phi, first, grid, ps, params)
        rows = T - first
        demand = np.choose(rng.integers(0, 4, size=(rows, n_od)),
                           [np.zeros((rows, n_od)), np.full((rows, n_od), -0.0),
                            rng.choice([5e-324, 1e-300, 1e-12], size=(rows, n_od)),
                            rng.uniform(0.5, 500.0, size=(rows, n_od))])
        if negative:
            demand[rng.integers(0, rows), rng.integers(0, n_od)] = -rng.uniform(1e-300, 1.0)
        got = same(lambda: choice.assign(table, demand), lambda: oracles.assign(table, demand))
        assert got is None or got.shape == (rows, P, T)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from([None, None, np.nan, -np.inf, -1e-8]),
    )
    def test_spliced_patterns(self, seed, bad):
        # the cells before each pattern's start are NaN, and not read; its
        # own cells hold -0.0 and dust down to -1e-9, which are floored
        net, ps, grid, _ = corridor()
        rng = np.random.default_rng(seed)
        P, T = ps.n_paths, grid.n_intervals

        def dust(x):
            at = rng.random(x.shape) < 0.2
            x[at] = rng.choice([-0.0, -1e-9, -1e-12, 0.0], size=at.sum())
            return x

        base = dnl.load(net, ps, grid, dust(rng.uniform(0.0, 3.0, size=(P, T))))
        starts = rng.integers(0, T, size=4)
        batch = dust(rng.uniform(0.0, 4.0, size=(4, P, T)))
        batch[np.broadcast_to(np.arange(T) < starts[:, None, None], batch.shape)] = np.nan
        if bad is not None:
            b = int(rng.integers(0, 4))
            batch[b, rng.integers(0, P), rng.integers(starts[b], T)] = bad

        def solo():  # each spliced pattern loaded alone, timed from its start
            out = np.full(batch.shape, np.nan)
            for j, (t, pattern) in enumerate(zip(starts, spliced_in_numpy())):
                out[j, :, t:] = dnl.load(net, ps, grid, pattern).path_time[:, t:]
            return out

        def spliced_in_numpy():
            return oracles.departures(batch, base._state[1], starts)

        if same(lambda: dnl.load_batch(base, batch, starts).path_time, solo) is None:
            return
        spliced, plan = spliced_in_numpy(), base._state[0]
        for j, res in enumerate(oracles.stepped(base, batch, starts)):
            up, slots = res._state[2], res._state[4]
            want_slots, want_rows = oracles.source_curves(plan, spliced[j : j + 1],
                                                          slots.shape[1])
            assert slots[plan.n_link_slots :].tobytes() == want_slots[0].tobytes()
            assert up[plan.A :].tobytes() == want_rows[0].tobytes()
            assert res.n_steps == dnl.load(net, ps, grid, spliced[j]).n_steps


class TestShareTable:
    """A share table assigns, at every interval, exactly what the one-interval
    logit does, and both equal the block-at-a-time reference bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    # 7 paths x 40 intervals: numpy sums a block of 280 shares in two halves
    @example(sizes=[7, 2], empty_od=False, T=40, forecast=False, ties=False, theta=0.3,
             unit=600.0, bad_cell=None, negative=False, seed=7)
    @given(
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=4),
        empty_od=st.booleans(),
        T=st.integers(1, 40),
        forecast=st.booleans(),
        ties=st.booleans(),
        theta=st.sampled_from([1e-9, 0.3, 1.0, 4.0]),
        unit=st.sampled_from([60.0, 600.0]),
        bad_cell=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_interval_logit(self, sizes, empty_od, T, forecast, ties, theta,
                                       unit, bad_cell, negative, seed):
        rng = np.random.default_rng(seed)
        if empty_od:  # an OD without paths has no choice set
            sizes = [*sizes[:1], 0, *sizes[1:]]
        ps = path_set_of(sizes)
        P, n_od = ps.n_paths, len(sizes)
        grid = nw.TimeGrid(T * 120.0, 120.0)
        params = choice.ChoiceParams(
            theta=theta, time_unit_s=unit,
            target_arrival_s=tuple(float(60 * rng.integers(0, 2 * T + 1)) for _ in sizes),
        )

        def times(shape):
            # whole minutes with few values make exact disutility ties common
            if ties:
                return 60.0 * rng.integers(0, 3, size=shape)
            return rng.uniform(30.0, 900.0, size=shape)

        # information by (provision, path, departure): forecasts are NaN before
        # their provision interval, instantaneous times one column for all
        phi = np.full((T, P, T if forecast else 1), np.nan)
        for t in range(T):
            if forecast:
                phi[t, :, t:] = times((P, T - t))
            else:
                phi[t, :, 0] = times(P)
        # remaining demand: zero, dust or ordinary, per interval and OD
        kind = rng.integers(0, 3, size=(T, n_od))
        remaining = np.choose(kind, [np.zeros((T, n_od)),
                                     rng.choice([5e-324, 1e-300, 1e-12], size=(T, n_od)),
                                     rng.uniform(0.5, 500.0, size=(T, n_od))])
        if bad_cell is not None:  # refused where a table is built, whether the OD is live or not
            t, p = int(rng.integers(0, T)), int(rng.integers(0, P))
            phi[t, p] = bad_cell
            if rng.random() < 0.5:
                remaining[t, ps.od_of_path[p]] = 0.0
            given = phi[t] if forecast else phi[t, :, 0]
            with pytest.raises(choice.ChoiceError, match="non-finite disutilities"):
                choice.share_table(phi, 0, grid, ps, params)
            with pytest.raises(choice.ChoiceError, match="non-finite disutilities"):
                choice.tentative_departures(given, remaining[t], t, grid, ps, params)
            return
        if negative:  # an overdrawn OD; one without paths has nothing to assign
            remaining[rng.integers(0, T), rng.integers(0, n_od)] = -rng.uniform(1e-12, 1.0)

        table = choice.share_table(phi, 0, grid, ps, params)
        wants = []
        for t in range(T):
            # the reference takes (P,) or (P, T - t); the one-interval logit
            # takes (P,) or the whole horizon (P, T)
            ref, given = (phi[t, :, t:], phi[t]) if forecast else (phi[t, :, 0], phi[t, :, 0])
            try:
                want = loop_tentative(ref, remaining[t], t, grid, ps, params)
            except choice.ChoiceError:
                with pytest.raises(choice.ChoiceError):
                    choice.tentative_departures(given, remaining[t], t, grid, ps, params)
                wants = None
                continue
            one = choice.tentative_departures(given, remaining[t], t, grid, ps, params)
            assert one.shape == want.shape == (P, T - t)
            assert np.array_equal(one, want)
            if wants is not None:
                wants.append(want)
        # every interval at once, one demand row each, as the forecast reaction assigns:
        # each row's open cells, and 0.0 before them
        if wants is None:
            with pytest.raises(choice.ChoiceError):
                choice.assign(table, remaining)
            return
        wide = choice.assign(table, remaining)
        assert wide.shape == (T, P, T)
        for t, want in enumerate(wants):
            assert wide[t, :, :t].tobytes() == np.zeros((P, t)).tobytes()
            assert np.array_equal(wide[t, :, t:], want)


    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3), (3,)])
    def test_assign_takes_one_demand_row_per_interval(self, three_path_set, shape):
        # a table of intervals 0..2 for two ODs: no row is broadcast, dropped or read past
        net, ps = three_path_set
        table = choice.share_table(np.full((3, ps.n_paths, 1), 60.0), 0,
                                   nw.TimeGrid(360.0, 120.0), ps, params_for(net))
        with pytest.raises(choice.ChoiceError, match=r"not one row of 2 ODs for each of the "
                                                     r"share table's provision intervals 0\.\.2"):
            choice.assign(table, np.full(shape, 1.0))

    def test_peak_memory_is_the_returned_arrays_and_one_work_array(self):
        # the bound of a (30, 23, 30) forecast table, stated in CHANGES.md before
        # this test first ran; the (T, P, T) disutility and its temporaries are gone
        ps, T = path_set_of([7, 6, 5, 5]), 30
        grid = nw.TimeGrid(T * 120.0, 120.0)
        params = choice.ChoiceParams(theta=0.3, target_arrival_s=(1800.0,) * 4)
        phi = np.random.default_rng(0).uniform(30.0, 900.0, size=(T, ps.n_paths, T))
        choice.share_table(phi, 0, grid, ps, params)  # caches the layout
        tracemalloc.start()
        try:
            table = choice.share_table(phi, 0, grid, ps, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.layout.cells == 10_695
        returned = table.share.nbytes
        assert returned == 85_560
        assert peak <= returned + 85_560 + 4096 == 175_216


class TestRollout:
    """``choice.rollout`` is the per-interval loop of ``oracles.rollout`` in closed
    form: the same departures within 1e-12 of each OD's demand (or of one
    vehicle) per cell, or an error where the loop raises one."""

    @staticmethod
    def table_of(three_path_set):
        net, ps = three_path_set
        return choice.share_table(np.full((3, ps.n_paths, 1), 60.0), 0, nw.TimeGrid(360.0, 120.0),
                                  ps, params_for(net))

    @staticmethod
    def assert_close(got, want, demand, ps):
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, demand)[ps.od_of_path, None]).all()

    @staticmethod
    def drawn(sizes, empty_od, T, n, forecast, ties, theta, seed):
        """A random path set, grid, parameters, (n, P, 1 or T) travel times and a
        demand per OD: zero, dust or ordinary."""
        rng = np.random.default_rng(seed)
        if empty_od:  # an OD without paths has no choice set
            sizes = [*sizes[:1], 0, *sizes[1:]]
        ps = path_set_of(sizes)
        params = choice.ChoiceParams(
            theta=theta, time_unit_s=600.0,
            target_arrival_s=tuple(float(60 * rng.integers(0, 2 * T + 1)) for _ in sizes),
        )
        shape = (n, ps.n_paths, T if forecast else 1)
        if ties:  # whole minutes with few values make exact disutility ties common
            phi = 60.0 * rng.integers(0, 3, size=shape)
        else:
            phi = rng.uniform(30.0, 900.0, size=shape)
        n_od = len(sizes)
        demand = np.choose(rng.integers(0, 3, size=n_od),
                           [np.zeros(n_od), rng.choice([5e-324, 1e-300, 1e-12], size=n_od),
                            rng.uniform(0.5, 500.0, size=n_od)])
        return rng, ps, nw.TimeGrid(T * 120.0, 120.0), params, phi, demand

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    # 7 paths x 40 intervals: numpy sums a block of 280 cells in two halves
    @example(sizes=[7, 2], empty_od=False, T=40, first=0, n=40, forecast=False, ties=False,
             theta=0.3, bad_cell=None, bad_demand=0.0, negative=False, seed=7)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4).map(
            lambda sizes: [sizes[0] or 1, *sizes[1:]]),
        empty_od=st.booleans(),
        T=st.integers(1, 60),
        first=st.integers(0, 59),
        n=st.integers(1, 60),
        forecast=st.booleans(),
        ties=st.booleans(),
        theta=st.sampled_from([1e-9, 0.3, 1.0, 4.0]),
        bad_cell=st.sampled_from([None, None, np.nan, np.inf, -np.inf]),
        bad_demand=st.sampled_from([0.0, 0.0, 1.0]),
        negative=st.sampled_from([False, False, False, True]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_interval_loop(self, sizes, empty_od, T, first, n, forecast, ties,
                                      theta, bad_cell, bad_demand, negative, seed):
        first = first % T
        n = 1 + (n - 1) % (T - first)
        rng, ps, grid, params, phi, demand = self.drawn(sizes, empty_od, T, n, forecast, ties,
                                                        theta, seed)
        if bad_cell is not None:  # refused where the table is built, whether its OD has demand
            p = int(rng.integers(0, ps.n_paths))
            phi[rng.integers(0, n), p] = bad_cell
            demand[ps.od_of_path[p]] = bad_demand
            with pytest.raises(choice.ChoiceError, match="non-finite disutilities"):
                choice.share_table(phi, first, grid, ps, params)
            return
        if negative:
            demand[rng.integers(0, len(demand))] = -rng.uniform(1e-12, 1.0)
        table = choice.share_table(phi, first, grid, ps, params)
        try:
            want = oracles.rollout(table, demand, ps)
        except choice.ChoiceError:
            with pytest.raises(choice.ChoiceError):
                choice.rollout(table, demand)
            return
        got = choice.rollout(table, demand)
        assert want.shape == (ps.n_paths, n)
        self.assert_close(got, want, demand, ps)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=4).map(
            lambda sizes: [sizes[0] or 1, *sizes[1:]]),
        empty_od=st.booleans(),
        T=st.integers(1, 60),
        first=st.integers(0, 59),
        forecast=st.booleans(),
        ties=st.booleans(),
        theta=st.sampled_from([1e-9, 0.3, 1.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_table_to_the_horizon_realizes_each_od_demand(self, sizes, empty_od, T, first,
                                                            forecast, ties, theta, seed):
        # the last interval's column is the whole choice set, so it takes
        # what is left; an OD without paths realizes nothing. Below the
        # smallest normal float, dust has no relative precision
        first = first % T
        _, ps, grid, params, phi, demand = self.drawn(sizes, empty_od, T, T - first, forecast,
                                                      ties, theta, seed)
        table = choice.share_table(phi, first, grid, ps, params)
        total = np.bincount(ps.od_of_path, choice.rollout(table, demand).sum(axis=1),
                            minlength=len(demand))
        live = np.bincount(ps.od_of_path, minlength=len(demand)) > 0
        np.testing.assert_allclose(total[live], demand[live], rtol=1e-9,
                                   atol=np.finfo(float).tiny)
        assert (total[~live] == 0.0).all()

    def test_negative_demand_raises(self, three_path_set):
        with pytest.raises(choice.ChoiceError, match="negative remaining demand for OD 1"):
            choice.rollout(self.table_of(three_path_set), np.array([12.0, -1.0]))

    def test_a_table_takes_its_first_interval_and_paths_from_its_layout(self, three_path_set):
        # no copy of either sits beside the layout to disagree with it: a
        # table built from interval 1 assigns from interval 1 on, and rolls
        # out from there as the loop of ``assign`` calls does
        net, ps = three_path_set
        table = choice.share_table(np.full((2, ps.n_paths, 1), 60.0), 1,
                                   nw.TimeGrid(360.0, 120.0), ps, params_for(net))
        for name in ("first", "n_paths"):
            with pytest.raises(TypeError):
                dataclasses.replace(table, **{name: 0})
        with pytest.raises(choice.ChoiceError, match=r"share table's provision intervals 1\.\.2"):
            choice.assign(table, np.array([[12.0, 12.0]]))
        demand = np.array([12.0, 12.0])
        self.assert_close(choice.rollout(table, demand), oracles.rollout(table, demand, ps),
                          demand, ps)

    def test_demand_of_other_od_count_rejected(self, three_path_set):
        with pytest.raises(choice.ChoiceError, match="one per OD"):
            choice.rollout(self.table_of(three_path_set), np.array([12.0, 12.0, 1.0]))

    def test_shares_short_of_the_layout_rejected(self, three_path_set):
        # a table's arrays are writable: ``assign`` checks its shares' length
        # against the layout's cells on every call
        table = self.table_of(three_path_set)
        table = dataclasses.replace(table, share=table.share[:-1])
        with pytest.raises(ValueError, match=r"not C-contiguous float64 of shape \(18,\)"):
            choice.assign(table, np.full((3, 2), 12.0))
