import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsuedhi import choice
from dsuedhi import network as nw


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


class TestSystematicDisutility:
    def test_on_time_arrival_no_penalty(self):
        assert choice.systematic_disutility(10.0, 0.0, 10.0, 0.8, 1.2) == 10.0

    def test_early_arrival(self):
        assert choice.systematic_disutility(10.0, 0.0, 15.0, 0.8, 1.2) == pytest.approx(30.0)

    def test_late_arrival(self):
        assert choice.systematic_disutility(10.0, 10.0, 15.0, 0.8, 1.2) == pytest.approx(40.0)

    @settings(max_examples=50, deadline=None)
    @given(
        phi=st.floats(0, 100),
        t=st.floats(0, 100),
        ta=st.floats(0, 200),
    )
    def test_branches_and_lower_bound(self, phi, t, ta):
        v = choice.systematic_disutility(phi, t, ta, 0.8, 1.2)
        gap = t + phi - ta
        mu = 0.8 if gap < 0 else 1.2
        assert v == pytest.approx(phi + mu * gap * gap)
        assert v >= phi

    def test_vectorized(self):
        v = choice.systematic_disutility(
            np.array([10.0, 10.0]), np.array([0.0, 10.0]), 15.0, 0.8, 1.2
        )
        np.testing.assert_allclose(v, [30.0, 40.0])


class TestChoiceParams:
    def test_penalty_ordering_enforced(self):
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=1.0, target_arrival_s=(0.0,), mu_early=1.1)
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=1.0, target_arrival_s=(0.0,), mu_late=0.9)
        with pytest.raises(choice.ChoiceError):
            choice.ChoiceParams(theta=0.0, target_arrival_s=(0.0,))


class TestDisutilityMatrices:
    def test_single_remaining_interval_matches_forecast_form(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net, unit=1.0)
        ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
        phi = np.array([30.0, 40.0, 20.0])
        a = choice.disutility_from_instant(phi, 2, grid, ta, params)
        b = choice.disutility_from_forecast(phi[:, None], 2, grid, ta, params)
        assert a.shape == (3, 1)
        np.testing.assert_allclose(a, b)

    def test_instant_reuses_current_time_across_columns(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
        phi = np.array([3.0, 3.0, 1.0]) * params.time_unit_s
        psi = choice.disutility_from_instant(phi, 0, grid, ta, params)
        assert psi.shape == (3, 3)
        # travel-time component identical across columns; only the schedule
        # penalty varies, so subtracting it leaves each path's travel time
        dep = (np.arange(3) + 0.5) * 2.0  # minutes
        for p in range(3):
            gap = dep + phi[p] / 60.0 - ta[p] / 60.0
            mu = np.where(gap < 0, params.mu_early, params.mu_late)
            np.testing.assert_allclose(psi[p] - mu * gap * gap, phi[p] / 60.0)

    def test_forecast_column_specific_times(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
        phi = np.array([[3, 4, 5], [3, 4, 3], [2, 1, 1]], dtype=float) * 60.0
        psi = choice.disutility_from_forecast(phi, 0, grid, ta, params)
        assert psi.shape == (3, 3)

    def test_forecast_shape_mismatch(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
        with pytest.raises(choice.ChoiceError):
            choice.disutility_from_forecast(np.zeros((3, 2)), 0, grid, ta, params)


class TestLogit:
    def test_two_equal_choices(self):
        p = choice.logit_probabilities(np.array([5.0, 5.0]), theta=1.0)
        np.testing.assert_array_equal(p, [0.5, 0.5])

    def test_near_zero_dispersion_uniform(self):
        psi = np.array([1.0, 50.0, 3.0, 7.0])
        p = choice.logit_probabilities(psi, theta=1e-9)
        np.testing.assert_allclose(p, 0.25, atol=1e-6)

    def test_log_two_ratio(self):
        p = choice.logit_probabilities(np.array([0.0, np.log(2.0)]), theta=1.0)
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        psi = rng.uniform(0, 50, size=(4, 7))
        p = choice.logit_probabilities(psi, theta=0.7)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_overflow_safe(self):
        p = choice.logit_probabilities(np.array([0.0, 1e6]), theta=10.0)
        assert p[0] == 1.0 and p[1] == 0.0

    def test_empty_choice_set(self):
        with pytest.raises(choice.ChoiceError):
            choice.logit_probabilities(np.zeros((0, 3)), theta=1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        shift=st.floats(-50, 50),
        psi=st.lists(st.floats(0, 60), min_size=2, max_size=6),
    )
    def test_shift_invariance(self, shift, psi):
        psi = np.array(psi)
        a = choice.logit_probabilities(psi, theta=0.9)
        b = choice.logit_probabilities(psi + shift, theta=0.9)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(psi=st.lists(st.floats(0, 30), min_size=2, max_size=6, unique=True))
    def test_raising_one_entry_lowers_its_share(self, psi):
        psi = np.array(psi)
        before = choice.logit_probabilities(psi, theta=1.0)
        bumped = psi.copy()
        bumped[0] += 1.0
        after = choice.logit_probabilities(bumped, theta=1.0)
        assert after[0] < before[0]
        assert np.all(after[1:] >= before[1:] - 1e-15)

    def test_large_dispersion_concentrates_on_minimum(self):
        psi = np.array([4.0, 1.0, 9.0])
        p = choice.logit_probabilities(psi, theta=200.0)
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
        phi = rng.uniform(60, 900, size=(3, 7))
        h = choice.tentative_departures(
            phi, np.array([12.0, 5.5]), 3, grid, ps, params
        )
        assert h[:2].sum() == 12.0
        assert h[2].sum() == 5.5
        assert (h >= 0).all()


class TestRemainingDemand:
    def test_full_demand_at_start(self, three_path_set):
        net, ps = three_path_set
        d = np.array([12.0, 12.0])
        out = choice.remaining_demand(np.zeros((3, 0)), d, ps)
        np.testing.assert_array_equal(out, d)

    def test_after_first_interval(self, three_path_set):
        # realized first column (2, 2, 2): the second OD keeps 12 - 2 = 10,
        # the first keeps 12 - 4 = 8
        net, ps = three_path_set
        realized = np.array([[2.0], [2.0], [2.0]])
        out = choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)
        np.testing.assert_array_equal(out, [8.0, 10.0])

    def test_feasible_assignment_exhausts_demand(self, three_path_set):
        net, ps = three_path_set
        grid = nw.TimeGrid(360.0, 120.0)
        params = params_for(net)
        h = choice.tentative_departures(
            np.array([60.0, 90.0, 30.0]), np.array([12.0, 12.0]), 0, grid, ps, params
        )
        out = choice.remaining_demand(h, np.array([12.0, 12.0]), ps)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_overdraw_raises(self, three_path_set):
        net, ps = three_path_set
        realized = np.full((3, 2), 4.0)
        with pytest.raises(choice.ChoiceError, match="exceed"):
            choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)

    def test_dust_clamped(self, three_path_set):
        net, ps = three_path_set
        realized = np.array([[6.0 + 2e-10], [6.0], [0.0]])
        out = choice.remaining_demand(realized, np.array([12.0, 12.0]), ps)
        assert out[0] == 0.0


class TestRealize:
    def test_first_column_only(self):
        tentative = np.array([[1.0, 1, 1], [1, 1, 1], [2, 3, 1]])
        np.testing.assert_array_equal(
            choice.realize_departures(tentative), [1.0, 1.0, 2.0]
        )

    def test_single_column_realizes_fully(self):
        tentative = np.array([[0.0], [1.0], [1.0]])
        np.testing.assert_array_equal(choice.realize_departures(tentative), [0, 1, 1])

    def test_rolling_realization_recovers_class_matrices(self):
        # tentative plans for three successive intervals, first class
        g = np.array([[1.0, 1, 1], [1, 1, 1], [2, 3, 1]])
        h = np.array([[0.0, 0], [3, 1], [3, 1]])
        i = np.array([[0.0], [1.0], [1.0]])
        # and the second class
        j = np.array([[2.0, 0, 0], [2, 1, 1], [2, 3, 1]])
        k = np.array([[0.0, 0], [1, 1], [2, 2]])
        l = np.array([[0.0], [1.0], [2.0]])

        first = np.column_stack([choice.realize_departures(x) for x in (g, h, i)])
        second = np.column_stack([choice.realize_departures(x) for x in (j, k, l)])

        m = np.array([[1.0, 0, 0], [1, 3, 1], [2, 3, 1]])
        n = np.array([[2.0, 0, 0], [2, 1, 1], [2, 2, 2]])
        o = np.array([[3.0, 0, 0], [3, 4, 2], [4, 5, 3]])
        np.testing.assert_array_equal(first, m)
        np.testing.assert_array_equal(second, n)
        np.testing.assert_array_equal(first + second, o)

    def test_rejects_empty(self):
        with pytest.raises(choice.ChoiceError):
            choice.realize_departures(np.zeros((3, 0)))


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
    shares. Returns the departures and each live block's argmax cell.
    """
    u = params.time_unit_s
    dep = (np.arange(t, grid.n_intervals) + 0.5) * grid.dt_s
    ta = np.array([params.target_arrival_s[od] for od in ps.od_of_path])
    phi = np.asarray(phi_s, dtype=float)
    phi = phi[:, None] if phi.ndim == 1 else phi
    psi = choice.systematic_disutility(phi / u, dep[None, :] / u, ta[:, None] / u,
                                       params.mu_early, params.mu_late)
    out = np.zeros_like(psi)
    tops = {}
    for k, sl in enumerate(ps.od_slices):
        d = float(remaining[k])
        if sl.stop == sl.start or d == 0.0:
            continue
        if d < 0 or not np.isfinite(psi[sl]).all():
            raise choice.ChoiceError("reference rejects the block")
        z = -params.theta * psi[sl]
        z -= z.max()
        w = np.exp(z)
        prob = w / w.sum()
        block = prob * d
        tops[k] = int(np.argmax(prob.reshape(-1)))
        block.reshape(-1)[tops[k]] += d - block.sum()
        out[sl] = block
    return out, tops


def path_set_of(sizes):
    """A path set whose ODs have ``sizes`` paths each (no network behind it)."""
    od_of_path = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return nw.PathSet(
        tuple(nw.Path(p, int(k), ("x",), 60.0, 1000.0) for p, k in enumerate(od_of_path)),
        tuple(slice(int(a), int(b)) for a, b in zip(starts[:-1], starts[1:])),
        od_of_path, np.full(len(od_of_path), 60.0), tuple(() for _ in od_of_path),
    )


class TestShareTable:
    """A share table assigns, at every interval, exactly what the one-interval
    logit does, and both equal the block-at-a-time reference bit for bit."""

    # a NaN or infinite travel time makes NaN disutilities, as it always has
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

        phi = [times((P, T - t)) if forecast else times(P) for t in range(T)]
        # remaining demand: zero, dust or ordinary, per interval and OD
        kind = rng.integers(0, 3, size=(T, n_od))
        remaining = np.choose(kind, [np.zeros((T, n_od)),
                                     rng.choice([5e-324, 1e-300, 1e-12], size=(T, n_od)),
                                     rng.uniform(0.5, 500.0, size=(T, n_od))])
        if bad_cell is not None:
            t, p = int(rng.integers(0, T)), int(rng.integers(0, P))
            phi[t][p] = bad_cell
            if rng.random() < 0.5:  # the OD is not live there
                remaining[t, ps.od_of_path[p]] = 0.0
        if negative:  # an overdrawn OD; one without paths has nothing to assign
            remaining[rng.integers(0, T), rng.integers(0, n_od)] = -rng.uniform(1e-12, 1.0)

        table = choice.share_table(phi, 0, grid, ps, params)
        for t in range(T):
            try:
                want, tops = loop_tentative(phi[t], remaining[t], t, grid, ps, params)
            except choice.ChoiceError:
                with pytest.raises(choice.ChoiceError):
                    choice.tentative_departures(phi[t], remaining[t], t, grid, ps, params)
                with pytest.raises(choice.ChoiceError):
                    choice.tentative_from_shares(table, t, remaining[t])
                continue
            one = choice.tentative_departures(phi[t], remaining[t], t, grid, ps, params)
            got = choice.tentative_from_shares(table, t, remaining[t])
            assert one.shape == got.shape == want.shape == (P, T - t)
            assert np.array_equal(one, want)
            assert np.array_equal(got, want)
            # the residual goes to the first largest share, even where it is 0
            iv = table.layout.intervals[t]
            for b in range(iv.blocks.start, iv.blocks.stop):
                k = int(table.layout.block_od[b])
                if k in tops:
                    assert table.top[b] - table.layout.start[b] == tops[k]
