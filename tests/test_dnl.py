import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_loader
from dsuedhi import dnl
from dsuedhi import network as nw
from loop_loader import link_demand_rates, link_supply_rates
from oracles import (
    diverge_comparison,
    fine_single_link_oracle,
    merge_comparison,
    overloaded_link_comparison,
    partially_full_supply_comparison,
    step_cap,
    stepped,
    vehicles_stored,
)


def started(h, base, k):
    """``h`` loaded as a batch of one that starts at interval k from ``base``: the
    batch, and its pattern's curves stepped by ``dnl._step``."""
    return dnl.load_batch(base, h[None], [k]), stepped(base, h[None], [k])[0]


def single_link_net(length=2400.0, speed=20.0, cap=0.25, jam=0.2, demand=600.0):
    link = nw.Link("1", "A", "B", length, speed, 5.0, cap, jam)
    net = nw.validate_network([link], [nw.OdDemand("A", "B", demand, 0, 0.0)])
    return net, nw.build_path_set(net)


class TestInversion:
    """The kernel's FIFO inversion, reached through ``dnl._read_out``, equals the loop loader's."""

    @staticmethod
    def invert(curves, n, targets, dt, rate):
        """Exit times and beyond flags of ``targets[b, k]`` on ``curves[b, :n[b]]``.

        Pattern b, read out on its own, has a row per target, entered at time
        0 with the target ahead of the probe (a constant entry curve) and left
        along ``curves[b]``; path k is row k alone, with free-flow time -inf,
        so its time is the exit time, whatever its sign.
        """
        # the entry curve of a one-sample row is read at fraction 0 of its second column
        (B, K), cols = targets.shape, max(curves.shape[1], 2)
        up = np.repeat(targets[..., None], cols, axis=2)
        dn = np.zeros(up.shape)
        dn[..., : curves.shape[1]] = curves[:, None]
        times, beyond = np.empty((B, K, 1)), np.empty((B, K, 1), dtype=bool)
        for b in range(B):
            ro = dnl._ReadOut(np.arange(K)[:, None], np.full(K, -np.inf), np.full(K, rate),
                              np.zeros(1), dt)
            dnl._read_out(ro, n[b] - 1, up[b], dn[b], times[b], beyond[b])
        return times[..., 0], beyond[..., 0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 40),
           per_row=st.integers(1, 6))
    def test_inversion_equals_the_loop_loader(self, data, rows, cols, per_row):
        # integer increments of 0 make plateaus; half-integer targets fall on
        # samples, between them, below the first and above the last
        rises = data.draw(st.lists(st.integers(0, 3), min_size=rows * cols,
                                   max_size=rows * cols))
        curves = np.cumsum(np.reshape(rises, (rows, cols)), axis=1).astype(float)
        n = data.draw(st.lists(st.integers(1, cols), min_size=rows, max_size=rows))
        targets = np.array(data.draw(st.lists(
            st.lists(st.integers(-2, 6 * cols + 2), min_size=per_row, max_size=per_row),
            min_size=rows, max_size=rows))) / 2.0
        times, beyond = self.invert(curves, n, targets, 60.0, 0.25)
        for row, k, row_targets, got, got_beyond in zip(curves, n, targets, times, beyond):
            want, want_beyond = loop_loader._invert_vec(row[:k], 60.0, row_targets, 0.25)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_beyond, want_beyond)

    def test_one_sample_rows_reach_a_target_at_or_below_them_at_time_zero(self):
        # every link row holds one sample at step 0; with no sample below the
        # target the time is 0, not minus one step
        times, beyond = self.invert(np.zeros((2, 1)), [1, 1], np.array([[0.0, 1.0]] * 2),
                                    60.0, 1.0)
        assert beyond.tolist() == [[False, True]] * 2
        assert times.tolist() == [[0.0, pytest.approx(1.0)]] * 2


class TestLoadBasics:
    def test_free_flow_single_unit(self):
        # 1000 m at 1000/60 m/s is a 60 s traversal
        net, ps = single_link_net(length=1000.0, speed=1000.0 / 60.0, cap=0.5, demand=1.0)
        grid = nw.TimeGrid(1200.0, 120.0)
        h = np.zeros((1, 10))
        h[0, 0] = 1.0
        res = dnl.load(net, ps, grid, h)
        assert res.path_time[0, 0] == pytest.approx(60.0, abs=1e-9)

    def test_zero_departures_free_flow_everywhere(self, grid_congested):
        net, ps, grid, _ = grid_congested
        res = dnl.load(net, ps, grid, np.zeros((ps.n_paths, grid.n_intervals)))
        assert np.abs(res.path_time - ps.free_flow_s[:, None]).max() <= 1e-9
        assert np.abs(res.instant_path_time - ps.free_flow_s[:, None]).max() <= 1e-9

    def test_departure_in_last_interval_empty_network(self):
        net, ps = single_link_net(demand=1.0)
        grid = nw.TimeGrid(1200.0, 120.0)
        h = np.zeros((1, 10))
        h[0, 9] = 1.0
        res = dnl.load(net, ps, grid, h)
        assert res.path_time[0, 9] == pytest.approx(ps.free_flow_s[0], abs=1e-9)
        assert not res.extrapolated.any()

    def test_identical_inputs_bit_identical(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(7)
        h = rng.uniform(0, 3, size=(ps.n_paths, grid.n_intervals))
        a = dnl.load(net, ps, grid, h)
        b = dnl.load(net, ps, grid, h)
        assert np.array_equal(a.path_time, b.path_time)
        assert np.array_equal(a.n_dn, b.n_dn)

    def test_rejects_bad_shape_and_negatives(self):
        net, ps = single_link_net()
        grid = nw.TimeGrid(1200.0, 120.0)
        with pytest.raises(dnl.DnlError):
            dnl.load(net, ps, grid, np.zeros((2, 10)))
        h = np.zeros((1, 10))
        h[0, 0] = -1.0
        with pytest.raises(dnl.DnlError):
            dnl.load(net, ps, grid, h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_departures(self, three_link, bad):
        # a NaN cell used to load to the step cap and report finite path times
        net, ps, grid, _ = three_link
        ones = np.ones((ps.n_paths, grid.n_intervals))
        h = ones.copy()
        h[1, 3] = bad
        with pytest.raises(dnl.DnlError, match="departures must be finite"):
            dnl.load(net, ps, grid, h)
        with pytest.raises(dnl.DnlError, match="departures must be finite"):
            dnl.load_batch(dnl.load(net, ps, grid, ones), np.stack([ones, h]), [0, 0])


PLAN_ARRAYS = ("ff", "cap", "wave_lag", "storage")


class TestPlanCache:
    """``load`` finds its plan by the network's ``plan_key``: equal links share one
    plan, other links or another grid never get it, and a cached lookup hashes no link."""

    def test_equal_networks_share_a_plan(self, three_link):
        net, ps, grid, _ = three_link
        twin = nw.validate_network([dataclasses.replace(l) for l in net.links], net.od_pairs)
        assert twin.links == net.links and twin.links[0] is not net.links[0]
        h = np.zeros((ps.n_paths, grid.n_intervals))
        assert dnl.load(twin, ps, grid, h)._state[0] is dnl.load(net, ps, grid, h)._state[0]

    @pytest.mark.parametrize("field", ["length_m", "free_speed_mps", "backward_wave_mps",
                                       "capacity_vps", "jam_density_vpm"])
    def test_a_changed_link_parameter_gets_its_own_plan(self, three_link, field):
        net, ps, grid, _ = three_link
        shared = dnl._plan(net.plan_key, ps.link_seq, grid)
        links = list(net.links)
        links[1] = dataclasses.replace(links[1], **{field: getattr(links[1], field) * 1.25})
        other = nw.validate_network(links, net.od_pairs)
        plan = dnl._plan(other.plan_key, ps.link_seq, grid)
        fresh = dnl._Plan(other.links, ps.link_seq, grid)
        assert plan is not shared
        assert any(not np.array_equal(getattr(plan, a), getattr(shared, a)) for a in PLAN_ARRAYS)
        for a in PLAN_ARRAYS:
            np.testing.assert_array_equal(getattr(plan, a), getattr(fresh, a))

    def test_another_grid_gets_its_own_plan(self, three_link):
        net, ps, grid, _ = three_link
        shared = dnl._plan(net.plan_key, ps.link_seq, grid)
        finer = nw.TimeGrid(grid.horizon_s, grid.dt_s / 2)
        plan = dnl._plan(net.plan_key, ps.link_seq, finer)
        assert plan is not shared and plan.dt == dnl._Plan(net.links, ps.link_seq, finer).dt

    def test_a_cached_lookup_hashes_no_link(self, three_link, monkeypatch):
        net, ps, grid, _ = three_link
        h = np.zeros((ps.n_paths, grid.n_intervals))
        dnl.load(net, ps, grid, h)
        hashes = []
        own = nw.Link.__hash__
        monkeypatch.setattr(nw.Link, "__hash__", lambda link: hashes.append(link) or own(link))
        dnl.load(net, ps, grid, h)
        assert hashes == []


class TestDemandSupplyRules:
    def test_backlog_rate_below_capacity(self):
        # 10 vehicles ready, two-minute step, half-vehicle-per-second capacity
        assert link_demand_rates(10.0, 0.0, 0.0, 0.5, 120.0) == pytest.approx(10.0 / 120.0)

    def test_no_backlog_no_arrivals(self):
        assert link_demand_rates(5.0, 5.0, 0.0, 0.5, 120.0) == 0.0

    def test_backlog_capped_at_capacity(self):
        assert link_demand_rates(1000.0, 0.0, 0.0, 0.5, 120.0) == 0.5

    def test_supply_empty_link(self):
        assert link_supply_rates(0.0, 0.0, 480.0, 0.5, 120.0) == 0.5

    def test_supply_jammed_link(self):
        assert link_supply_rates(0.0, 480.0, 480.0, 0.5, 120.0) == 0.0

    def test_supply_floor_at_zero(self):
        assert link_supply_rates(0.0, 500.0, 480.0, 0.5, 120.0) == 0.0


def node_net(links, ods, dt=120.0, T=40):
    """A tiny network, its path set, a grid of T intervals and link indices."""
    net = nw.validate_network(links, [nw.OdDemand(o, d, 1.0, 0, 0.0) for o, d in ods])
    return net, nw.build_path_set(net), nw.TimeGrid(T * dt, dt), net.link_index


class TestNodeModel:
    """Merges and diverges resolved by the loader, on networks of 2-3 links."""

    def test_single_movement_passes_its_demand(self):
        # a link into one ample successor discharges as if it ended at a sink
        a = nw.Link("a", "A", "B", 2400, 20, 5, 0.25, 0.2)
        net, ps, grid, ix = node_net([a, nw.Link("b", "B", "C", 2400, 20, 5, 1.0, 0.2)],
                                     [("A", "C")])
        alone, ps_alone, _, _ = node_net([a], [("A", "B")])
        h = np.zeros((1, 40))
        h[0, :10] = 0.5 * 120.0  # twice a's capacity, so a queues
        through = dnl.load(net, ps, grid, h)
        ending = dnl.load(alone, ps_alone, grid, h)
        steps = ending.n_steps + 1
        assert np.array_equal(through.n_dn[ix["a"], :steps], ending.n_dn[0])
        assert np.array_equal(through.n_up[ix["b"]], through.n_dn[ix["a"]])

    def test_merge_splits_supply_in_proportion_to_demand(self):
        # queued approaches send 0.3 and 0.1 veh/s into a 0.2 veh/s link
        net, ps, grid, ix = node_net([nw.Link("a", "A", "M", 2400, 20, 5, 0.3, 0.2),
                                      nw.Link("b", "B", "M", 2400, 20, 5, 0.1, 0.2),
                                      nw.Link("m", "M", "C", 2400, 20, 5, 0.2, 0.2)],
                                     [("A", "C"), ("B", "C")])
        h = np.zeros((2, 40))
        h[0, :20] = 0.6 * 120.0
        h[1, :20] = 0.2 * 120.0
        res = dnl.load(net, ps, grid, h)
        rate_a, rate_b = (np.diff(res.n_dn[ix[k], 1:31]) / 120.0 for k in "ab")
        np.testing.assert_allclose(rate_a, 0.15, rtol=1e-9)
        np.testing.assert_allclose(rate_b, 0.05, rtol=1e-9)
        np.testing.assert_allclose(np.diff(res.n_up[ix["m"], 1:31]) / 120.0, 0.2, rtol=1e-9)

    def test_blocked_diverge_branch_stalls_the_whole_link(self):
        # half of a's vehicles turn into x, which admits 0.01 veh/s: a's
        # whole outflow is held to twice that, so y gets 0.01 of its 0.6
        net, ps, grid, ix = node_net([nw.Link("a", "A", "D", 2400, 20, 5, 0.4, 0.2),
                                      nw.Link("x", "D", "X", 2400, 20, 5, 0.01, 0.2),
                                      nw.Link("y", "D", "Y", 2400, 20, 5, 0.6, 0.2)],
                                     [("A", "X"), ("A", "Y")])
        h = np.zeros((2, 40))
        h[:, :10] = 0.2 * 120.0
        with step_cap(20):
            res = dnl.load(net, ps, grid, h)
        queued = res.n_up[ix["a"], 1:41] - res.n_dn[ix["a"], 1:41]
        assert queued.min() > 40.0  # half of them bound for y, which stays nearly empty
        for k in "xy":
            np.testing.assert_allclose(np.diff(res.n_up[ix[k], 1:41]) / 120.0, 0.01, rtol=1e-9)

    def test_no_movement_exceeds_its_demand(self, grid_congested):
        # with ample supply a merge passes each approach's own outflow, and
        # no link ever discharges more than capacity or than has arrived
        links = [nw.Link("a", "A", "M", 2400, 20, 5, 0.3, 0.2),
                 nw.Link("b", "B", "M", 2400, 20, 5, 0.1, 0.2)]
        net, ps, grid, ix = node_net([*links, nw.Link("m", "M", "C", 2400, 20, 5, 1.0, 0.2)],
                                     [("A", "C"), ("B", "C")])
        h = np.zeros((2, 40))
        h[0, :20] = 0.6 * 120.0
        h[1, :20] = 0.2 * 120.0
        res = dnl.load(net, ps, grid, h)
        for k, link in enumerate(links):
            alone, ps_alone, _, _ = node_net([link], [(link.tail, link.head)])
            solo = dnl.load(alone, ps_alone, grid, h[k : k + 1])
            assert np.array_equal(res.n_dn[ix[link.link_id], : solo.n_steps + 1], solo.n_dn[0])
        net, ps, grid, _ = grid_congested
        h = np.random.default_rng(10).uniform(0, 6, size=(ps.n_paths, grid.n_intervals))
        res = dnl.load(net, ps, grid, h)
        dt = res.sim_dt_s
        cap = np.array([l.capacity_vps for l in net.links])
        ff = np.array([l.free_flow_s for l in net.links])
        assert np.all(np.diff(res.n_dn, axis=1) <= cap[:, None] * dt * (1 + 1e-12))
        arrived = np.array([np.interp(res.boundaries - f, res.boundaries, up, left=0.0)
                            for f, up in zip(ff, res.n_up)])
        assert np.all(res.n_dn <= arrived + 1e-9)


class TestRefinedOracle:
    def test_overloaded_link_matches_fine_integration(self):
        for t, (got, want) in enumerate(overloaded_link_comparison()):
            assert got == pytest.approx(want, rel=0.02), f"interval {t}: {got} vs {want}"

    def test_merge_matches_fine_integration(self):
        for t, (got, want) in enumerate(merge_comparison()):
            assert got == pytest.approx(want, rel=0.02), f"interval {t}: {got} vs {want}"

    def test_diverge_matches_fine_integration(self):
        for t, (got, want) in enumerate(diverge_comparison()):
            assert got == pytest.approx(want, rel=0.02), f"interval {t}: {got} vs {want}"

    def test_partially_full_supply_matches_refined_curves(self):
        pairs = partially_full_supply_comparison()
        assert any(got < 0.4 for got, _ in pairs)  # the storage term binds
        for t, (got, want) in enumerate(pairs):
            assert got == pytest.approx(want, rel=0.02), f"probe {t}: {got} vs {want}"


class TestPathTravelTime:
    def test_uncongested_two_link_sum(self):
        links = [
            nw.Link("a", "A", "B", 1800, 10, 5, 1, 0.1),  # 180 s
            nw.Link("b", "B", "C", 2400, 10, 5, 1, 0.1),  # 240 s
        ]
        net = nw.validate_network(links, [nw.OdDemand("A", "C", 1, 0, 0.0)])
        ps = nw.build_path_set(net)
        grid = nw.TimeGrid(1200.0, 60.0)
        h = np.zeros((1, 20))
        h[0, 0] = 1.0
        res = dnl.load(net, ps, grid, h)
        assert res.path_time[0, 0] == pytest.approx(420.0, abs=1e-9)

    def test_congested_equals_curve_inversion(self):
        cap = 0.25
        net, ps = single_link_net(cap=cap)
        grid = nw.TimeGrid(4800.0, 120.0)
        cols = np.zeros(40)
        cols[:10] = 2 * cap * 120.0
        res = dnl.load(net, ps, grid, cols[None, :])
        oracle_tt = fine_single_link_oracle(cols, 120.0, 2400.0, 20.0, cap)
        mid = grid.interval_mids()[5]
        assert res.path_time[0, 5] == pytest.approx(oracle_tt(mid), rel=0.02)


class TestInstantaneousTimes:
    def test_sum_of_current_link_times(self):
        links = [
            nw.Link("a", "A", "B", 1800, 10, 5, 1, 0.1),
            nw.Link("b", "B", "C", 2400, 10, 5, 1, 0.1),
        ]
        net = nw.validate_network(links, [nw.OdDemand("A", "C", 1, 0, 0.0)])
        ps = nw.build_path_set(net)
        grid = nw.TimeGrid(1200.0, 60.0)
        res = dnl.load(net, ps, grid, np.zeros((1, 20)))
        phi = res.instant_path_time[:, 0]
        link_time = dnl._link_times(res)
        assert phi[0] == pytest.approx(link_time[0, 0] + link_time[1, 0])
        assert phi[0] == pytest.approx(420.0, abs=1e-9)

    def test_empty_network_equals_realized(self):
        net, ps = single_link_net(demand=1.0)
        grid = nw.TimeGrid(1200.0, 120.0)
        res = dnl.load(net, ps, grid, np.zeros((1, 10)))
        np.testing.assert_allclose(res.instant_path_time, res.path_time, atol=1e-9)

    def test_hops_add_in_sequence_on_a_one_interval_grid(self):
        # with one interval, numpy sums a (paths, hops, 1) stack over hops
        # pairwise, which gives 907.0000000000001 on this 9-link chain
        lengths = [2273.9, 1539.6, 1081.9, 1033.1, 2626.5, 2825.5, 2213.3, 2459.0, 2087.2]
        links = [nw.Link(f"l{i}", f"N{i}", f"N{i + 1}", x, 20.0, 5.0, 0.5, 0.15)
                 for i, x in enumerate(lengths)]
        net = nw.validate_network(links, [nw.OdDemand("N0", "N9", 1, 0, 0.0)])
        ps = nw.build_path_set(net)
        grid = nw.TimeGrid(120.0, 120.0)
        res = dnl.load(net, ps, grid, np.ones((1, 1)))
        link_time = dnl._link_times(res)
        want = 0.0
        for hop in link_time[:, 0]:
            want += hop
        assert res.instant_path_time.shape == (1, 1)
        assert res.instant_path_time[0, 0] == want == 907.0

    def test_building_congestion_underestimates(self):
        # downstream queue grows after the probe's provision instant
        cap = 0.25
        net, ps = single_link_net(cap=cap)
        grid = nw.TimeGrid(4800.0, 120.0)
        cols = np.zeros(40)
        cols[2:12] = 2 * cap * 120.0
        res = dnl.load(net, ps, grid, cols[None, :])
        t = 4  # congestion still building
        assert res.instant_path_time[0, t] < res.path_time[0, t]


class TestLoadingInvariants:
    def test_conservation(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(3)
        h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
        res = dnl.load(net, ps, grid, h)
        assert res.drained
        assert vehicles_stored(res) <= 1e-9 * max(1.0, h.sum())
        total_in = res.src_up[:, -1].sum()
        assert total_in == pytest.approx(h.sum(), rel=1e-12)

    def test_cumulative_curves_monotone_and_ordered(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(4)
        h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
        res = dnl.load(net, ps, grid, h)
        assert np.all(np.diff(res.n_up, axis=1) >= -1e-9)
        assert np.all(np.diff(res.n_dn, axis=1) >= -1e-9)
        assert np.all(res.n_dn <= res.n_up + 1e-9)

    def test_fifo_departure_ordering(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(5)
        h = rng.uniform(0, 6, size=(ps.n_paths, grid.n_intervals))
        res = dnl.load(net, ps, grid, h)
        arrive = grid.interval_mids()[None, :] + res.path_time
        assert np.min(np.diff(arrive, axis=1)) >= -grid.dt_s

    def test_free_flow_lower_bound(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(6)
        h = rng.uniform(0, 6, size=(ps.n_paths, grid.n_intervals))
        res = dnl.load(net, ps, grid, h)
        assert np.min(res.path_time - ps.free_flow_s[:, None]) >= -1e-6

    def test_causality_future_departures_do_not_change_finished_trips(self):
        cap = 0.25
        net, ps = single_link_net(cap=cap)
        grid = nw.TimeGrid(4800.0, 120.0)
        base = np.zeros((1, 40))
        base[0, :5] = 30.0
        res_a = dnl.load(net, ps, grid, base)
        done_by = 10  # all early trips complete before interval 20
        assert grid.interval_mids()[4] + res_a.path_time[0, 4] < 20 * 120.0
        perturbed = base.copy()
        perturbed[0, 25:30] = 45.0
        res_b = dnl.load(net, ps, grid, perturbed)
        np.testing.assert_allclose(
            res_a.path_time[0, :done_by], res_b.path_time[0, :done_by], atol=1e-9
        )

    def test_continuity_small_input_perturbation(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(8)
        h = rng.uniform(0, 5, size=(ps.n_paths, grid.n_intervals))
        res_a = dnl.load(net, ps, grid, h)
        res_b = dnl.load(net, ps, grid, h * (1 + 1e-6))
        delta = np.abs(res_a.path_time - res_b.path_time).max()
        assert delta < 1.0  # seconds, for a relative 1e-6 input change


class TestReportingAndConcurrency:
    def test_simulation_cap_flags_unfinished_trips(self):
        # far too little drain room: late departures cannot exit in-window
        net, ps = single_link_net(cap=0.25)
        grid = nw.TimeGrid(1440.0, 120.0)
        cols = np.zeros(12)
        cols[:10] = 60.0
        with step_cap(0):
            res = dnl.load(net, ps, grid, cols[None, :])
        assert not res.drained
        assert res.extrapolated[0, -1]
        assert vehicles_stored(res) > 1.0
        # extrapolated values keep the free-flow bound and departure order
        assert np.all(res.path_time[0] >= ps.free_flow_s[0] - 1e-9)
        arrive = grid.interval_mids() + res.path_time[0]
        assert np.all(np.diff(arrive) >= -grid.dt_s)

    def test_concurrent_loads_match_sequential(self, grid_congested):
        from concurrent.futures import ThreadPoolExecutor

        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(13)
        inputs = [rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals)) for _ in range(4)]
        sequential = [dnl.load(net, ps, grid, h).path_time for h in inputs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda h: dnl.load(net, ps, grid, h).path_time, inputs))
        for a, b in zip(sequential, threaded):
            assert np.array_equal(a, b)


class TestWarmStart:
    def test_warm_start_bit_identical(self, grid_congested):
        net, ps, grid, _ = grid_congested
        rng = np.random.default_rng(9)
        h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
        base = dnl.load(net, ps, grid, h)
        modified = h.copy()
        modified[:, 20:] = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - 20))
        cold = dnl.load(net, ps, grid, modified)
        batch, warm = started(modified, base, 20)
        # intervals before the start are not timed
        assert np.isnan(batch.path_time[0, :, :20]).all()
        assert np.array_equal(cold.path_time[:, 20:], batch.path_time[0, :, 20:])
        assert np.array_equal(cold.n_dn, warm.n_dn)


class TestCheckFeasible:
    def test_feasibility_check(self, grid_congested):
        net, ps, grid, _ = grid_congested
        d_i, _ = net.class_demands()
        h = np.zeros((ps.n_paths, grid.n_intervals))
        for od, sl in enumerate(ps.od_slices):
            h[sl.start, 0] = d_i[od]
        dnl.check_feasible(h, ps, d_i)
        with pytest.raises(ValueError):
            dnl.check_feasible(h * 2, ps, d_i)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, grid_congested, bad):
        # a NaN cell makes its OD total NaN, which no tolerance test used to catch
        net, ps, grid, _ = grid_congested
        d_i, _ = net.class_demands()
        h = np.zeros((ps.n_paths, grid.n_intervals))
        for od, sl in enumerate(ps.od_slices):
            h[sl.start, 0] = d_i[od]
        h[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dnl.check_feasible(h, ps, d_i)


class TestWarmStartIndexing:
    """Warm starts equal cold loads where step and slot indexing can slip."""

    @staticmethod
    def _assert_warm_equals_cold(net, ps, grid, h, k, seed):
        base = dnl.load(net, ps, grid, h)
        modified = h.copy()
        rng = np.random.default_rng(seed)
        modified[:, k:] = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - k))
        cold = dnl.load(net, ps, grid, modified)
        batch, warm = started(modified, base, k)
        assert batch.n_steps[0] == warm.n_steps == cold.n_steps
        for field in ("n_up", "n_dn", "src_dn"):
            assert np.array_equal(getattr(cold, field), getattr(warm, field)), field
        for field in ("path_time", "extrapolated"):  # timed from the start on
            assert np.array_equal(getattr(cold, field)[:, k:], getattr(batch, field)[0, :, k:]), \
                field
        # a batch computes no link times; those of its curves equal the cold ones
        assert np.array_equal(dnl._link_times(cold), dnl._link_times(warm))

    @pytest.mark.parametrize("k", [0, 7, 19])
    def test_refined_wide_lattice(self, k):
        from golden_cases import wide_lattice

        net, ps, grid, h = wide_lattice()
        assert grid.dt_s / dnl.load(net, ps, grid, h).sim_dt_s == 2
        assert grid.n_intervals == 20  # k = 19 is the last interval
        self._assert_warm_equals_cold(net, ps, grid, h, k, seed=k)

    @pytest.mark.parametrize("first_or_last", [True, False])
    def test_first_and_last_interval(self, grid_congested, first_or_last):
        net, ps, grid, _ = grid_congested
        h = np.random.default_rng(21).uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
        k = 0 if first_or_last else grid.n_intervals - 1
        self._assert_warm_equals_cold(net, ps, grid, h, k, seed=22)


def _demand_rule(n_up_lagged, n_dn_now, arrival_mass, cap, dt):
    backlog = n_up_lagged - n_dn_now
    if backlog > 1e-12:
        return min(cap, backlog / dt)
    return min(cap, max(arrival_mass, 0.0) / dt)


def _supply_rule(n_dn_wave_lagged, n_up_now, storage, cap, dt):
    return max(0.0, min(cap, (n_dn_wave_lagged + storage - n_up_now) / dt))


class TestRateRulesArrays:
    def test_array_calls_equal_scalar_calls(self):
        rng = np.random.default_rng(24)
        n = 400
        n_dn = rng.uniform(0, 50, n)
        # backlogs around zero and the threshold, arrivals of either sign
        n_up = n_dn + rng.choice([0.0, 1e-13, 1e-12, 2e-12, -1e-13, 3.0, 40.0], n)
        arrival = rng.uniform(-1, 80, n)
        storage = rng.uniform(0, 100, n)
        cap = rng.uniform(0.1, 1.0, n)
        dt = 120.0
        demand = link_demand_rates(n_up, n_dn, arrival, cap, dt)
        supply = link_supply_rates(n_dn, n_up, storage, cap, dt)
        assert demand.shape == supply.shape == (n,)
        for i in range(n):
            d_args = (float(n_up[i]), float(n_dn[i]), float(arrival[i]), float(cap[i]), dt)
            s_args = (float(n_dn[i]), float(n_up[i]), float(storage[i]), float(cap[i]), dt)
            assert demand[i] == link_demand_rates(*d_args) == _demand_rule(*d_args)
            assert supply[i] == link_supply_rates(*s_args) == _supply_rule(*s_args)
