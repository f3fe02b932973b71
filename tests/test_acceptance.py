"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). The congested and uncongested grid scenarios plus the three-link
example are the shipped reference cases.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from dsuedhi import choice, cli, dnl, metrics
from dsuedhi.equilibrium import (
    SolverConfig,
    fixed_point_map,
    multistart,
    solve_dsue,
    solve_sram,
)
from oracles import (
    diverge_comparison,
    logit,
    merge_comparison,
    overloaded_link_comparison,
    solve_recording,
    vehicles_stored,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# recorded on the first green run (observed spread ~1e-33, i.e. bit-identical
# solutions); frozen well above numerical noise, far below any distinct optimum
MULTISTART_DISTANCE_CEILING = 1e-8


def _report(label: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] {label}: {verdict}")
            return False

    return _Reporter()


def accuracy_norms(result, grid):
    rep = metrics.information_accuracy(result, grid, trim_fraction=0.0)
    return rep.norm_instant, rep.norm_forecast, rep.norm_rtt


@pytest.fixture(scope="module")
def grid_lambda_sweep(grid_congested):
    net, ps, grid, params = grid_congested
    out = {}
    for lam in (0.999, 0.75, 0.5, 0.25, 0.001):
        res = solve_sram(net.with_class_split(lam), ps, grid, params, SolverConfig())
        out[lam] = res
    return out


@pytest.fixture(scope="module")
def grid_all_instant_tight_run(grid_congested):
    """The all-instantaneous grid solved tightly, and the input of each of its maps."""
    net, ps, grid, params = grid_congested
    cfg = SolverConfig(tolerance=1e-12, max_iterations=300)
    return solve_recording(net.with_class_split(1.0), ps, grid, params, cfg)


@pytest.fixture(scope="module")
def grid_all_instant_tight(grid_all_instant_tight_run):
    return grid_all_instant_tight_run[0]


@pytest.fixture(scope="module")
def grid_theta_solutions(grid_congested):
    net, ps, grid, _ = grid_congested
    out = {}
    for theta in (0.5, 2.0):
        params = choice.ChoiceParams(theta=theta, target_arrival_s=net.target_arrivals())
        out[theta] = solve_sram(net, ps, grid, params, SolverConfig())
    return out


@pytest.fixture(scope="module")
def uncongested_solutions(grid_uncongested):
    net, ps, grid, params = grid_uncongested
    cfg = SolverConfig()
    sols = {lam: solve_sram(net.with_class_split(lam), ps, grid, params, cfg)
            for lam in (0.0, 0.5, 1.0)}
    sols["dsue"] = solve_dsue(net, ps, grid, params, cfg)
    return sols


@pytest.fixture(scope="module")
def converged_registry(
    three_link_solution,
    grid_solution,
    grid_lambda_sweep,
    grid_all_instant_tight,
    grid_theta_solutions,
    uncongested_solutions,
    three_link,
    grid_congested,
    grid_uncongested,
):
    """Every converged two-class equilibrium the suite produces, with its grid."""
    entries = [("three-link-base", three_link_solution, three_link[2]),
               ("grid-base", grid_solution, grid_congested[2]),
               ("grid-all-instant", grid_all_instant_tight, grid_congested[2])]
    for lam, res in grid_lambda_sweep.items():
        entries.append((f"grid-lambda-{lam}", res, grid_congested[2]))
    for theta, res in grid_theta_solutions.items():
        entries.append((f"grid-theta-{theta}", res, grid_congested[2]))
    for lam in (0.0, 0.5, 1.0):
        entries.append((f"uncongested-{lam}", uncongested_solutions[lam], grid_uncongested[2]))
    for name, res, _ in entries:
        assert res.converged, f"{name} did not converge"
    return entries


def test_uncongested_reduction(uncongested_solutions, grid_uncongested):
    """All information equals free flow and every model variant coincides."""
    with _report("A01 uncongested-reduction"):
        net, ps, grid, params = grid_uncongested
        base = uncongested_solutions[0.5]
        ff = ps.free_flow_s[:, None]
        assert np.abs(base.loading.instant_path_time - ff).max() <= 1e-6
        mr = fixed_point_map(*base.h, net, ps, grid, params)
        T = grid.n_intervals
        forecasts = mr.forecast_batch.path_time
        open_ = np.broadcast_to(choice.open_cells(0, T, T), forecasts.shape)
        worst = float(np.abs(forecasts - ff)[open_].max())  # NaN in an open cell fails
        assert worst <= 1e-6
        ref = base.h_total
        for key in (0.0, 1.0, "dsue"):
            other = uncongested_solutions[key]
            assert other.converged
            dist = np.linalg.norm(other.h_total - ref) / np.linalg.norm(ref)
            assert dist <= 1e-6, f"{key}: {dist}"


def test_forecast_diagonal_accuracy_when_everyone_sees_current_times(
    grid_all_instant_tight, grid_congested
):
    """With no forecast subscribers the latest forecast matches realized times."""
    with _report("A02 forecast-diagonal-accuracy"):
        _, _, grid, _ = grid_congested
        res = grid_all_instant_tight
        assert res.converged
        forecasts = res.forecast_batch.path_time
        diag = np.diagonal(forecasts, axis1=0, axis2=2)  # made at t for departure t
        norm_f = float(np.linalg.norm(diag - res.loading.path_time))
        norm_rtt = float(np.linalg.norm(res.loading.path_time))
        assert norm_f / norm_rtt <= 1e-6, norm_f / norm_rtt


def test_forecast_accuracy_degrades_with_penetration(grid_lambda_sweep, grid_congested):
    """Forecast error norm grows monotonically as fewer travelers see current times."""
    with _report("A03 forecast-penetration-trend"):
        _, _, grid, _ = grid_congested
        lams = [0.999, 0.75, 0.5, 0.25, 0.001]
        norms = []
        for lam in lams:
            res = grid_lambda_sweep[lam]
            assert res.converged
            norms.append(accuracy_norms(res, grid)[1])
        diffs = np.diff(norms)
        assert np.all(diffs > 0), norms
        ranks = np.argsort(np.argsort(norms))
        d = ranks - np.arange(len(norms))
        n = len(norms)
        spearman = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
        assert spearman == 1.0


def test_instantaneous_error_at_least_forecast_error(converged_registry):
    """Current-time info is never more accurate than the strategic forecast."""
    with _report("A04 forecast-dominates-instantaneous"):
        for name, res, grid in converged_registry:
            norm_i, norm_f, _ = accuracy_norms(res, grid)
            assert norm_i >= norm_f - 1e-9, f"{name}: {norm_i} < {norm_f}"


def test_solver_budget_and_dispersion_trend(
    three_link_solution, grid_solution, grid_theta_solutions
):
    """Base cases converge within the iteration budget; lower dispersion is no slower."""
    with _report("A05 solver-budget-and-trend"):
        assert three_link_solution.converged
        assert three_link_solution.n_iterations <= 100
        assert grid_solution.converged
        assert grid_solution.n_iterations <= 100
        assert (
            grid_theta_solutions[0.5].n_iterations
            <= grid_theta_solutions[2.0].n_iterations
        )


def test_conservation_everywhere(
    three_link_run, grid_run, grid_all_instant_tight_run,
    three_link, grid_congested, converged_registry
):
    """Class demand conservation per iterate, loading conservation, FIFO order."""
    with _report("A06 conservation-and-fifo"):
        for (res, iterates), built, instant_share in (
            (three_link_run, three_link, None),
            (grid_run, grid_congested, None),
            (grid_all_instant_tight_run, grid_congested, 1.0),
        ):
            net, ps, grid, _ = built
            if instant_share is not None:
                net = net.with_class_split(instant_share)
            d_i, d_f = net.class_demands()
            assert len(iterates) == res.n_iterations
            for h_i, h_f in iterates:
                dnl.check_feasible(h_i, ps, d_i)
                dnl.check_feasible(h_f, ps, d_f)
        for name, res, grid in converged_registry:
            loading = res.loading
            total = float(res.h_total.sum())
            assert loading.drained, name
            assert vehicles_stored(loading) <= 1e-9 * max(1.0, total), name
            assert float(loading.src_up[:, -1].sum()) == pytest.approx(total, rel=1e-9)
            assert np.all(loading.n_dn <= loading.n_up + 1e-9), name
            arrive = grid.interval_mids()[None, :] + loading.path_time
            assert np.min(np.diff(arrive, axis=1)) >= -grid.dt_s, name


def test_loading_matches_refined_oracle():
    """Coarse loading within two percent of a hundredfold-refined integration."""
    with _report("A07 refined-loading-oracle"):
        for label, pairs in (
            ("overload", overloaded_link_comparison()),
            ("merge", merge_comparison()),
            ("diverge", diverge_comparison()),
        ):
            for t, (got, want) in enumerate(pairs):
                assert got == pytest.approx(want, rel=0.02), f"{label}[{t}]: {got} vs {want}"


def test_logit_unit_suite():
    """Symmetry, shift invariance, an exact odds ratio, and the uniform limit."""
    with _report("A08 logit-units"):
        p = logit(np.array([7.0, 7.0]), theta=1.3)
        assert p[0] == 0.5 and p[1] == 0.5
        psi = np.array([3.0, 11.0, 5.0])
        a = logit(psi, theta=0.7)
        b = logit(psi + 123.0, theta=0.7)
        assert np.abs(a - b).max() <= 1e-12
        p = logit(np.array([0.0, np.log(2.0)]), theta=1.0)
        assert abs(p[0] - 2.0 / 3.0) <= 1e-12 and abs(p[1] - 1.0 / 3.0) <= 1e-12
        p = logit(np.array([4.0, 900.0, 31.0]), theta=1e-9)
        assert np.abs(p - 1.0 / 3.0).max() <= 1e-6


def test_multistart_stability(grid_congested):
    """Twenty seeded random starts all converge onto the default-start solution."""
    with _report("A09 multistart-stability"):
        net, ps, grid, params = grid_congested
        result = multistart(net, ps, grid, params, SolverConfig(), n_starts=20, seed=2026)
        assert result.n_failed == 0
        assert result.n_converged == 20
        assert float(result.distances.max()) < MULTISTART_DISTANCE_CEILING


def test_rolling_realization_structural_fixture():
    """Realized class matrices assemble from the bold first columns and add up."""
    with _report("A10 rolling-realization-fixture"):
        g = np.array([[1.0, 1, 1], [1, 1, 1], [2, 3, 1]])
        h = np.array([[0.0, 0], [3, 1], [3, 1]])
        i = np.array([[0.0], [1.0], [1.0]])
        j = np.array([[2.0, 0, 0], [2, 1, 1], [2, 3, 1]])
        k = np.array([[0.0, 0], [1, 1], [2, 2]])
        l = np.array([[0.0], [1.0], [2.0]])
        first = np.column_stack([x[:, 0] for x in (g, h, i)])
        second = np.column_stack([x[:, 0] for x in (j, k, l)])
        m = np.array([[1.0, 0, 0], [1, 3, 1], [2, 3, 1]])
        n = np.array([[2.0, 0, 0], [2, 1, 1], [2, 2, 2]])
        o = np.array([[3.0, 0, 0], [3, 4, 2], [4, 5, 3]])
        assert np.array_equal(first, m)
        assert np.array_equal(second, n)
        assert np.array_equal(first + second, o)


def test_deterministic_artifacts(tmp_path):
    """Identical scenario and flags give byte-identical outputs on every rerun."""
    with _report("A11 deterministic-artifacts"):
        src = SCENARIOS / "three_link"
        work = tmp_path / "three_link"
        shutil.copytree(src, work)
        snapshots = []
        for name in ("r1", "r2", "r3"):
            out = tmp_path / name
            code = cli.main(
                ["solve", "--scenario", str(work / "scenario.ini"), "--out", str(out)]
            )
            assert code == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1] == snapshots[2]
