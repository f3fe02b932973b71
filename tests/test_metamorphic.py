"""Metamorphic relations of the whole solver: input tables changed in a known
way give the departures and iteration count they must, bit for bit.

Each relation rewrites the tables of a shipped scenario (``three_link``,
``grid`` and ``grid_uncongested``), solves the copy with the scenario's own
settings and compares it with the solve of the original. Flow scaling (every demand, capacity and jam density times k) is not
among them: it does not hold, because the loader's vehicle thresholds are
absolute.
"""

import shutil
from pathlib import Path

import pytest

from dsuedhi.equilibrium import solve_sram
from dsuedhi.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def read_table(scenario: Path, name):
    header, *rows = (scenario / name).read_text().splitlines()
    return header, [row.split(",") for row in rows]


def tables(scenario: Path):
    """The rows of the scenario's link and demand tables."""
    return (read_table(scenario, name)[1] for name in ("network.csv", "demand.csv"))


def solve(scenario: Path, directory: Path, links, demands):
    """``solve_sram`` of ``scenario`` with its tables replaced by ``links`` and ``demands``."""
    for name, rows in (("network.csv", links), ("demand.csv", demands)):
        lines = [read_table(scenario, name)[0], *(",".join(row) for row in rows)]
        (directory / name).write_text("\n".join(lines) + "\n")
    shutil.copy(scenario / "scenario.ini", directory)
    sc = load_scenario(directory / "scenario.ini")
    net, ps, grid, params = sc.build()
    return solve_sram(net, ps, grid, params, sc.solver)


def renamed(scenario: Path, prefix: str):
    """Both tables with ``prefix`` before every node and link id."""
    links, demands = tables(scenario)
    links = [[prefix + field for field in row[:3]] + row[3:] for row in links]
    demands = [[prefix + field for field in row[:2]] + row[2:] for row in demands]
    return links, demands


@pytest.fixture(scope="module", params=["three_link", "grid", "grid_uncongested"])
def scenario(request):
    return SCENARIOS / request.param


@pytest.fixture(scope="module")
def reference(scenario, tmp_path_factory):
    return solve(scenario, tmp_path_factory.mktemp("reference"), *tables(scenario))


def assert_same_solve(got, want, h):
    assert got.n_iterations == want.n_iterations
    assert h.shape == want.h.shape and h.tobytes() == want.h.tobytes()


def test_rows_in_reverse_order(scenario, reference, tmp_path):
    links, demands = tables(scenario)
    got = solve(scenario, tmp_path, links[::-1], demands[::-1])
    assert_same_solve(got, reference, got.h)


def test_ids_with_a_common_prefix(scenario, reference, tmp_path):
    # a common prefix keeps the order of the ids, and so of links, ODs and paths
    got = solve(scenario, tmp_path, *renamed(scenario, "n"))
    assert_same_solve(got, reference, got.h)


def test_network_beside_a_disjoint_copy_of_itself(scenario, reference, tmp_path):
    # the copy's ids sort after the original's, so its paths come second
    links, demands = tables(scenario)
    copy_links, copy_demands = renamed(scenario, "z")
    got = solve(scenario, tmp_path, links + copy_links, demands + copy_demands)
    P = reference.h.shape[1]
    assert got.h.shape[1] == 2 * P
    for half in (got.h[:, :P], got.h[:, P:]):
        assert_same_solve(got, reference, half)
