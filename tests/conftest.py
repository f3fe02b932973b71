"""Shared fixtures: shipped scenarios and cached expensive solves."""

from __future__ import annotations

from pathlib import Path

import pytest

from dsuedhi import scenario
from dsuedhi.equilibrium import SolverConfig
from oracles import solve_recording

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def three_link():
    sc = scenario.load_scenario(SCENARIOS / "three_link" / "scenario.ini")
    return sc.build()


@pytest.fixture(scope="session")
def three_link_scenario():
    return scenario.load_scenario(SCENARIOS / "three_link" / "scenario.ini")


@pytest.fixture(scope="session")
def grid_congested():
    sc = scenario.load_scenario(SCENARIOS / "grid" / "scenario.ini")
    return sc.build()


@pytest.fixture(scope="session")
def grid_uncongested():
    sc = scenario.load_scenario(SCENARIOS / "grid_uncongested" / "scenario.ini")
    return sc.build()


@pytest.fixture(scope="session")
def three_link_run(three_link):
    """The three-link solve and the input of each of its maps."""
    net, ps, grid, params = three_link
    return solve_recording(net, ps, grid, params, SolverConfig())


@pytest.fixture(scope="session")
def three_link_solution(three_link_run):
    return three_link_run[0]


@pytest.fixture(scope="session")
def grid_run(grid_congested):
    """The congested grid solve and the input of each of its maps."""
    net, ps, grid, params = grid_congested
    return solve_recording(net, ps, grid, params, SolverConfig())


@pytest.fixture(scope="session")
def grid_solution(grid_run):
    return grid_run[0]
