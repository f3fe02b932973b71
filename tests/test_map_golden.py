"""Map outputs equal the stored golden arrays bit for bit."""

import numpy as np
import pytest

from dsuedhi import dnl
from map_cases import FIELDS, GOLDEN, cases, run

CASES = cases()


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_map_matches_golden_exactly(golden, name):
    got = run(CASES[name])
    for field in FIELDS:
        want = golden[f"{name}__{field}"]
        assert got[field].shape == want.shape, field
        assert np.array_equal(got[field], want), field


def test_corridor_map_is_refined_and_not_constant(golden):
    net, ps, grid, _, h_i, h_f = CASES["corridor"]
    assert dnl.load(net, ps, grid, h_i + h_f).sim_dt_s == grid.dt_s / 2
    for field in ("y_instant", "y_forecast", "forecast_diag"):
        assert not np.allclose(golden[f"corridor__{field}"], golden[f"corridor_b__{field}"])
    # forecasts see queues the instantaneous times do not
    assert not np.allclose(golden["corridor__forecast_diag"], golden["corridor__instant_trace"])


def test_lattice_choice_sets_are_unequal_and_beyond_the_pairwise_block():
    _, ps, grid, _, _, _ = CASES["lattice"]
    sizes = [sl.stop - sl.start for sl in ps.od_slices]
    assert sizes == [6, 3, 2] and grid.n_intervals == 30
    assert max(sizes) * grid.n_intervals > 128  # numpy sums the block in halves
