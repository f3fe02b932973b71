"""A batch of patterns loads exactly as the same patterns loaded alone."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_loader
from dsuedhi import dnl, equilibrium
from dsuedhi import network as nw
from golden_cases import FIELDS as GOLDEN_FIELDS
from golden_cases import outputs
from oracles import step_cap, stepped
from test_golden import assert_same, random_lattice

FIELDS = ("path_time", "extrapolated", "n_steps", "drained")  # the arrays of a batch
CURVES = ("n_up", "n_dn", "src_up", "src_dn")  # per pattern, through dnl._step


def cold_batch(base, batch):
    """``batch`` loaded from interval 0 on, ``base`` giving only the network, path set and grid."""
    return dnl.load_batch(base, batch, np.zeros(len(batch), dtype=np.intp))


def assert_equal_fields(got, want, fields):
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert np.shape(a) == np.shape(b), field
        assert np.array_equal(a, b), field


def pattern(batch: dnl.BatchResult, j: int) -> SimpleNamespace:
    """The arrays of pattern j of ``batch``."""
    return SimpleNamespace(**{field: getattr(batch, field)[j] for field in FIELDS})


def assert_batch_equals_solo(net, ps, grid, batch, cap=None):
    with step_cap(cap):
        solos = [dnl.load(net, ps, grid, pattern) for pattern in batch]
        got = cold_batch(solos[-1], batch)
        curves = stepped(solos[-1], batch, np.zeros(len(batch), dtype=np.intp))
    assert got.path_time.shape == batch.shape
    for j, (solo, res) in enumerate(zip(solos, curves, strict=True)):
        assert_equal_fields(pattern(got, j), solo, FIELDS)
        assert_equal_fields(res, solo, CURVES)
    return got


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 6))
def test_batch_equals_solo_loads_on_random_lattices(seed, size):
    net, ps, grid, h, cap = random_lattice(seed)
    rng = np.random.default_rng(seed)
    # scaled patterns drain at different steps; a late burst drains last
    batch = np.stack([h * rng.uniform(0.0, 3.0) for _ in range(size)])
    batch[-1, :, -1] += rng.uniform(0.0, 80.0, size=ps.n_paths)
    assert_batch_equals_solo(net, ps, grid, batch, cap)


def test_batch_drains_at_different_steps_and_keeps_a_capped_pattern(three_link):
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    light = np.zeros((ps.n_paths, T))
    light[:, 0] = 1.0
    heavy = np.zeros((ps.n_paths, T))
    heavy[:, :20] = 40.0
    got = assert_batch_equals_solo(net, ps, grid, np.stack([light, heavy, light * 2]))
    assert got.n_steps[0] < got.n_steps[1] and got.drained.all()
    capped = assert_batch_equals_solo(net, ps, grid, np.stack([light, heavy]), cap=3)
    assert capped.drained.tolist() == [True, False]
    assert capped.extrapolated[1].any() and capped.n_steps[0] < capped.n_steps[1]


def test_batch_keeps_each_patterns_own_tolerance_and_last_sample(three_link):
    # dust below a pattern's drain tolerance is still on its links when it
    # drains, so its last probes are extrapolated past its own last sample,
    # while a heavier pattern in the batch steps on
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    dusty = np.zeros((ps.n_paths, T))
    dusty[:, :6] = 10.0
    dusty[0, -1] = 1e-7
    heavy = np.zeros((ps.n_paths, T))
    heavy[:, 20:] = 40.0
    got = assert_batch_equals_solo(net, ps, grid, np.stack([dusty, heavy]))
    assert got.drained[0] and got.extrapolated[0].any()
    assert got.n_steps[0] < got.n_steps[1]
    # a pattern of dust alone keeps its own tolerance, 1e-9 vehicles
    dust = np.zeros((ps.n_paths, T))
    dust[0, -1] = 1e-8
    got = assert_batch_equals_solo(net, ps, grid, np.stack([dust, heavy]))
    assert got.n_steps[0] > T


@pytest.mark.parametrize("order", ["LlHl", "lHLlH", "HlHlL", "lLlL"],
                         ids=["widening-first", "widening-middle", "widening-last", "twice"])
def test_batch_grows_its_time_axis_wherever_the_widening_pattern_is(three_link, order):
    # the patterns share one block of curves; a late burst (L) drains long
    # after the horizon plus half of it and widens the block, while heavy (H)
    # and light (l) patterns alternate, so any column a pattern read without
    # writing it would hold its predecessor's curves and change its times
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    kinds = {"l": np.zeros((ps.n_paths, T)), "H": np.zeros((ps.n_paths, T)),
             "L": np.zeros((ps.n_paths, T))}
    kinds["l"][:, 0] = 1.0
    kinds["H"][:, :20] = 40.0
    kinds["L"][:, -1] = 1000.0
    batch = np.stack([kinds[k] for k in order])
    got = assert_batch_equals_solo(net, ps, grid, batch)
    t_sim = T * dnl._plan(net.plan_key, ps.link_seq, grid).refine
    widens = got.n_steps + 1 > dnl._first_cols(t_sim, 21 * t_sim + 200)
    assert widens.tolist() == [k == "L" for k in order]
    assert len(set(got.n_steps.tolist())) == len(set(order))  # each kind drains at its own step


def test_a_load_that_outgrows_its_block_twice_equals_the_loop_loader(three_link):
    # a late burst twice that of the widening tests outgrows the first block
    # and the one half as wide again, so the kernel begins it anew twice
    net, ps, grid, _ = three_link
    h = np.zeros((ps.n_paths, grid.n_intervals))
    h[:, -1] = 2000.0
    got = dnl.load(net, ps, grid, h)
    t_sim = grid.n_intervals * dnl._plan(net.plan_key, ps.link_seq, grid).refine
    cols = dnl._first_cols(t_sim, dnl._step_cap(t_sim))
    assert got.drained and got.n_steps + 1 > cols + cols // 2
    want = loop_loader.load(net, ps, grid, h)
    assert_same(outputs(got, net, ps), {f: getattr(want, f) for f in GOLDEN_FIELDS})


def test_batch_rejects_bad_shapes_and_negative_departures(three_link):
    net, ps, grid, _ = three_link
    good = np.ones((2, ps.n_paths, grid.n_intervals))
    base = dnl.load(net, ps, grid, good[0])
    for bad in (good[0], good[:, :, 1:], -good):
        with pytest.raises(dnl.DnlError):
            cold_batch(base, bad)


def splice(h, tail, t):
    """``h`` with its columns from interval t on replaced by ``tail``."""
    out = h.copy()
    out[:, t:] = tail
    return out


def test_forecast_batch_equals_single_forecasts(grid_congested):
    net, ps, grid, _ = grid_congested
    rng = np.random.default_rng(21)
    h = rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals))
    ts = [0, 7, grid.n_intervals - 1]
    spliced = np.stack([splice(h, rng.uniform(0, 4, size=(ps.n_paths, grid.n_intervals - t)), t)
                        for t in ts])
    base = dnl.load(net, ps, grid, h)
    batch = dnl.load_batch(base, spliced, ts)
    assert batch.path_time.shape == spliced.shape
    for t, s, res in zip(ts, spliced, batch.path_time):
        fc = res[:, t:]
        one = dnl.load_batch(base, s[None], [t]).path_time[0, :, t:]
        assert fc.shape == one.shape == (ps.n_paths, grid.n_intervals - t)
        assert np.array_equal(fc, one)


def assert_started_equals_solo(net, ps, grid, base, batch, starts, cap=None):
    with step_cap(cap):
        got = dnl.load_batch(base, batch, starts)
        curves = stepped(base, batch, starts)
        solos = [dnl.load(net, ps, grid, pattern) for pattern in batch]
    assert got.path_time.shape == batch.shape
    for j, (t, solo, res) in enumerate(zip(starts, solos, curves, strict=True)):
        mine = pattern(got, j)
        assert np.isnan(mine.path_time[:, :t]).all() and not mine.extrapolated[:, :t].any()
        assert np.array_equal(mine.path_time[:, t:], solo.path_time[:, t:])
        assert np.array_equal(mine.extrapolated[:, t:], solo.extrapolated[:, t:])
        assert_equal_fields(mine, solo, ("n_steps", "drained"))
        assert_equal_fields(res, solo, CURVES)
    return got


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(4, 8))
def test_staggered_starts_equal_cold_solo_loads_on_random_lattices(seed, size):
    # refine 1-3 and capped drains come from the lattice
    net, ps, grid, h, cap = random_lattice(seed)
    rng = np.random.default_rng(seed)
    T = grid.n_intervals
    with step_cap(cap):
        base = dnl.load(net, ps, grid, h)
    # starts in any order, repeats included, and at least one after a larger
    # one: that pattern finds all its base columns in the block already
    starts = rng.permutation(np.concatenate(([0, T - 1], rng.integers(0, T, size=size - 2))))
    if (np.diff(starts) >= 0).all():
        starts = starts[::-1]
    batch = []
    for t in starts:
        # scaled tails drain at different steps; some end in a late burst
        tail = h[:, t:] * rng.uniform(0.0, 3.0)
        if rng.random() < 0.3:
            tail[:, -1] += rng.uniform(0.0, 80.0, size=ps.n_paths)
        batch.append(splice(h, tail, t))
    assert_started_equals_solo(net, ps, grid, base, np.stack(batch), starts, cap)


def test_long_horizon_staggered_batch_equals_solo_loads(grid_congested):
    # at T = 120 each pattern is timed over most of the horizon from its own
    # start, in the block the pattern before it left
    net, ps, _, _ = grid_congested
    grid = nw.TimeGrid(120.0 * 120, 120.0)
    T = grid.n_intervals
    rng = np.random.default_rng(25)
    h = rng.uniform(0, 20, size=(ps.n_paths, T))
    base = dnl.load(net, ps, grid, h)
    starts = np.array([0, 1, 40, 41, 97, T - 1])
    batch = np.stack([splice(h, rng.uniform(0, 20, size=(ps.n_paths, T - t)), t) for t in starts])
    assert_started_equals_solo(net, ps, grid, base, batch, starts)


def test_staggered_batch_keeps_a_capped_pattern_beside_drained_ones(three_link):
    net, ps, grid, _ = three_link
    T = grid.n_intervals
    h = np.zeros((ps.n_paths, T))
    h[:, 0] = 1.0
    heavy = h.copy()
    heavy[:, T // 2 :] = 40.0
    with step_cap(3):
        base = dnl.load(net, ps, grid, h)
    got = assert_started_equals_solo(net, ps, grid, base, np.stack([h, heavy, h]),
                                     np.array([0, T // 2, T - 1]), cap=3)
    assert got.drained.tolist() == [True, False, True]
    assert got.extrapolated[1].any() and got.n_steps[0] < got.n_steps[1]


def test_batch_rejects_starts_out_of_range_or_count(three_link):
    net, ps, grid, _ = three_link
    h = np.ones((2, ps.n_paths, grid.n_intervals))
    base = dnl.load(net, ps, grid, h[0])
    for starts in ([0, grid.n_intervals], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(dnl.DnlError):
            dnl.load_batch(base, h, starts)
    dnl.load_batch(base, h, [0, 3])


def test_starts_out_of_order_equal_the_same_patterns_in_order(grid_congested):
    # each pattern copies the base only up to its own start, so the order of
    # the starts changes no byte
    net, ps, grid, _ = grid_congested
    T = grid.n_intervals
    rng = np.random.default_rng(29)
    h = rng.uniform(0, 4, size=(ps.n_paths, T))
    base = dnl.load(net, ps, grid, h)
    starts = np.array([T - 1, 0, T // 2, 3])
    batch = np.stack([splice(h, rng.uniform(0, 4, size=(ps.n_paths, T - t)), t) for t in starts])
    got = assert_started_equals_solo(net, ps, grid, base, batch, starts)
    order = np.argsort(starts)
    ascending = dnl.load_batch(base, batch[order], starts[order])
    for field in FIELDS:
        assert getattr(got, field)[order].tobytes() == getattr(ascending, field).tobytes(), field


@pytest.mark.parametrize("fill", [np.nan, np.inf, -1.0, 7.5])
def test_cells_before_each_start_are_not_read(grid_congested, fill):
    # a pattern has the base's departures before its start, whatever the
    # batch holds there
    net, ps, grid, _ = grid_congested
    T = grid.n_intervals
    rng = np.random.default_rng(24)
    h = rng.uniform(0, 4, size=(ps.n_paths, T))
    base = dnl.load(net, ps, grid, h)
    starts = np.array([0, 3, 10, T - 1])
    batch = np.stack([splice(h, rng.uniform(0, 4, size=(ps.n_paths, T - t)), t) for t in starts])
    closed = np.broadcast_to(np.arange(T) < starts[:, None, None], batch.shape)
    assert closed.sum() == ps.n_paths * starts.sum()
    filled = np.where(closed, fill, batch)
    want, got = (dnl.load_batch(base, x, starts) for x in (batch, filled))
    for field in FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    for want, got in zip(stepped(base, batch, starts), stepped(base, filled, starts)):
        for field in CURVES:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


def test_batch_of_no_patterns_returns_empty_arrays(three_link):
    net, ps, grid, _ = three_link
    P, T = ps.n_paths, grid.n_intervals
    base = dnl.load(net, ps, grid, np.ones((P, T)))
    got = dnl.load_batch(base, np.empty((0, P, T)), [])
    assert got.path_time.shape == got.extrapolated.shape == (0, P, T)
    assert got.n_steps.shape == got.drained.shape == (0,)


def arrays(result) -> list[np.ndarray]:
    """Every array of a result, of the results it holds and of its tuples (``_state``)."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, tuple):
        return [x for item in result for x in arrays(item)]
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in arrays(getattr(result, f.name))]
    return []


def assert_fresh(first, second):
    """No array of ``first`` shares memory with one of ``second``."""
    ours, theirs = arrays(first), arrays(second)
    assert ours and len(ours) == len(theirs)
    for x in ours:
        assert not any(np.shares_memory(x, y) for y in theirs)


def test_each_map_and_batch_returns_fresh_arrays(three_link):
    # ``multistart`` keeps every solve's loading and forecast batch: a result
    # that reused the arrays of one before would change it under its holder
    net, ps, grid, params = three_link
    h_i, h_f = equilibrium.random_feasible_parts(np.random.default_rng(8), ps, grid,
                                                 net.class_demands())
    maps = [equilibrium.fixed_point_map(h_i, h_f, net, ps, grid, params) for _ in range(2)]
    assert_fresh(*maps)
    base, T = maps[0].loading, grid.n_intervals
    batches = [dnl.load_batch(base, np.stack([h_i + h_f] * T), np.arange(T)) for _ in range(2)]
    assert_fresh(*batches)
    assert batches[0].path_time.tobytes() == batches[1].path_time.tobytes()


def test_long_batch_holds_one_patterns_curves_at_a_time(grid_congested):
    # the 120 forecasts of the shipped grid stretched to T = 120 share one
    # block of curves: the traced peak holds the returned arrays, the spliced
    # departures twice while they are floored, and the block, also while it
    # is copied, however many patterns the batch has
    net, ps, _, _ = grid_congested
    grid = nw.TimeGrid(120.0 * 120, 120.0)
    T = grid.n_intervals
    rng = np.random.default_rng(25)
    h = rng.uniform(0, 20, size=(ps.n_paths, T))
    base = dnl.load(net, ps, grid, h)
    batch = np.stack([splice(h, rng.uniform(0, 20, size=(ps.n_paths, T - t)), t)
                      for t in range(T)])
    plan = dnl._plan(net.plan_key, ps.link_seq, grid)
    t_sim = T * plan.refine
    cols = dnl._first_cols(t_sim, dnl._step_cap(t_sim))
    block = 8 * (2 * (plan.A + len(plan.source_links)) + len(plan.slot_row)) * cols
    assert T * block > 4 * (2 * batch.nbytes + 3 * block)  # all the curves at once would not fit
    tracemalloc.start()
    try:
        got = dnl.load_batch(base, batch, np.arange(T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.n_steps.max() < cols  # no pattern widened the block
    returned = sum(getattr(got, field).nbytes for field in FIELDS)
    assert peak < returned + 2 * batch.nbytes + 3 * block
