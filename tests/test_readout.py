"""The kernel's seeded searches and its read-out over the paths' prefix trie.

``invert`` in ``dnl_step.c`` starts each search from the previous answer of
its row (in the step) or of its trie node (in the read-out), and a row with
no outflow is not searched at all. Long plateaus in the curves, idle rows
and targets in any order must still give the loop loader's bytes.
``dnl_path_times`` passes each node of the prefix trie once per cell; each
path must still get the times of its own hop-by-hop chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_loader
from dsuedhi import dnl
from dsuedhi import network as nw
from golden_cases import FIELDS, outputs
from oracles import hop_chain, step_cap, stepped
from test_golden import assert_same, random_lattice, started_outputs


def prefix_net():
    """A chain A-B-C with two parallel B-C links, then C-D and C-E.

    The A-B path is a strict prefix of every other path from A; the paths
    from A share their first two rows, and those from A and B to D or E
    share their B-C links. The C-E link's free-flow time is under one
    interval, so the loader refines it into two steps.
    """
    links = [
        nw.Link("ab", "A", "B", 2600.0, 20.0, 5.0, 0.6, 0.15),
        nw.Link("bc", "B", "C", 2800.0, 20.0, 5.0, 0.25, 0.15),
        nw.Link("bc2", "B", "C", 3400.0, 20.0, 5.0, 0.3, 0.15),
        nw.Link("cd", "C", "D", 2600.0, 20.0, 5.0, 0.2, 0.15),
        nw.Link("ce", "C", "E", 1800.0, 20.0, 5.0, 0.5, 0.15),
    ]
    ods = [nw.OdDemand("A", d, 1.0, 0.0, 1800.0) for d in "BCDE"]
    ods.append(nw.OdDemand("B", "D", 1.0, 0.0, 1800.0))
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net, k_max=4, time_ratio=3.0, length_ratio=3.0)
    return net, ps, nw.TimeGrid(16 * 120.0, 120.0)


def idle_patterns(ps, grid, rng):
    """Departures with long runs of idle intervals: one empties early, one
    waits until the last interval, two have gaps and a sparse scatter."""
    P, T = ps.n_paths, grid.n_intervals
    early = np.zeros((P, T))
    early[:, :2] = rng.uniform(0.0, 6.0, (P, 2))
    gaps = np.zeros((P, T))
    for cols in (slice(0, 3), slice(8, 10), slice(T - 1, T)):
        gaps[:, cols] = rng.uniform(0.0, 12.0, gaps[:, cols].shape)
    sparse = np.where(rng.random((P, T)) < 0.15, rng.uniform(0.0, 20.0, (P, T)), 0.0)
    late = np.zeros((P, T))
    late[:, -1] = rng.uniform(0.0, 40.0, P)
    return np.stack([early, gaps, sparse, late])


def assert_batch_equals_loop_loader(net, ps, grid, base, batch, starts, cap=None):
    """The batch's arrays and each pattern's curves equal the loop loader's cold
    load of the pattern, from the pattern's start on."""
    with step_cap(cap):
        got = dnl.load_batch(base, batch, starts)
        curves = stepped(base, batch, starts)
    for j, (k, pattern, res) in enumerate(zip(starts, batch, curves, strict=True)):
        want = loop_loader.load(net, ps, grid, pattern, drain_max_steps=cap)
        for field in ("path_time", "extrapolated"):
            assert getattr(got, field)[j, :, k:].tobytes() == getattr(want, field)[:, k:].tobytes()
        assert (got.n_steps[j], got.drained[j]) == (want.n_steps, want.drained)
        assert_same(started_outputs(res, k, net, ps), {
            **{f: getattr(want, f) for f in FIELDS},
            **{f: getattr(want, f)[:, k:] for f in ("path_time", "extrapolated")}})
    return got


def test_idle_intervals_and_an_early_drain_equal_the_loop_loader():
    net, ps, grid = prefix_net()
    rng = np.random.default_rng(11)
    batch = idle_patterns(ps, grid, rng)
    base = dnl.load(net, ps, grid, batch[1])
    cold = assert_batch_equals_loop_loader(net, ps, grid, base, batch, np.zeros(4, dtype=int))
    # the pattern that empties early stops while the others still step
    assert cold.drained.all() and cold.n_steps[0] < cold.n_steps[1:].min()
    # spliced onto the gapped base from its idle intervals on
    starts = np.array([0, 3, 5, grid.n_intervals - 1])
    spliced = np.where(np.arange(grid.n_intervals) < starts[:, None, None], batch[1], batch)
    assert_batch_equals_loop_loader(net, ps, grid, base, spliced, starts)


@st.composite
def idle_lattices(draw):
    """``test_golden.random_lattice`` with random departure intervals emptied on
    every path, so equal samples and rows without outflow are common."""
    net, ps, grid, h, cap = random_lattice(draw(st.integers(0, 2**32 - 1)))
    idle = draw(st.lists(st.booleans(), min_size=grid.n_intervals, max_size=grid.n_intervals))
    h[:, np.array(idle)] = 0.0
    return net, ps, grid, h, cap


@settings(max_examples=25, deadline=None)
@given(case=idle_lattices(), data=st.data())
def test_idle_intervals_on_random_lattices_equal_the_loop_loader(case, data):
    net, ps, grid, h, cap = case
    T = grid.n_intervals
    k = data.draw(st.integers(0, T - 1))
    later = h.copy()
    later[:, k:] = later[:, k:][:, ::-1]  # the idle intervals move
    with step_cap(cap):
        base = dnl.load(net, ps, grid, h)
    want = loop_loader.load(net, ps, grid, h, drain_max_steps=cap)
    assert_same(outputs(base, net, ps), {f: getattr(want, f) for f in FIELDS})
    assert_batch_equals_loop_loader(net, ps, grid, base, np.stack([h, later]), [0, k], cap)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), length=st.integers(1, 30), n_targets=st.integers(1, 20))
def test_seeded_inversion_of_targets_in_any_order_equals_the_loop_loader(data, length,
                                                                        n_targets):
    # one row read at n_targets intervals, each search seeded by the one
    # before it: the entry curve is the targets themselves, one per sample,
    # read exactly at sample j by the probe leaving at j * dt; the exit curve
    # has plateaus and ends in one
    dt, rate = 60.0, 0.25
    rises = data.draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    cols = max(length, n_targets) + 1
    exits = np.full(cols, float(sum(rises)))
    exits[:length] = np.cumsum(rises)
    targets = np.array(data.draw(st.lists(st.integers(-2, 6 * length + 2), min_size=n_targets,
                                          max_size=n_targets))) / 2.0
    entries = np.zeros(cols)
    entries[:n_targets] = targets
    times = np.arange(n_targets) * dt
    got, beyond = np.empty((1, n_targets)), np.empty((1, n_targets), dtype=bool)
    ro = dnl._ReadOut(np.zeros((1, 1), dtype=np.int64), np.full(1, -np.inf), np.full(1, rate),
                      times, dt)
    dnl._read_out(ro, cols - 1, entries[None], exits[None], got, beyond)
    want, want_beyond = loop_loader._invert_vec(exits, dt, targets, rate)
    assert got[0].tobytes() == (want - times).tobytes()
    assert np.array_equal(beyond[0], want_beyond)


def test_prefix_trie_shares_prefixes_and_ends_a_prefix_path_inside():
    net, ps, grid = prefix_net()
    plan = dnl._plan(net.plan_key, ps.link_seq, grid)
    node_row, node_parent, path_end = plan.paths.trie
    hops = int((plan.path_rows >= 0).sum())
    assert (ps.n_paths, hops, len(node_row)) == (9, 30, 14)
    # the A-B path ends at a node that other paths pass through
    ab = [p for p, seq in enumerate(ps.link_seq) if len(seq) == 1]
    assert len(ab) == 1 and path_end[ab[0]] in node_parent


@pytest.mark.parametrize("cap", [None, 1])
def test_trie_read_out_equals_each_paths_own_hop_chain(cap):
    # a short step cap leaves cells read past the last sample; the paths to
    # E carry nothing late, so C-E is empty at the end while B-C still
    # queues: a late probe to E is flagged at B-C but not on C-E
    net, ps, grid = prefix_net()
    rng = np.random.default_rng(5)
    h = rng.uniform(0.0, 12.0, (ps.n_paths, grid.n_intervals))
    ce = net.link_index["ce"]
    h[[ce in seq for seq in ps.link_seq], -6:] = 0.0
    starts = np.array([0, 4, 9, grid.n_intervals - 1])
    batch = np.stack([h * rng.uniform(0.5, 2.0) for _ in starts])
    with step_cap(cap):
        base = dnl.load(net, ps, grid, h)
        loaded = [(0, base), *zip(starts, stepped(base, batch, starts))]
    flagged = False
    for k, res in loaded:
        want_time, want_flag = hop_chain(res, k)
        assert res.path_time[:, k:].tobytes() == want_time[:, k:].tobytes()
        assert np.array_equal(res.extrapolated[:, k:], want_flag[:, k:])
        flagged |= want_flag.any()
    assert flagged == (cap is not None)


def broken(trie, index, position, value):
    """``trie`` with ``trie[index][position]`` set to ``value``."""
    out = [x.copy() for x in trie]
    out[index][position] = value
    return tuple(out)


def test_trie_check_rejects_bad_parents_rows_and_ends(monkeypatch):
    net, ps, grid = prefix_net()
    plan = dnl._plan(net.plan_key, ps.link_seq, grid)
    R = plan.A + len(plan.source_links)
    trie, rows = plan.paths.trie, plan.path_rows
    dnl._check_trie(trie, rows, R)
    last = len(trie[0]) - 1
    for bad in (broken(trie, 1, 0, 0), broken(trie, 1, 1, last), broken(trie, 1, 1, -2),
                broken(trie, 0, 0, R), broken(trie, 0, 0, -1), broken(trie, 0, last, 0),
                broken(trie, 2, 0, last + 1), broken(trie, 2, 0, -1),
                broken(trie, 2, 0, trie[1][trie[2][0]]),  # path 0 ends a row early
                (*trie[:2], trie[2][:-1])):
        with pytest.raises(dnl.DnlError):
            dnl._check_trie(bad, rows, R)
    # the plan checks the trie it builds
    monkeypatch.setattr(dnl, "_trie", lambda path_rows: broken(trie, 0, 0, R))
    with pytest.raises(dnl.DnlError):
        dnl._Plan(net.links, ps.link_seq, grid)


def test_read_out_raises_memory_error_when_the_kernel_cannot_allocate(monkeypatch):
    # a batch is stepped and read out by ``dnl_step``, a load's link times by
    # ``dnl_path_times``
    net, ps, grid = prefix_net()
    h = np.ones((ps.n_paths, grid.n_intervals))
    base = dnl.load(net, ps, grid, h)
    kernel = dnl._kernel()
    for entry, call in (("dnl_step", lambda: dnl.load_batch(base, h[None], [0])),
                        ("dnl_path_times", lambda: dnl.load(net, ps, grid, h))):

        class NoMemory:
            def __getattr__(self, name):
                return (lambda *args: -1) if name == entry else getattr(kernel, name)

        monkeypatch.setattr(dnl, "_kernel", NoMemory)
        with pytest.raises(MemoryError):
            call()


@pytest.mark.parametrize("last, reached", [(5, False), (-1, False), (4, True)],
                         ids=["past the curves", "negative", "last sample"])
def test_read_out_rejects_a_last_sample_outside_the_curves(monkeypatch, last, reached):
    # ``dnl_path_times`` indexes the curves by it unchecked
    def kernel():
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(dnl, "_kernel", kernel)
    T, cols = 3, 5
    curves = np.zeros((1, cols))
    with pytest.raises(AssertionError if reached else dnl.DnlError):
        dnl._read_out(dnl._ReadOut(np.zeros((1, 1), dtype=np.int64), np.zeros(1), np.ones(1),
                                   np.arange(T) * 60.0, 60.0),
                      last, curves, curves, np.empty((1, T)), np.empty((1, T), dtype=bool))
