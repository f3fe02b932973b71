"""The compiled step kernel: its sums, its bindings, and how its library is built and cached."""

import ctypes
import gc
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from dsuedhi import choice, dnl, equilibrium
from dsuedhi import network as nw
from dsuedhi.equilibrium import random_feasible_parts
from map_cases import cases, corridor
from oracles import prefix_sums, source_curves

CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for the libraries built in a test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "dsuedhi"


def test_sum_equals_ndarray_sum():
    # no golden case has a row of more than 128 numbers, which numpy splits
    # recursively, at n/2 rounded down to a multiple of 8; the prefixes of
    # each row are every length up to it, from 0
    rng = np.random.default_rng(0)
    for n in (301, 1025, 4097):
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        got = prefix_sums(np.append(x, 0.0)[None])[:, 0]
        want = np.array([x[:t].sum() for t in range(n + 1)])
        assert got.tobytes() == want.tobytes(), n


def remaining(h, path_od, demand):
    """``dnl_remaining`` on the (P, T) history ``h``: its return code and (T, ODs) rows, each
    NaN until written."""
    out = np.full((h.shape[1], len(demand)), np.nan)
    code = dnl._kernel().dnl_remaining(h.ctypes.data, *h.shape, path_od.ctypes.data,
                                        demand.ctypes.data, len(demand), out.ctypes.data)
    return code, out


@pytest.mark.parametrize("od", [-1, 2, 2**62, -2**63])
def test_remaining_demand_refuses_a_path_outside_its_ods(od):
    # each path's OD is checked in the kernel's loop, also after good paths,
    # before a row is written, which the sanitized run checks
    h, demand = np.ones((3, 4)), np.array([10.0, 10.0])
    code, out = remaining(h, np.array([0, 1, od], dtype=np.int64), demand)
    assert code == -1 and np.isnan(out).all()
    code, out = remaining(h, np.array([0, 1, 1], dtype=np.int64), demand)
    assert code == 0 and out.tolist() == [[10.0, 10.0], [9.0, 8.0], [8.0, 6.0], [7.0, 4.0]]


def test_remaining_demand_leaves_an_overdraw_unclamped_for_its_message():
    # dust is clamped only when no row overdraws: one that does leaves every
    # row as it is, for ``choice._unspent`` to name the worst
    h = np.array([[1.0 + 5e-10, 0.0], [5.0, 0.0]])
    code, out = remaining(h, np.array([0, 1], dtype=np.int64), np.array([1.0, 4.0]))
    assert code == 1 and out[1].tolist() == [1.0 - (1.0 + 5e-10), -1.0]
    code, out = remaining(h, np.array([0, 1], dtype=np.int64), np.array([1.0, 5.0]))
    assert code == 0 and out[1].tolist() == [0.0, 0.0]


def run_step(plan, h, starts, base, s_max, cols, first=0, base_h=None):
    """``dnl_step`` on the patterns ``h[B, P, T]`` from ``starts`` in a new block of ``cols``
    columns, from pattern ``first`` on, ``base`` the (up, dn, slots) block of the base and
    ``base_h`` its departures, zero by default: its return code, the block, and the
    patterns' step counts, drain flags and path times."""
    B = len(h)
    R, S = plan.A + len(plan.source_links), len(plan.slot_row)
    block = np.empty((R, cols)), np.empty((R, cols)), np.empty((S, cols))
    n_steps, drained = np.zeros(B, dtype=np.int64), np.zeros(B, np.bool_)
    path_time, extrapolated = np.full(h.shape, np.nan), np.zeros(h.shape, dtype=np.bool_)
    base_h = np.zeros(h.shape[1:]) if base_h is None else base_h
    code = dnl._kernel().dnl_step(
        plan.block.ptr, B, h.ctypes.data, starts.ctypes.data, base_h.ctypes.data,
        *(x.ctypes.data for x in base), base[0].shape[1], s_max, cols,
        *(x.ctypes.data for x in block), first,
        *(x.ctypes.data for x in (n_steps, drained, path_time, extrapolated)))
    return code, block, n_steps, drained, path_time


def test_sending_mass_is_tested_against_eps_veh_before_its_clamp():
    # one link, free-flow time one step, at step 2: its exits sit 1e-12 veh
    # past its lagged entries, so it has no backlog; 1.5e-12 veh arrive
    # during the step, over EPS_VEH (1e-12), but only 0.5e-12 veh more than
    # have left. The rule tests the unqueued mass and then clamps it to that
    # bound, so the link sends 0.5e-12 veh; tested after the clamp, it would
    # send none.
    link = nw.Link("a", "x", "y", 200.0, 20.0, 5.0, 1.0, 0.15)
    plan = dnl._Plan((link,), ((0,),), nw.TimeGrid(30.0, 10.0))
    assert (plan.refine, plan.A, len(plan.slot_row)) == (1, 1, 2)  # the link row, then the source
    # the base holds exactly the three columns the pattern starting at step 2
    # takes, so a read past them leaves its arrays
    base = np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))
    base[0][0] = base[2][0] = [0.0, 1.0, 1.0 + 1.5e-12]
    base[1][0] = [0.0, 0.5, 1.0 + 1e-12]
    (up, dn, _), bound = base, base[0][0, 2] - base[1][0, 2]
    assert up[0, 2] - up[0, 1] > 1e-12 >= bound > 0.0
    # no departures: the source sends nothing; one step, the last of the horizon
    code, (up, dn, slots), n_steps, drained, _ = run_step(
        plan, np.zeros((1, 1, 3)), np.array([2]), base, s_max=3, cols=4)
    assert code == 0 and n_steps.tolist() == [3] and drained[0]
    assert np.array_equal(up[0, :3], base[0][0]) and np.array_equal(dn[0, :3], base[1][0])
    assert dn[0, 3] == up[0, 2]  # all that has arrived has left


def test_a_pattern_that_outgrows_its_block_returns_to_be_widened():
    link = nw.Link("a", "x", "y", 200.0, 20.0, 5.0, 1.0, 0.15)
    net = nw.validate_network([link], [nw.OdDemand("x", "y", 1.0, 0.0, 100.0)])
    ps, grid = nw.build_path_set(net, k_max=1), nw.TimeGrid(100.0, 10.0)
    plan = dnl._plan(net.plan_key, ps.link_seq, grid)
    base = np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))
    h = np.zeros((2, 1, 10))
    h[0, 0, 0] = 1.0  # drains soon after the horizon
    h[1, 0, -1] = 500.0  # at capacity 1 veh/s, 500 veh take 50 steps to leave
    solo = [dnl.load(net, ps, grid, x) for x in h]
    s_max = dnl._step_cap(10)
    code, _, n_steps, drained, path_time = run_step(plan, h, np.array([0, 0]), base, s_max,
                                                    cols=12)
    # pattern 0 is done and kept; pattern 1 stopped at the last column
    assert code == 2 and drained.tolist() == [True, False]
    assert n_steps[0] == solo[0].n_steps < 11
    assert path_time[0].tobytes() == solo[0].path_time.tobytes()
    # called again from pattern 1 in a wider block, pattern 1 begins anew,
    # pattern 0 is not touched, and every column pattern 1 used is its own
    code, block, n_steps, drained, path_time = run_step(plan, h, np.array([0, 0]), base, s_max,
                                                        cols=18 + solo[1].n_steps, first=1)
    assert code == 0 and drained.tolist() == [False, True]
    assert n_steps.tolist() == [0, solo[1].n_steps]
    assert np.isnan(path_time[0]).all()
    assert path_time[1].tobytes() == solo[1].path_time.tobytes()
    last = solo[1].n_steps + 1
    for got, want in zip(block, solo[1]._state[2:]):
        assert got[:, :last].tobytes() == want[:, :last].tobytes()
    # a start past the base's columns or outside [0, T), a block that ends
    # inside the horizon, or a negative first pattern is refused before any
    # step
    for starts, cols, first in (([1], 12, 0), ([-1], 12, 0), ([10], 12, 0), ([0], 10, 0),
                                ([0], 12, -1)):
        assert run_step(plan, h[1:], np.array(starts), base, 100, cols, first)[0] == -2


@pytest.mark.parametrize("cells, code", [
    ({(0, 2): -1.0}, -4), ({(1, 9): np.nan}, -3), ({(0, 2): -1.0, (1, 9): np.inf}, -3),
    ({(0, 2): -np.inf, (1, 9): -1.0}, -3), ({(0, 2): -1e-9, (1, 0): -0.0}, 0),
    ({(1, 2): np.nan, (1, 3): -1.0}, 0), ({"base": np.nan}, -3), ({"base": -1.0}, -4),
], ids=["negative", "nan", "negative then inf", "-inf then negative", "dust", "before start",
        "base nan", "base negative"])
def test_the_splice_refuses_a_departure_that_is_not_finite_before_a_negative_one(cells, code):
    # pattern 0 starts at interval 0 and pattern 1 at 4 (the base's first 5
    # columns); a pattern reads the base's departures before its start and
    # its own from there: not finite wins over negative in any pattern, as
    # ``dnl.DnlError`` tells them apart, and dust down to -1e-9 is floored
    link = nw.Link("a", "x", "y", 200.0, 20.0, 5.0, 1.0, 0.15)
    plan = dnl._Plan((link,), ((0,),), nw.TimeGrid(100.0, 10.0))
    base = np.zeros((2, 5)), np.zeros((2, 5)), np.zeros((2, 5))
    h, base_h = np.ones((2, 1, 10)), np.ones((1, 10))
    for at, value in cells.items():
        if at == "base":
            base_h[0, 3] = value
        else:
            h[at[0], 0, at[1]] = value
    assert run_step(plan, h, np.array([0, 4]), base, 100, 40, base_h=base_h)[0] == code


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_source_curves_equal_the_numpy_formula(grid_congested, refine):
    # the kernel writes each pattern's source slot and source row curves as
    # oracles.source_curves does in numpy, bit for bit: a cumulative sum
    # starts from the first departure itself, which the kernel has floored
    # as ``np.maximum(h, 0.0)`` does, so a -0.0 departure starts it at 0.0
    net, ps, _, _ = grid_congested
    min_ff = min(link.free_flow_s for link in net.links)
    T = 12
    grid = nw.TimeGrid(T * refine * min_ff, refine * min_ff)
    plan = dnl._plan(net.plan_key, ps.link_seq, grid)
    assert plan.refine == refine
    rng = np.random.default_rng(refine)
    h = rng.uniform(0.0, 4.0, size=(2, ps.n_paths, T)) * (rng.random((2, ps.n_paths, T)) < 0.7)
    h[:, 0, :3] = -0.0
    h[1, 1, 0] = -0.0
    path_time, extrapolated = np.empty(h.shape), np.empty(h.shape, dtype=bool)
    for b in range(len(h)):
        up, _, slots, _, _ = dnl._step(plan, h[b : b + 1], np.zeros(1, dtype=np.int64),
                                       path_time[b : b + 1], extrapolated[b : b + 1])
        assert np.signbit(source_curves(plan, h[b : b + 1], up.shape[1])[0]).any()
        want_slots, want_rows = source_curves(plan, np.maximum(h[b : b + 1], 0.0), up.shape[1])
        assert not np.signbit(want_slots).any()
        assert slots[plan.n_link_slots :].tobytes() == want_slots[0].tobytes()
        assert up[plan.A :].tobytes() == want_rows[0].tobytes()


def layout(path_od, first, n, T, cells):
    """A ``layout_t`` of ``n`` provision intervals from ``first`` of ``T`` for paths of the ODs
    ``path_od`` in ``cells`` cells, and interval midpoints 120 s apart."""
    P = len(path_od)
    return choice._LayoutBlock(
        [(np.array(path_od, np.int64), np.int64, P), ((np.arange(T) + 0.5) * 120.0, np.float64, T)],
        n, first, T, P, cells)


def logit_exponents(phi, first, T, path_od, target, cells, theta=1.0):
    """``dnl_logit_exponents`` on the (n, P, cols) travel times ``phi`` into exactly ``cells``
    exponents: its return code and the exponents, NaN where it wrote nothing."""
    lay = layout(path_od, first, len(phi), T, cells)
    z = np.full(cells, np.nan)
    code = dnl._kernel().dnl_logit_exponents(
        lay.ptr, phi.ctypes.data, phi.shape[2], target.ctypes.data, len(target), 60.0, 0.8,
        1.2, theta, z.ctypes.data)
    return code, z


# 3 paths, ODs 0, 0 and 1, at provision intervals 1 and 2 of 4: 9 then 6
# cells, in blocks of 6, 3, 4 and 2
BLOCKS = [(0, 6), (6, 9), (9, 13), (13, 15)]


@pytest.mark.parametrize("case", ["fits", "cells short", "cells left over",
                                  "od past the targets", "negative od", "columns",
                                  "past the horizon", "negative first", "no intervals",
                                  "an interval without departures", "horizon short",
                                  "negative theta"])
def test_logit_exponents_refuse_blocks_outside_their_arrays(case):
    # a refused layout writes nothing, and a refused block nothing past the
    # arrays, which the sanitized run checks
    phi = np.random.default_rng(0).uniform(60.0, 900.0, size=(2, 3, 4))
    args = dict(phi=phi, first=1, T=4, path_od=np.array([0, 0, 1]), target=np.array([0.0, 1.0]),
                cells=15)
    args.update({
        "fits": {}, "cells short": {"cells": 14}, "cells left over": {"cells": 16},
        "od past the targets": {"path_od": np.array([0, 0, 2])},
        "negative od": {"path_od": np.array([-1, 0, 1])},
        "columns": {"phi": phi[..., :3].copy()},
        "past the horizon": {"first": 3}, "negative first": {"first": -1},
        "no intervals": {"phi": phi[:0].copy(), "cells": 0},
        "an interval without departures": {"phi": np.concatenate([phi, phi[:2]]), "cells": 18},
        "horizon short": {"T": 3, "phi": phi[..., :3].copy()},
        "negative theta": {"theta": -1.0},
    }[case])
    code, z = logit_exponents(**args)
    assert code == (0 if case == "fits" else -1)
    if case == "fits":
        assert np.isfinite(z).all() and (z <= 0.0).all()
        assert [np.max(z[a:b]) for a, b in BLOCKS] == [0.0] * 4
    elif case == "od past the targets":  # the block before it is written
        assert np.isfinite(z[:6]).all() and np.isnan(z[6:]).all()
    else:
        assert np.isnan(z).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_logit_exponents_refuse_a_block_that_is_not_finite(bad):
    # with a positive theta, -3 at the first block whose disutilities are not
    # all finite; with theta 0 the disutilities themselves, as they are
    phi = np.random.default_rng(0).uniform(60.0, 900.0, size=(2, 3, 4))
    phi[1, 2, 3] = bad  # the last block: interval 2, OD 1
    args = dict(phi=phi, first=1, T=4, path_od=np.array([0, 0, 1]), target=np.array([0.0, 1.0]),
                cells=15)
    code, z = logit_exponents(**args)
    assert code == -3 and np.isfinite(z[:13]).all()
    code, z = logit_exponents(**args, theta=0.0)
    assert code == 0 and np.isfinite(z[:14]).all() and not np.isfinite(z[14])


@pytest.mark.parametrize("case", [{"cells": 14}, {"cells": 16}, {"first": 3}, {"first": -1},
                                  {"n": 0, "cells": 0}, {"n": 4, "cells": 18}, {"T": 3}],
                         ids=["cells short", "cells left over", "past the horizon",
                              "negative first", "no intervals", "an interval without departures",
                              "horizon short"])
def test_logit_shares_refuse_a_layout_that_does_not_fit(case):
    # the one check of the call, before any block is written
    args = dict(path_od=[0, 0, 1], first=1, n=2, T=4, cells=15)
    args.update(case)
    w = np.ones(16)
    assert dnl._kernel().dnl_logit_shares(layout(**args).ptr, w.ctypes.data) == -1
    assert (w == 1.0).all()


def test_logit_shares_divide_each_block_of_the_path_runs_by_its_sum():
    # blocks found from the runs of the paths' ODs; 1 at the first block
    # whose sum is not finite, after the blocks before it
    lay, kernel = layout([0, 0, 1], 1, 2, 4, 15), dnl._kernel()
    w = np.ones(15)
    assert kernel.dnl_logit_shares(lay.ptr, w.ctypes.data) == 0
    for a, b in BLOCKS:
        assert w[a:b].tolist() == [1.0 / (b - a)] * (b - a)
    w = np.ones(15)
    w[10] = np.inf
    assert kernel.dnl_logit_shares(lay.ptr, w.ctypes.data) == 1
    assert w[:9].tolist() == [1.0 / 6] * 6 + [1.0 / 3] * 3
    assert w[9:].tolist() == [1.0, np.inf] + [1.0] * 4


def assign(case):
    """``dnl_assign`` on a table of 3 paths, ODs 0, 0 and 1, at provision intervals 1 and 2
    of 4, changed by ``case``: its return code and its (n, 3, 4) output, NaN where it wrote
    nothing. The blocks have 6, 3, 4 and 2 cells in 15; each block's shares are 1 over its
    size, unless ``case`` gives ``share``."""
    args = dict(path_od=[0, 0, 1], first=1, n=2, T=4, cells=15, n_od=2,
                demand=[[6.0, 3.0], [4.0, 2.0]],
                share=np.repeat(1.0 / np.array([6.0, 3.0, 4.0, 2.0]), [6, 3, 4, 2]))
    args.update(case)
    lay = layout(args["path_od"], args["first"], args["n"], args["T"], args["cells"])
    share, demand = np.array(args["share"]), np.array(args["demand"])
    out = np.full((max(args["n"], 0), 3, 4), np.nan)
    code = dnl._kernel().dnl_assign(lay.ptr, share.ctypes.data, demand.ctypes.data,
                                    args["n_od"], out.ctypes.data)
    return code, out


@pytest.mark.parametrize("case", [
    {"cells": 14}, {"cells": 16}, {"first": 3}, {"first": -1}, {"n": 0, "cells": 0},
    {"n": 4, "cells": 18}, {"T": 3}, {"n_od": 1}, {"path_od": [0, 0, -1]},
    {"n_od": 1, "demand": [[-6.0, 3.0], [4.0, 2.0]]},
], ids=["cells short", "cells left over", "past the horizon", "negative first", "no intervals",
        "an interval without departures", "horizon short", "od past the demand", "negative od",
        "od past the demand after a negative demand"])
def test_assign_refuses_a_layout_that_does_not_fit(case):
    # checked before any cell is written, which the sanitized run checks:
    # nothing is written past the arrays, nor at all
    code, out = assign(case)
    assert code == -1 and np.isnan(out).all()


def test_assign_writes_every_cell():
    # into an output poisoned with NaN: each row's open cells, from its
    # interval on, get their assignment and the cells before them 0.0
    want = [[[0.0, 1.0, 1.0, 1.0]] * 3, [[0.0, 0.0, 1.0, 1.0]] * 3]
    code, out = assign({})
    assert code == 0 and out.tobytes() == np.array(want).tobytes()


def test_assign_folds_the_residual_into_the_first_largest_share():
    # block 0, OD 0 at interval 1, ties its largest share at cells 1 and 2
    # (path 0, departures 2 and 3); np.argmax takes the first
    s = np.array([0.1, 0.3, 0.3, 0.1, 0.1, 0.1])
    residual = 3.0 - (s * 3.0).sum()
    assert residual != 0.0
    share = np.concatenate([s, np.repeat(1.0 / np.array([3.0, 4.0, 2.0]), [3, 4, 2])])
    code, out = assign({"share": share, "demand": [[3.0, 3.0], [4.0, 2.0]]})
    assert code == 0
    assert out[0, 0, 2] == 0.3 * 3.0 + residual and out[0, 0, 3] == 0.3 * 3.0


@pytest.mark.parametrize("case, code", [
    ({"demand": [[6.0, 3.0], [4.0, -2.0]]}, 2), ({"demand": [[6.0, -0.0], [-1e-300, -2.0]]}, 1),
    ({"demand": [[6.0, 3.0], [-4.0, 2.0]]}, 1), ({"demand": [[-0.0, -0.0], [4.0, 2.0]]}, 0),
    ({"demand": [[6.0, 3.0], [4.0, np.nan]]}, 0),
], ids=["negative", "first negative in block order", "negative in the second row",
        "-0.0 is not negative", "nan demand"])
def test_assign_returns_the_od_of_the_first_negative_demand(case, code):
    # 1 + the OD of the first negative demand in block order, before any
    # cell is written; a NaN demand is assigned as it is
    got, out = assign(case)
    assert got == code
    if code:
        assert np.isnan(out).all()
    else:  # NaN only in the two open cells of OD 1 at interval 2 that a NaN demand takes
        assert np.isnan(out).sum() == 2 * np.isnan(case["demand"]).sum()


C_TYPES = {"void": None, "i64": ctypes.c_int64, "double": ctypes.c_double}


def test_every_entry_point_is_bound_with_its_c_signature():
    # ctypes passes an argument without ``argtypes`` as a C int, which would
    # truncate pointers and 64-bit integers without a word
    source = (SRC / "dsuedhi" / "dnl_step.c").read_text()
    defined = re.findall(r"^(void|i64|double)\s+(dnl_\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} >= {"dnl_step", "dnl_path_times",
                                                 "dnl_logit_exponents", "dnl_logit_shares",
                                                 "dnl_remaining", "dnl_assign"}
    declared = re.findall(r"^(?!static)\w[\w \t*]*?\b(dnl_\w+)\(", source, re.M)
    assert sorted(declared) == sorted(name for _, name, _ in defined)
    lib = dnl._kernel()
    for returns, name, params in defined:
        want = [ctypes.c_void_p if "*" in param else C_TYPES[param.split()[-2]]
                for param in params.split(",")]
        fn = getattr(lib, name)
        assert list(fn.argtypes or ()) == want, name
        assert fn.restype is C_TYPES[returns], name


KINDS = {ctypes.c_void_p: 0, ctypes.c_int64: 1, ctypes.c_double: 2, dnl._ReadOut: 3}


def test_argument_blocks_mirror_their_c_structs():
    # ctypes fills a block by its mirror's fields, the kernel reads it by the C
    # struct's: each block's size, then each field's offset and kind, in order
    want = []
    for block in (dnl._PlanBlock, dnl._ReadOut, choice._LayoutBlock):
        want.append(ctypes.sizeof(block))
        for name, ctype in block._fields_:
            want += [getattr(block, name).offset, KINDS[ctype]]
    got = np.full(len(want) + 1, -1, dtype=np.int64)
    assert dnl._kernel().dnl_blocks(got.ctypes.data, len(got)) == len(want)
    assert got[:-1].tolist() == want and got[-1] == -1


def pointers(block):
    """The address in each pointer field of ``block`` and of the blocks it holds."""
    for name, ctype in block._fields_:
        if ctype is ctypes.c_void_p:
            yield getattr(block, name)
        elif issubclass(ctype, ctypes.Structure):
            yield from pointers(getattr(block, name))


def test_block_arrays_are_read_only_and_outlive_what_they_were_built_from():
    net, ps, grid, params = corridor()
    h = sum(random_feasible_parts(np.random.default_rng(3), ps, grid, net.class_demands()))
    demand = net.class_demands()[0]
    # new blocks, through which one load and one table are made; the blocks
    # alone keep some of their arrays, such as each plan's interval midpoints
    dnl._plan.cache_clear()
    choice._layout.cache_clear()
    res = dnl.load(net, ps, grid, h)
    phi = res.instant_path_time.T[:, :, None]
    table = choice.share_table(phi, 0, grid, ps, params)
    plan, layout = res._state[0], table.layout
    want = res.path_time.tobytes(), table.share.tobytes(), choice.rollout(table, demand)
    for block in (plan.block, plan.links, layout.block):
        addresses = list(pointers(block))
        assert len(addresses) == len(block.arrays)
        assert set(addresses) == {x.ctypes.data for x in block.arrays}
        for x in block.arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0
    del res, table
    gc.collect()
    junk = [np.full(n, np.nan) for n in range(1, 400)]  # takes what was freed
    # the same load through the cached plan, and the same table through the cached layout
    got, flags = np.empty((1, *h.shape)), np.empty((1, *h.shape), dtype=bool)
    dnl._step(plan, h[None], np.zeros(1, dtype=np.int64), got, flags)
    again = choice.share_table(phi, 0, grid, ps, params)
    assert again.layout is layout
    assert (got[0].tobytes(), again.share.tobytes()) == want[:2]
    assert choice.rollout(again, demand).tobytes() == want[2].tobytes()
    del junk


def test_kernel_arguments_are_checked_under_python_O():
    # ``assert`` is gone under -O, where a float32 array would be read as float64.
    # ``_arg`` reads a writable array's address through ctypes, and a read-only or
    # empty one's through ``ndarray.ctypes``: each is checked, and each address is
    # that of its data
    code = """if True:
        import numpy as np
        from dsuedhi import dnl

        def both(x):
            frozen = x.view()
            frozen.flags.writeable = False
            return x, frozen

        for n in (4, 0):
            bad = [np.zeros(n, np.float32), np.zeros(n + 1), np.zeros((1, n))]
            if n:  # an empty array is contiguous whatever its strides
                bad.append(np.zeros(2 * n)[::2])
            for x in (y for b in bad for y in both(b)):
                try:
                    dnl._arg(x, np.float64, (n,))
                except ValueError:
                    continue
                raise SystemExit(f"passed: {x.dtype} of shape {x.shape}, {x.flags}")
            for x in both(np.zeros(n)):
                if dnl._arg(x, np.float64, (n,)) != x.ctypes.data:
                    raise SystemExit(f"wrong address of {x.flags}")
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_kernel_source_compiles_without_warnings(tmp_path):
    # with the compiler and the optimizing flags ``dnl._kernel`` builds
    # with: a local or a parameter that a change leaves unused, a comparison
    # of mixed signedness, or what only the optimizer finds (a read that may
    # be uninitialized or out of bounds) fails
    command = [*CC, "-O2", "-fPIC", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror", "-c",
               str(SRC / "dsuedhi" / "dnl_step.c"), "-o", str(tmp_path / "dnl_step.o")]
    run = subprocess.run(command, capture_output=True, text=True)
    assert run.returncode == 0, f"{shlex.join(command)}\n{run.stderr}"


def test_failed_build_names_the_command_and_its_stderr(cache):
    fails = [sys.executable, "-c", "import sys; sys.exit('no compiler here')"]
    with pytest.raises(dnl.DnlError) as err:
        dnl._library(fails)
    assert shlex.join(fails) in str(err.value)
    assert "no compiler here" in str(err.value)
    assert os.listdir(cache) == []  # the partial output is removed


def test_second_load_uses_the_cached_library(cache, monkeypatch):
    path = dnl._library(CC)

    def no_compiler(*args, **kwargs):
        raise AssertionError("compiler ran again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert dnl._library(CC) == path
    assert os.listdir(cache) == [os.path.basename(path)]


def test_library_appears_only_through_os_replace(cache, monkeypatch):
    moves = []
    own = os.replace

    def replace(src, dst):
        assert not os.path.exists(dst)  # nothing is written under the final name
        moves.append((src, dst))
        own(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    path = dnl._library(CC)
    assert len(moves) == 1 and moves[0][1] == path
    assert not os.path.exists(moves[0][0])
    assert os.listdir(cache) == [os.path.basename(path)]
    assert os.stat(cache).st_mode & 0o777 == 0o700


def test_one_map_passes_41_arrays_to_the_kernel(monkeypatch):
    # the arrays that stay the same from map to map go in argument blocks,
    # built once; a warm map checks and passes only its per-call arrays (83
    # before the blocks, 45 before the forecast's remaining demand and
    # assignment moved into the kernel and the batch took its base's
    # departures, 47 while share tables kept each block's top cell and
    # finite flag)
    net, ps, grid, params, h_i, h_f = cases()["corridor"]
    equilibrium.fixed_point_map(h_i, h_f, net, ps, grid, params)
    own, calls = dnl._arg, []
    monkeypatch.setattr(dnl, "_arg", lambda *args: calls.append(args) or own(*args))
    equilibrium.fixed_point_map(h_i, h_f, net, ps, grid, params)
    assert len(calls) == 41
