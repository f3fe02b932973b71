"""The compiled step kernel: its sums, its bindings, and how its library is built and cached."""

import ctypes
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from dsuedhi import dnl
from dsuedhi import network as nw
from oracles import source_curves

CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory for the libraries built in a test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "dsuedhi"


def test_sum_equals_ndarray_sum():
    # no golden case has a row of more than 128 numbers, which numpy splits
    # recursively, at n/2 rounded down to a multiple of 8
    rng = np.random.default_rng(0)
    for n in [*range(301), 500, 1000, 1025, 4097]:
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        got = dnl.run_sums(x, np.array([0]), np.array([n]))
        assert got.tobytes() == np.array([x.sum()]).tobytes(), n


@pytest.mark.parametrize("start, size", [(-1, 2), (0, -1), (5, 2), (6, 1), (7, 0),
                                         (2**62, 2**62), (1, 2**63 - 1)])
def test_a_run_outside_the_array_raises(start, size):
    # each run is checked in the kernel's loop, also after good runs
    x = np.arange(6.0)
    with pytest.raises(ValueError, match="does not lie inside"):
        dnl.run_sums(x, np.array([0, start]), np.array([6, size]))
    got = dnl.run_sums(x, np.array([0, 6, 2]), np.array([6, 0, 4]))
    assert got.tolist() == [15.0, 0.0, 14.0]


def run_step(plan, h, starts, base, s_max, cols):
    """``dnl_step`` on the patterns ``h[B, P, T]`` from ``starts`` in a new block of ``cols``
    columns, ``base`` the (up, dn, slots) block of the base: its return code, the
    block, and the patterns' step counts, drain flags and path times."""
    B = len(h)
    R, S = plan.A + len(plan.source_links), len(plan.slot_row)
    block = np.empty((R, cols)), np.empty((R, cols)), np.empty((S, cols))
    at, n_steps, drained = np.array([0, -1]), np.zeros(B, dtype=np.int64), np.zeros(B, np.bool_)
    path_time, extrapolated = np.full(h.shape, np.nan), np.zeros(h.shape, dtype=np.bool_)
    code = dnl._kernel().dnl_step(
        *plan.args, B, h.ctypes.data, starts.ctypes.data, *(x.ctypes.data for x in base),
        base[0].shape[1], s_max, cols, *(x.ctypes.data for x in block),
        *(x.ctypes.data for x in (at, n_steps, drained, path_time, extrapolated)))
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
    plan = dnl._Plan((link,), ((0,),), nw.TimeGrid(100.0, 10.0))
    base = np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))
    h = np.zeros((2, 1, 10))
    h[0, 0, -1] = 500.0  # at capacity 1 veh/s, 500 veh take 50 steps to leave
    code, _, n_steps, drained, _ = run_step(plan, h, np.array([0, 0]), base, s_max=100,
                                            cols=12)
    assert code == 1 and not drained[0]
    # a start past the base's columns or outside [0, T), or a block that ends
    # inside the horizon, is refused before any step
    for starts, cols in (([1], 12), ([-1], 12), ([10], 12), ([0], 10)):
        assert run_step(plan, h[1:], np.array(starts), base, 100, cols)[0] == -2


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_source_curves_equal_the_numpy_formula(grid_congested, refine):
    # the kernel writes each pattern's source slot and source row curves as
    # oracles.source_curves does in numpy, bit for bit, -0.0 included: a
    # cumulative sum starts from the first departure itself
    net, ps, _, _ = grid_congested
    min_ff = min(link.free_flow_s for link in net.links)
    T = 12
    grid = nw.TimeGrid(T * refine * min_ff, refine * min_ff)
    plan = dnl._plan(net.links, ps.link_seq, grid)
    assert plan.refine == refine
    rng = np.random.default_rng(refine)
    h = rng.uniform(0.0, 4.0, size=(2, ps.n_paths, T)) * (rng.random((2, ps.n_paths, T)) < 0.7)
    h[:, 0, :3] = -0.0
    h[1, 1, 0] = -0.0
    path_time, extrapolated = np.empty(h.shape), np.empty(h.shape, dtype=bool)
    for b in range(len(h)):
        up, _, slots, _, _ = dnl._step(plan, h[b : b + 1], np.zeros(1, dtype=np.int64),
                                       path_time[b : b + 1], extrapolated[b : b + 1])
        want_slots, want_rows = source_curves(plan, h[b : b + 1], up.shape[1])
        assert np.signbit(want_slots).any()
        assert slots[plan.n_link_slots :].tobytes() == want_slots[0].tobytes()
        assert up[plan.A :].tobytes() == want_rows[0].tobytes()


def logit_exponents(phi, first, T, path_od, target, cells, blocks, theta=1.0):
    """``dnl_logit_exponents`` on the (n, paths, cols) travel times ``phi`` into exactly
    ``cells`` exponents and ``blocks`` flags: its return code, the exponents and the flags."""
    mids = (np.arange(T) + 0.5) * 120.0
    z, finite = np.full(cells, np.nan), np.zeros(blocks, dtype=np.bool_)
    code = dnl._kernel().dnl_logit_exponents(
        phi.ctypes.data, *phi.shape, first, T, mids.ctypes.data, path_od.ctypes.data,
        len(path_od), target.ctypes.data, len(target), 60.0, 0.8, 1.2, theta, z.ctypes.data,
        cells, finite.ctypes.data, blocks)
    return code, z, finite


@pytest.mark.parametrize("case", ["fits", "cells short", "cells left over", "blocks short",
                                  "blocks left over", "od past the targets", "negative od",
                                  "paths", "columns", "past the horizon", "negative first",
                                  "negative theta"])
def test_logit_exponents_refuse_blocks_outside_their_arrays(case):
    # 3 paths, ODs 0, 0 and 1, at provision intervals 1 and 2 of 4: 9 then 6
    # cells, in blocks of 6, 3, 4 and 2. A refused block writes nothing past
    # the arrays, which the sanitized run checks.
    phi = np.random.default_rng(0).uniform(60.0, 900.0, size=(2, 3, 4))
    args = dict(phi=phi, first=1, T=4, path_od=np.array([0, 0, 1]), target=np.array([0.0, 1.0]),
                cells=15, blocks=4)
    args.update({
        "fits": {}, "cells short": {"cells": 14}, "cells left over": {"cells": 16},
        "blocks short": {"blocks": 3}, "blocks left over": {"blocks": 5},
        "od past the targets": {"path_od": np.array([0, 0, 2])},
        "negative od": {"path_od": np.array([-1, 0, 1])},
        "paths": {"phi": phi[:, :2].copy()}, "columns": {"phi": phi[..., :3].copy()},
        "past the horizon": {"first": 3}, "negative first": {"first": -1},
        "negative theta": {"theta": -1.0},
    }[case])
    code, z, finite = logit_exponents(**args)
    assert code == (0 if case == "fits" else -1)
    if case == "fits":
        assert finite.all() and np.isfinite(z).all() and (z <= 0.0).all()
        assert [np.max(z[a:b]) for a, b in ((0, 6), (6, 9), (9, 13), (13, 15))] == [0.0] * 4


@pytest.mark.parametrize("start, size", [(-1, 2), (0, 0), (5, 2), (6, 1), (7, 1),
                                         (2**62, 2**62), (1, 2**63 - 1)])
def test_logit_shares_refuse_a_block_outside_the_array(start, size):
    # each block is checked in the kernel's loop, also after good blocks
    w = np.array([1.0, 0.5, 0.5, 1.0, 0.25, 1.0])
    top = np.full(2, -7, dtype=np.int64)
    kernel = dnl._kernel()

    def shares(starts, sizes):
        starts, sizes = np.array(starts), np.array(sizes)
        return kernel.dnl_logit_shares(w.ctypes.data, len(w), starts.ctypes.data,
                                       sizes.ctypes.data, len(starts), top.ctypes.data)

    assert shares([0, start], [3, size]) == -1
    assert top[0] == 0 and w[:3].tolist() == [0.5, 0.25, 0.25]
    assert shares([3, 5], [2, 1]) == 0
    assert top.tolist() == [3, 5] and w[3:].tolist() == [0.8, 0.2, 1.0]


C_TYPES = {"void": None, "i64": ctypes.c_int64, "double": ctypes.c_double}


def test_every_entry_point_is_bound_with_its_c_signature():
    # ctypes passes an argument without ``argtypes`` as a C int, which would
    # truncate pointers and 64-bit integers without a word
    source = (SRC / "dsuedhi" / "dnl_step.c").read_text()
    defined = re.findall(r"^(void|i64|double)\s+(dnl_\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} >= {"dnl_step", "dnl_path_times", "dnl_run_sums",
                                                 "dnl_rollout", "dnl_logit_exponents",
                                                 "dnl_logit_shares"}
    declared = re.findall(r"^(?!static)\w[\w \t*]*?\b(dnl_\w+)\(", source, re.M)
    assert sorted(declared) == sorted(name for _, name, _ in defined)
    lib = dnl._kernel()
    for returns, name, params in defined:
        want = [ctypes.c_void_p if "*" in param else C_TYPES[param.split()[-2]]
                for param in params.split(",")]
        fn = getattr(lib, name)
        assert list(fn.argtypes or ()) == want, name
        assert fn.restype is C_TYPES[returns], name


def test_kernel_arguments_are_checked_under_python_O():
    # ``assert`` is gone under -O, where a float32 array would be read as float64
    code = """if True:
        import numpy as np
        from dsuedhi import dnl
        for x in (np.zeros(4, np.float32), np.zeros(8)[::2], np.zeros(5), np.zeros((1, 4))):
            try:
                dnl._arg(x, np.float64, (4,))
            except ValueError:
                continue
            raise SystemExit(f"passed: {x.dtype} of shape {x.shape}")
        dnl._arg(np.zeros(4), np.float64, (4,))
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stdout + run.stderr


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
