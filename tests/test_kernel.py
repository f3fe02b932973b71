"""The compiled step kernel: its sums, and how its library is built and cached."""

import os
import shlex
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import loop_loader
from dsuedhi import dnl

CC = shlex.split(sysconfig.get_config_var("CC") or "cc")


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
        got = dnl._kernel().dnl_sum(x.ctypes.data, n)
        assert np.float64(got).tobytes() == x.sum().tobytes(), n


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


def test_a_source_slot_read_at_its_last_sample_is_that_sample():
    # One step of a source that feeds one link, where both its paths end.
    # The source sends all it holds, 1001.5 vehicles, so its FIFO window runs
    # from time 0 to its last sample; the relaxed target falls 1e-12 of a step
    # short of it, which rounds away at step 16400. Slot 0 then reads its last
    # sample itself, ``hi``, where lo + 1.0 * (hi - lo) is not hi. A load
    # reaches such a read only past step 16384, and there on slot curves for
    # which the two agree.
    lo, hi = 0.7503646726300526, 3.579164257742107
    assert lo + 1.0 * (hi - lo) != hi
    t, dt = 16399, 1.0
    c1, cols = t + 1, t + 2
    up = np.zeros((1, 2, cols))  # rows: the link, then the source
    up[0, 1, 1:c1], up[0, 1, c1] = 1.0, 1001.5
    slots = np.zeros((1, 4, cols))  # the link's two slots, then the source's
    slots[0, 2, 1:c1], slots[0, 2, c1] = lo, hi
    slots[0, 3] = up[0, 1] - slots[0, 2]
    dn = np.zeros(up.shape)
    index = [np.array(x, dtype=np.int64) for x in (
        [0, 2, 4], [-1, -1, 0, 0], [-1, -1, 0, 1], [0], [0])]  # rows, next, dest, source link, used
    link = [np.array([x]) for x in (1.0, 1e6, 1.0, 1e9)]  # ff, capacity, wave lag, storage
    t_of, n_steps, drained = np.array([t]), np.array([cols]), np.zeros(1, dtype=np.uint8)
    assert dnl._kernel().dnl_step(
        *(x.ctypes.data for x in index + link), 1, 1, 1, dt, 1, t_of.ctypes.data, c1, cols,
        cols, *(x.ctypes.data for x in (up, dn, slots, np.zeros(1), n_steps, drained))) == 0

    # the source step of ``loop_loader.load``, whose reads past a curve's
    # last sample return that sample
    src, mass = up[0, 1, : c1 + 1], 1001.5
    tau0 = loop_loader._invert(src, dt, 0.0, 1.0)
    tau1 = loop_loader._invert(src, dt, mass, 1.0)
    assert (tau0, tau1) == (0.0, c1 * dt)
    comp = np.array([loop_loader._interp(slots[0, j, : c1 + 1], dt, tau1)
                     - loop_loader._interp(slots[0, j, : c1 + 1], dt, tau0) for j in (2, 3)])
    comp *= mass / comp.sum()
    assert slots[0, :2, c1].tobytes() == comp.tobytes()
