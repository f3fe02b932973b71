"""The compiled step kernel: its sums, and how its library is built and cached."""

import os
import shlex
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

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
