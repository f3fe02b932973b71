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


C_TYPES = {"void": None, "i64": ctypes.c_int64, "double": ctypes.c_double}


def test_every_entry_point_is_bound_with_its_c_signature():
    # ctypes passes an argument without ``argtypes`` as a C int, which would
    # truncate pointers and 64-bit integers without a word
    source = (SRC / "dsuedhi" / "dnl_step.c").read_text()
    defined = re.findall(r"^(void|i64|double)\s+(dnl_\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} >= {"dnl_step", "dnl_path_times", "dnl_run_sums",
                                                 "dnl_stored", "dnl_rollout"}
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
