"""The tests of the loader and the logit pass on a kernel built with AddressSanitizer and UBSan.

The kernel reads and writes numpy arrays through raw pointers, so a wrong
index corrupts memory or crashes where numpy would have raised. A sanitized
build stops at the first bad access instead and names it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sanitized_kernel import CC

ROOT = Path(__file__).resolve().parent.parent
FILES = ["test_golden.py", "test_batch.py", "test_dnl.py", "test_map_golden.py", "test_kernel.py",
         "test_choice.py", "test_info.py", "test_readout.py"]


def runtime(name: str) -> str:
    """The file the compiler links for library ``name``, or what it printed instead."""
    try:
        return subprocess.run([*CC, f"-print-file-name={name}"], capture_output=True,
                              text=True).stdout.strip()
    except OSError as exc:
        return str(exc)


def test_kernel_tests_pass_under_sanitizers(tmp_path):
    asan, ubsan = runtime("libasan.so"), runtime("libubsan.so")
    if not os.path.isfile(asan):
        pytest.skip(f"{' '.join(CC)} -print-file-name=libasan.so names no file: {asan!r}")
    log = tmp_path / "asan"
    env = {
        **os.environ,
        "LD_PRELOAD": " ".join([asan, ubsan]),
        "ASAN_OPTIONS": f"detect_leaks=0:log_path={log}",
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
    }
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "sanitized_kernel",
         "-p", "no:cacheprovider", *(f"tests/{name}" for name in FILES)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    logs = "".join(path.read_text() for path in sorted(tmp_path.glob("asan*")))
    assert run.returncode == 0, f"{run.stdout[-5000:]}\n{run.stderr[-5000:]}\n{logs}"
