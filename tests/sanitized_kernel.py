"""Pytest plugin: the step kernel built with AddressSanitizer and UBSan.

``test_sanitized.py`` runs the kernel's tests with ``-p sanitized_kernel``,
``tests`` on the import path and the sanitizer runtimes in ``LD_PRELOAD``.
The plugin builds the kernel through ``dnl._library`` with the sanitizer
flags and makes ``dnl._kernel`` return that build, with its usual argument
types; ``dnl._library`` itself builds plain kernels as before.
"""

import shlex
import sysconfig

from dsuedhi import dnl

CC = shlex.split(sysconfig.get_config_var("CC") or "cc")
SANITIZE = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-g"]


def pytest_configure(config):
    path = dnl._library([*CC, *SANITIZE])
    own = dnl._library
    dnl._library = lambda cc: path
    try:
        dnl._kernel.cache_clear()
        lib = dnl._kernel()  # cached: every later call returns this build
    finally:
        dnl._library = own
    assert lib._name == path
