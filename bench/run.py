#!/usr/bin/env python3
"""Benchmark of the dsuedhi solver: one workload, one seed, one JSON line.

    python3 bench/run.py --workload corridor --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src/``. The workload's scenario files are generated from the seed into
``.bench_work/``, which is removed at exit. Operations run in this process,
one after another, for ``--seconds``; each one's outputs are checked. With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics, and the spans go to ``.bench_out/``. See
``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corridor", "grid_6x6", "dsue_sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the dsuedhi solver.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in bench/reference.json")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dsuedhi" / "__init__.py").is_file():
        print(f"error: no solver sources under {src}", file=sys.stderr)
        return 2
    # the generated scenarios must be read as written
    for key in [k for k in os.environ if k.startswith("DSUEDHI_")]:
        del os.environ[key]
    sys.path[:0] = [str(src), str(HERE)]
    import dsuedhi

    if Path(dsuedhi.__file__).resolve().parent != (src / "dsuedhi").resolve():
        print(f"error: imported dsuedhi from {dsuedhi.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.record, work, ROOT / ".bench_out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
