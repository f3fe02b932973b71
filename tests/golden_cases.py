"""Fixed loader inputs whose outputs are stored in ``data/loader_golden.npz``.

The stored arrays pin ``dnl.load`` bit for bit: a change that moves any
result by one unit in the last place fails ``test_golden.py``. Each case is a
network, its path set, a time grid and seeded departures:

- the three shipped scenarios;
- the three-link scenario with no drain room, so trips are extrapolated: its
  load runs inside ``oracles.step_cap(0)``, which patches the loader's step
  cap, ``dnl._step_cap``, to stop at the end of the horizon;
- a generated 4x4 lattice whose links need two loader steps per departure
  interval and where up to 20 paths share one link;
- a generated 4x4 lattice whose few paths leave links unused, one of them
  the network's shortest, which does not set the loader's refine factor.

Regenerate the file only for an intended change of loader outputs:

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from dsuedhi import dnl
from dsuedhi import network as nw
from dsuedhi import scenario
from oracles import step_cap

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "loader_golden.npz"
FIELDS = ("path_time", "link_time", "instant_path_time", "n_up", "n_dn", "src_up",
          "src_dn", "extrapolated", "drained", "n_steps")


def wide_lattice():
    """4x4 lattice, three ODs into one corner, every monotone path kept.

    Links are 1.6-2.2 km at 20 m/s, under one 120 s interval, so the loader
    refines each interval into two steps. The two links into the destination
    are bottlenecks and carry 20 path slots each.
    """
    rng = np.random.default_rng(2024)
    n = 4
    links = []
    for r in range(n):
        for c in range(n):
            for link_id, head, ok in ((f"e{r}{c}", f"n{r}{c + 1}", c + 1 < n),
                                      (f"s{r}{c}", f"n{r + 1}{c}", r + 1 < n)):
                if ok:
                    cap = 0.3 if head == f"n{n - 1}{n - 1}" else 0.6
                    links.append(nw.Link(link_id, f"n{r}{c}", head,
                                         float(rng.uniform(1600, 2200)), 20.0, 5.0, cap, 0.15))
    ods = [nw.OdDemand(o, "n33", 1.0, 0.0, 1800.0) for o in ("n00", "n01", "n10")]
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net, k_max=20, time_ratio=3.0, length_ratio=3.0)
    grid = nw.TimeGrid(2400.0, 120.0)
    h = rng.uniform(0.0, 8.0, size=(ps.n_paths, grid.n_intervals))
    h[:, 12:] = 0.0
    h[::7] = 0.0  # some paths carry nothing at all
    return net, ps, grid, h


def sparse_lattice():
    """4x4 lattice with two paths from each of two ODs: 11 of 25 links unused.

    Links are 1.6-2.2 km at 20 m/s, so the loader refines each 120 s interval
    into two steps: it refines until every link some path uses spans one
    step, and an exit ramp from the destination that no path uses, 1 km
    long, would need three.
    """
    rng = np.random.default_rng(2031)
    n = 4
    links = [nw.Link("x33", "n33", "exit", 1000.0, 20.0, 5.0, 0.6, 0.15)]
    for r in range(n):
        for c in range(n):
            for link_id, head, ok in ((f"e{r}{c}", f"n{r}{c + 1}", c + 1 < n),
                                      (f"s{r}{c}", f"n{r + 1}{c}", r + 1 < n)):
                if ok:
                    cap = 0.3 if head == f"n{n - 1}{n - 1}" else 0.6
                    links.append(nw.Link(link_id, f"n{r}{c}", head,
                                         float(rng.uniform(1600, 2200)), 20.0, 5.0, cap, 0.15))
    ods = [nw.OdDemand(o, "n33", 1.0, 0.0, 1800.0) for o in ("n00", "n20")]
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net, k_max=2, time_ratio=3.0, length_ratio=3.0)
    grid = nw.TimeGrid(2400.0, 120.0)
    h = rng.uniform(0.0, 20.0, size=(ps.n_paths, grid.n_intervals))
    h[:, 12:] = 0.0
    return net, ps, grid, h


def _scenario(name: str, seed: int, scale: float, busy: int):
    net, ps, grid, _ = scenario.load_scenario(ROOT / "scenarios" / name / "scenario.ini").build()
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.0, scale, size=(ps.n_paths, grid.n_intervals))
    h[:, busy:] = 0.0
    return net, ps, grid, h


def cases():
    """Name -> (net, path set, grid, departures, drain steps for ``step_cap``)."""
    return {
        "three_link": (*_scenario("three_link", 1, 50.0, 20), None),
        "three_link_capped": (*_scenario("three_link", 1, 50.0, 40), 0),
        "grid": (*_scenario("grid", 2, 150.0, 12), None),
        "grid_uncongested": (*_scenario("grid_uncongested", 3, 0.2, 30), None),
        "wide_lattice": (*wide_lattice(), None),
        "sparse_lattice": (*sparse_lattice(), None),
    }


def load(case) -> dnl.LoadingResult:
    net, ps, grid, h, cap = case
    with step_cap(cap):
        return dnl.load(net, ps, grid, h)


def link_times(res: dnl.LoadingResult, net, ps) -> np.ndarray:
    """Links x intervals travel times for entry at each interval start:
    ``dnl._link_times`` on the links some path uses, free-flow time on the others."""
    plan = dnl._plan(net.plan_key, ps.link_seq, res.grid)
    out = np.repeat([[link.free_flow_s] for link in net.links], res.grid.n_intervals, axis=1)
    out[plan.used_links] = dnl._link_times(res)
    return out


def outputs(res: dnl.LoadingResult, net, ps) -> dict[str, np.ndarray]:
    times = link_times(res, net, ps)
    return {f: times if f == "link_time" else np.asarray(getattr(res, f)) for f in FIELDS}


def record(path: Path = GOLDEN) -> None:
    arrays = {}
    for name, case in cases().items():
        for f, value in outputs(load(case), *case[:2]).items():
            arrays[f"{name}__{f}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    record()
