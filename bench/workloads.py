"""Seeded scenario generators for the three benchmark workloads.

Each generator writes a scenario directory (``scenario.ini``, ``network.csv``,
``demand.csv``) from a seed and returns the design facts the run checks the
solver's outputs against: the refine factor the link lengths were chosen for,
the number of departure intervals the schedule penalty should spread demand
over, and the OD demands the artifacts must conserve. Nothing here imports the
solver; the program only ever sees the files written here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DT_S = 120.0
FREE_SPEED = 20.0
WAVE_SPEED = 5.0
JAM_DENSITY = 0.15

LINK_HEADER = (
    "link_id,tail,head,length_m,free_speed_mps,backward_wave_speed_mps,"
    "capacity_veh_per_s,jam_density_veh_per_m"
)
DEMAND_HEADER = "origin,destination,demand_instant,demand_forecast,target_arrival_s"


@dataclass(frozen=True)
class Design:
    """What a generated scenario is built to exercise."""

    scenario: Path
    kind: str  # "solve" (CLI solve of a two-class scenario) or "dsue_sweep"
    refine: int  # sub-steps per departure interval the loader must use
    min_spread: int  # intervals that must each carry >= 1 % of all departures
    demand: dict[tuple[str, str], tuple[float, float]]  # (o, d) -> (instant, forecast)
    thetas: tuple[float, ...] = ()  # dispersion values of a sweep


def _rng(seed: int, stream: int) -> np.random.Generator:
    # SeedSequence takes non-negative integers only
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, stream]))


def _write(
    out: Path,
    scenario_id: str,
    links: list[tuple],
    ods: list[tuple],
    sections: dict[str, dict[str, object]],
) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "network.csv", "w", encoding="utf-8") as fh:
        fh.write(LINK_HEADER + "\n")
        for row in links:
            fh.write(",".join(str(c) for c in row) + "\n")
    with open(out / "demand.csv", "w", encoding="utf-8") as fh:
        fh.write(DEMAND_HEADER + "\n")
        for row in ods:
            fh.write(",".join(str(c) for c in row) + "\n")
    lines = [f"[scenario]\nid = {scenario_id}\nnetwork_file = network.csv\ndemand_file = demand.csv\n"]
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path = out / "scenario.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _link(link_id: str, tail: str, head: str, length_m: float, capacity: float) -> tuple:
    return (link_id, tail, head, round(length_m, 3), FREE_SPEED, WAVE_SPEED,
            round(capacity, 5), JAM_DENSITY)


def _demands(ods: list[tuple]) -> dict[tuple[str, str], tuple[float, float]]:
    return {(o, d): (float(i), float(f)) for o, d, i, f, _ in ods}


CORRIDOR = {"T": 24, "theta": 1.0, "time_unit_s": 600, "demand_a": 275.0, "demand_b": 200.0,
            "cap": 0.5, "jitter": 0.005, "tolerance": 1.3e-4}


def corridor(seed: int, out: Path) -> Design:
    """Two OD pairs share a bottleneck fed by two parallel links.

    Links are 1.6-2.2 km (free-flow 80-110 s: under one 120 s interval and
    over half of it), so the loader refines each interval into exactly two
    steps. Demand is about sixteen intervals of bottleneck capacity and the
    schedule penalty is measured in 10-minute units, so departures spread
    over many intervals while queues are visible. The seed moves every
    length, capacity, demand and target time by up to +-0.5 %.
    """
    c = CORRIDOR
    rng = _rng(seed, 1)
    T = c["T"]
    j = lambda: rng.uniform(1 - c["jitter"], 1 + c["jitter"])  # noqa: E731
    links = [
        _link("1", "A", "B", 1600 * j(), 0.6 * j()),
        _link("2", "A", "B", 2200 * j(), 0.6 * j()),
        _link("3", "B", "C", 1600 * j(), c["cap"]),
    ]
    ods = [
        ("A", "C", round(c["demand_a"] * j(), 3), round(c["demand_a"] * j(), 3), round(1560 * j(), 3)),
        ("B", "C", round(c["demand_b"] * j(), 3), round(c["demand_b"] * j(), 3), round(1440 * j(), 3)),
    ]
    path = _write(out, f"corridor-{seed}", links, ods, {
        "time": {"horizon_s": int(T * DT_S), "dt_s": int(DT_S)},
        "choice": {"theta": c["theta"], "time_unit_s": c["time_unit_s"]},
        "solver": {"tolerance": c["tolerance"], "max_iterations": 100},
    })
    return Design(path, "solve", refine=2, min_spread=10, demand=_demands(ods))


def _lattice(rng: np.random.Generator, n: int, spec: dict, bottlenecks=()) -> list[tuple]:
    """n x n nodes, one eastbound and one southbound link per lattice edge.

    Lengths stay above 2.4 km (free-flow time above one 120 s interval), so
    the loader needs no refinement. Links named in ``bottlenecks`` get the
    bottleneck capacity, all others the ordinary one.
    """
    def draw(key: str) -> float:
        lo, hi = spec[key]
        return rng.uniform(lo, hi)

    links = []
    for r in range(n):
        for c in range(n):
            node = f"n{r}{c}"
            for link_id, head, ok in ((f"e{r}{c}", f"n{r}{c + 1}", c + 1 < n),
                                      (f"s{r}{c}", f"n{r + 1}{c}", r + 1 < n)):
                if ok:
                    cap = draw("bottleneck" if link_id in bottlenecks else "capacity")
                    links.append(_link(link_id, node, head, draw("length"), cap))
    return links


GRID = {"T": 30, "theta": 1.0, "time_unit_s": 600, "demand": 100.0, "length": (2970, 3030),
        "capacity": (0.594, 0.606), "bottleneck": (0.297, 0.303), "tolerance": 5e-5}


def grid_6x6(seed: int, out: Path) -> Design:
    """6x6 directed lattice: 60 links, 6 OD pairs, 23 paths, 30 intervals.

    Every OD keeps all of its monotone lattice paths (``k_max`` = 6), so the
    path set does not depend on the seed; the seed draws each length and
    capacity within +-1 % and each demand within +-1 %.
    """
    g = GRID
    rng = _rng(seed, 2)
    T = g["T"]
    # the links entering the two destination corners are the bottlenecks
    links = _lattice(rng, 6, g, bottlenecks=("e21", "s12", "e54", "s45"))
    # two 3x3 blocks; in the first, four ODs merge toward one corner node
    pairs = [("n00", "n22"), ("n01", "n22"), ("n10", "n22"), ("n11", "n22"),
             ("n33", "n55"), ("n34", "n55")]
    ods = []
    for o, d in pairs:
        hops = (int(d[1]) - int(o[1])) + (int(d[2]) - int(o[2]))
        target = 1800 + hops * 75
        ods.append((o, d, round(g["demand"] * rng.uniform(0.99, 1.01), 3),
                    round(g["demand"] * rng.uniform(0.99, 1.01), 3), round(target, 3)))
    path = _write(out, f"grid_6x6-{seed}", links, ods, {
        "time": {"horizon_s": int(T * DT_S), "dt_s": int(DT_S)},
        "choice": {"theta": g["theta"], "time_unit_s": g["time_unit_s"]},
        "paths": {"k_max": 6},
        "solver": {"tolerance": g["tolerance"], "max_iterations": 100},
    })
    return Design(path, "solve", refine=1, min_spread=10, demand=_demands(ods))


SWEEP = {"T": 24, "time_unit_s": 600, "demand": 200.0, "length": (2985, 3015),
         "capacity": (0.597, 0.603), "bottleneck": (0.10945, 0.11055), "thetas": (0.5, 0.75, 1.0),
         "tolerance": 1e-4}


def dsue_sweep(seed: int, out: Path) -> Design:
    """5x5 directed lattice solved by the single-class model at several thetas.

    All demand is in one class, so the benchmark drives ``solve_dsue``
    directly: cold loads without link times, no information layer. The seed
    draws lengths and capacities within +-0.5 %, demands and target times
    within +-1 %.
    """
    w = SWEEP
    rng = _rng(seed, 3)
    T = w["T"]
    # the links entering each destination are the bottlenecks
    links = _lattice(rng, 5, w, bottlenecks=("e21", "s12", "e23", "s14",
                                              "e41", "s32", "e43", "s34"))
    # four overlapping 3x3 blocks, each OD with all six monotone paths
    pairs = [("n00", "n22"), ("n02", "n24"), ("n20", "n42"), ("n22", "n44")]
    ods = []
    for o, d in pairs:
        ods.append((o, d, round(w["demand"] * rng.uniform(0.99, 1.01), 3), 0.0,
                    round(1800 * rng.uniform(0.99, 1.01), 3)))
    path = _write(out, f"dsue_sweep-{seed}", links, ods, {
        "time": {"horizon_s": int(T * DT_S), "dt_s": int(DT_S)},
        "choice": {"theta": 1.0, "time_unit_s": w["time_unit_s"]},
        "paths": {"k_max": 6},
        "solver": {"tolerance": w["tolerance"], "max_iterations": 100},
    })
    return Design(path, "dsue_sweep", refine=1, min_spread=8, demand=_demands(ods),
                  thetas=tuple(w["thetas"]))


GENERATORS = {"corridor": corridor, "grid_6x6": grid_6x6, "dsue_sweep": dsue_sweep}
