"""Fixed map inputs whose outputs are stored in ``data/map_golden.npz``.

The stored arrays pin ``equilibrium.fixed_point_map`` bit for bit: the two
class images, the instantaneous times of every provision interval, the
forecast diagonal and the open cells of every forecast. Each case is a network, its path set, a time grid, choice
parameters and a seeded random feasible class pair:

- the shipped ``three_link`` and ``grid`` scenarios;
- a three-link corridor whose links need two loader steps per departure
  interval, at two inputs whose map images differ, so its map is not
  constant;
- a 3x3 lattice whose ODs have 6, 3 and 2 paths over 30 intervals, so the
  logit's choice sets are of unequal size and some hold more than numpy's
  128-element pairwise-summation block.

Regenerate the file only for an intended change of map outputs:

    PYTHONPATH=src python tests/map_cases.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from dsuedhi import choice, equilibrium
from dsuedhi import network as nw
from dsuedhi import scenario
from dsuedhi.choice import ChoiceParams

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "map_golden.npz"
FIELDS = ("y_instant", "y_forecast", "instant_trace", "forecast_diag", "forecast_full")


def corridor():
    """Two parallel links into a shared bottleneck, two OD pairs.

    Links are 1.6-2.2 km at 20 m/s, under one 120 s interval, so the loader
    refines each interval into two steps. Demand is about sixteen intervals
    of bottleneck capacity and the schedule penalty counts 10-minute units,
    so departures spread while queues are visible.
    """
    links = [
        nw.Link("1", "A", "B", 1600.0, 20.0, 5.0, 0.6, 0.15),
        nw.Link("2", "A", "B", 2200.0, 20.0, 5.0, 0.6, 0.15),
        nw.Link("3", "B", "C", 1600.0, 20.0, 5.0, 0.5, 0.15),
    ]
    ods = [nw.OdDemand("A", "C", 275.0, 275.0, 1560.0),
           nw.OdDemand("B", "C", 200.0, 200.0, 1440.0)]
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net)
    grid = nw.TimeGrid(24 * 120.0, 120.0)
    params = ChoiceParams(theta=1.0, target_arrival_s=net.target_arrivals(), time_unit_s=600.0)
    return net, ps, grid, params


def lattice():
    """3x3 lattice, three ODs into one corner, every monotone path kept.

    From the far corner, the middle of the top row and the centre, the ODs
    have 6, 3 and 2 paths; at T = 30 the first has choice sets of up to
    180 cells. Links are 1.6-2.2 km at 20 m/s, so the loader refines each
    interval into two steps, and the two links into the destination are
    bottlenecks.
    """
    rng = np.random.default_rng(2030)
    n = 3
    links = []
    for r in range(n):
        for c in range(n):
            for link_id, head, ok in ((f"e{r}{c}", f"n{r}{c + 1}", c + 1 < n),
                                      (f"s{r}{c}", f"n{r + 1}{c}", r + 1 < n)):
                if ok:
                    cap = 0.3 if head == "n22" else 0.6
                    links.append(nw.Link(link_id, f"n{r}{c}", head,
                                         float(rng.uniform(1600, 2200)), 20.0, 5.0, cap, 0.15))
    ods = [nw.OdDemand("n00", "n22", 120.0, 120.0, 2100.0),
           nw.OdDemand("n01", "n22", 60.0, 60.0, 1980.0),
           nw.OdDemand("n11", "n22", 45.0, 45.0, 2040.0)]
    net = nw.validate_network(links, ods)
    ps = nw.build_path_set(net, k_max=6, time_ratio=3.0, length_ratio=3.0)
    grid = nw.TimeGrid(30 * 120.0, 120.0)
    params = ChoiceParams(theta=1.0, target_arrival_s=net.target_arrivals(), time_unit_s=600.0)
    return net, ps, grid, params


def _scenario(name: str):
    return scenario.load_scenario(ROOT / "scenarios" / name / "scenario.ini").build()


def cases():
    """Name -> (net, path set, grid, params, h_instant, h_forecast)."""
    out = {}
    for name, built, seed in (("three_link", _scenario("three_link"), 1),
                              ("grid", _scenario("grid"), 2),
                              ("corridor", corridor(), 3),
                              ("corridor_b", corridor(), 4),
                              ("lattice", lattice(), 5)):
        net, ps, grid, params = built
        rng = np.random.default_rng(seed)
        parts = equilibrium.random_feasible_parts(rng, ps, grid, net.class_demands())
        out[name] = (net, ps, grid, params, *parts)
    return out


def outputs(result: equilibrium.MapResult) -> dict[str, np.ndarray]:
    """The map's outputs: the instantaneous times of every provision interval,
    the forecast made at t for departure t, and the open cells (j >= t) of
    every forecast, paths x (t, j) in row-major order."""
    forecasts = result.forecast_batch.path_time
    T = len(forecasts)
    return {
        "y_instant": result.y_parts[0],
        "y_forecast": result.y_parts[1],
        "instant_trace": result.loading.instant_path_time,
        "forecast_diag": np.diagonal(forecasts, axis1=0, axis2=2),
        "forecast_full": forecasts.transpose(1, 0, 2)[:, choice.open_cells(0, T, T)[:, 0]],
    }


def run(case) -> dict[str, np.ndarray]:
    net, ps, grid, params, h_i, h_f = case
    return outputs(equilibrium.fixed_point_map(h_i, h_f, net, ps, grid, params))


def record(path: Path = GOLDEN) -> None:
    arrays = {}
    for name, case in cases().items():
        for f, value in run(case).items():
            arrays[f"{name}__{f}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    record()
