"""Scenario configuration: flat INI-style files with environment overrides.

A scenario binds the network and demand files to a time grid, choice and
solver parameters, path-enumeration constraints, and metric options. Every
key has a default (printable via the ``print-config`` subcommand); any key can
be overridden through an environment variable ``DSUEDHI_<SECTION>_<KEY>``.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from pathlib import Path

from . import network
from .choice import ChoiceParams
from .equilibrium import SolverConfig
from .network import Network, PathSet, TimeGrid


class ScenarioError(ValueError):
    """Raised on unreadable, incomplete, or inconsistent scenario files."""


DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "id": "scenario",
        "network_file": "network.csv",
        "demand_file": "demand.csv",
    },
    "time": {
        "horizon_s": "18000",
        "dt_s": "120",
    },
    "demand": {
        # share of travelers receiving instantaneous information; empty keeps
        # the split from the demand file
        "instant_share": "",
    },
    "choice": {
        "theta": "1.0",
        "mu_early": "0.8",
        "mu_late": "1.2",
        "time_unit_s": "60",
    },
    "paths": {
        "k_max": "5",
        "time_ratio": "1.5",
        "length_ratio": "1.5",
    },
    "solver": {
        "tolerance": "1e-4",
        "gain_up": "1.1",
        "gain_down": "0.2",
        "max_iterations": "100",
        "init": "free-flow",
    },
    "metrics": {
        "trim_fraction": "0.2",
        "departure_floor": "1e-6",
    },
    "output": {
        "dump_forecasts": "false",
        "dump_curves": "false",
    },
}

ENV_PREFIX = "DSUEDHI_"


def default_config_text() -> str:
    lines = []
    for section, keys in DEFAULTS.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    network_file: Path
    demand_file: Path
    grid: TimeGrid
    instant_share: float | None
    theta: float
    mu_early: float
    mu_late: float
    time_unit_s: float
    k_max: int
    time_ratio: float
    length_ratio: float
    solver: SolverConfig
    trim_fraction: float
    departure_floor: float
    dump_forecasts: bool
    dump_curves: bool

    def build(self) -> tuple[Network, PathSet, TimeGrid, ChoiceParams]:
        """Load files, validate, enumerate paths, and assemble parameters."""
        links = network.read_links_csv(self.network_file)
        demands = network.read_demand_csv(self.demand_file)
        net = network.validate_network(links, demands)
        if self.instant_share is not None:
            net = net.with_class_split(self.instant_share)
        path_set = network.build_path_set(net, self.k_max, self.time_ratio, self.length_ratio)
        params = ChoiceParams(
            theta=self.theta,
            target_arrival_s=net.target_arrivals(),
            mu_early=self.mu_early,
            mu_late=self.mu_late,
            time_unit_s=self.time_unit_s,
        )
        return net, path_set, self.grid, params


def _apply_env(values: dict[str, dict[str, str]]) -> None:
    for section, keys in values.items():
        for key in keys:
            env = os.environ.get(f"{ENV_PREFIX}{section.upper()}_{key.upper()}")
            if env is not None:
                values[section][key] = env


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    values = {s: dict(k) for s, k in DEFAULTS.items()}
    for section in parser.sections():
        if section not in values:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key, val in parser.items(section):
            if key not in values[section]:
                raise ScenarioError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = val
    _apply_env(values)

    base = path.parent

    def _f(section: str, key: str) -> float:
        raw = values[section][key]
        try:
            return float(raw)
        except ValueError as exc:
            raise ScenarioError(f"{path}: [{section}] {key} = {raw!r} is not a number") from exc

    def _i(section: str, key: str) -> int:
        return int(round(_f(section, key)))

    def _b(section: str, key: str) -> bool:
        raw = values[section][key].strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ScenarioError(f"{path}: [{section}] {key} = {raw!r} is not a boolean")

    share_raw = values["demand"]["instant_share"].strip()
    instant_share = None if share_raw == "" else float(share_raw)

    network_file = base / values["scenario"]["network_file"]
    demand_file = base / values["scenario"]["demand_file"]
    for f in (network_file, demand_file):
        if not f.exists():
            raise ScenarioError(f"referenced file not found: {f}")

    try:
        grid = TimeGrid(_f("time", "horizon_s"), _f("time", "dt_s"))
        solver = SolverConfig(
            tolerance=_f("solver", "tolerance"),
            gain_up=_f("solver", "gain_up"),
            gain_down=_f("solver", "gain_down"),
            max_iterations=_i("solver", "max_iterations"),
            init=values["solver"]["init"].strip(),
        )
    except ScenarioError:
        raise
    except (network.NetworkError, RuntimeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    return Scenario(
        scenario_id=values["scenario"]["id"].strip(),
        network_file=network_file,
        demand_file=demand_file,
        grid=grid,
        instant_share=instant_share,
        theta=_f("choice", "theta"),
        mu_early=_f("choice", "mu_early"),
        mu_late=_f("choice", "mu_late"),
        time_unit_s=_f("choice", "time_unit_s"),
        k_max=_i("paths", "k_max"),
        time_ratio=_f("paths", "time_ratio"),
        length_ratio=_f("paths", "length_ratio"),
        solver=solver,
        trim_fraction=_f("metrics", "trim_fraction"),
        departure_floor=_f("metrics", "departure_floor"),
        dump_forecasts=_b("output", "dump_forecasts"),
        dump_curves=_b("output", "dump_curves"),
    )
