"""Layer spans recorded from outside the solver.

``Tracer`` replaces the public module-level functions of the eight solver
modules (and ``Scenario.build``) with wrappers that record spans in memory:
name, start, end and parent. A span opens only where a call enters a layer
from outside it, or at the inner calls named in ``INNER_SPANS``; other calls
within a layer count toward the span that encloses them. The wrapper around
``dnl.load`` also keeps the counts the loader's inputs and ``LoadingResult``
reveal. ``restore`` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "dsuedhi"
LAYERS = ("scenario", "network", "dnl", "info", "choice", "equilibrium", "metrics", "cli")

# Called once per link and simulation step inside the loader; a wrapper there
# would cost more than the work it measures.
NOT_WRAPPED = {"dnl.link_demand_rate", "dnl.link_supply_rate", "dnl.node_flux"}

INNER_SPANS = {
    "equilibrium.fixed_point_map",
    "cli.write_equilibrium_csv",
    "cli.write_trace_csv",
    "cli.write_accuracy_csv",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class LoadRecord:
    """What one ``dnl.load`` call was asked to do and reported back."""

    span: int
    links: int
    warm: bool
    copied_steps: int
    n_steps: int
    refine: int
    drained: bool
    extrapolated_cells: int


@dataclass
class Trace:
    spans: list[Span] = field(default_factory=list)
    loads: list[LoadRecord] = field(default_factory=list)
    iterations: int = 0  # averaging iterations of every solve_* return
    choice_cells: int = 0  # cells of every tentative_departures return

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


class Tracer:
    def __init__(self):
        self.trace = Trace()
        self._stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers: dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{layer}.{attr}" in NOT_WRAPPED):
                    continue
                wrappers[fn] = self._wrap(fn, layer, f"{layer}.{attr}")
        # replace every module-level reference, including ``from x import f``
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        scenario_cls = modules["scenario"].Scenario
        self._patch(scenario_cls, "build",
                    self._wrap(scenario_cls.build, "scenario", "scenario.Scenario.build"))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording --------------------------------------------------------
    def take(self) -> Trace:
        """Return what was recorded so far and start an empty trace."""
        done, self.trace = self.trace, Trace()
        return done

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        stack = self._stack
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe is not None else None
        always = name in INNER_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = tracer.trace
            if stack and not always and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if observe is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    observe(trace, stack[-1][0], bound, result)
                return result
            index = len(trace.spans)
            span = Span(name, 0.0, 0.0, stack[-1][0] if stack else -1)
            trace.spans.append(span)
            stack.append((index, layer))
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(trace, index, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _observe_load(trace: Trace, index: int, arguments: dict, result) -> None:
    refine = int(round(arguments["grid"].dt_s / result.sim_dt_s))
    warm = arguments.get("warm_start")
    copied = warm[1] * refine if warm is not None else 0
    trace.loads.append(LoadRecord(
        span=index,
        links=arguments["net"].n_links,
        warm=warm is not None,
        copied_steps=copied,
        n_steps=int(result.n_steps),
        refine=refine,
        drained=bool(result.drained),
        extrapolated_cells=int(result.extrapolated.sum()),
    ))


def _observe_solve(trace: Trace, index: int, arguments: dict, result) -> None:
    trace.iterations += int(result.n_iterations)


def _observe_choice(trace: Trace, index: int, arguments: dict, result) -> None:
    trace.choice_cells += int(result.size)


_OBSERVERS = {
    "dnl.load": _observe_load,
    "equilibrium.solve_sram": _observe_solve,
    "equilibrium.solve_dsue": _observe_solve,
    "choice.tentative_departures": _observe_choice,
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def op_metrics(trace: Trace, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced operation that took ``wall_s``."""
    own = trace.self_times()
    spans = trace.spans

    def self_of(pred) -> float:
        return sum(o for s, o in zip(spans, own) if pred(s.name))

    def total_of(pred) -> float:
        return sum(s.end - s.start for s in spans if pred(s.name))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(lambda n, p=layer + ".": n.startswith(p))
    out["layers.self_sum_frac"] = sum(own) / wall_s

    loads = trace.loads
    dnl_self = self_of(lambda n: n == "dnl.load")
    simulated = [r.n_steps - r.copied_steps for r in loads]
    out["dnl.load.calls"] = len(loads)
    out["dnl.load.self_s"] = dnl_self
    out["dnl.link_steps_per_s"] = (
        sum(r.links * s for r, s in zip(loads, simulated)) / dnl_self if dnl_self > 0 else 0.0
    )
    for kind, warm in (("warm", True), ("cold", False)):
        durations = [spans[r.span].end - spans[r.span].start
                     for r in loads if r.warm == warm and spans[r.span].name == "dnl.load"]
        out[f"dnl.load.{kind}_ms"] = 1e3 * _median(durations)
    all_steps = sum(r.n_steps for r in loads)
    out["dnl.warm_reuse_frac"] = sum(r.copied_steps for r in loads) / all_steps if all_steps else 0.0
    out["dnl.refine"] = max((r.refine for r in loads), default=0)
    out["dnl.sim_steps"] = sum(simulated)
    out["dnl.undrained"] = sum(1 for r in loads if not r.drained)
    out["dnl.extrapolated_cells"] = sum(r.extrapolated_cells for r in loads)

    out["info.forecast_info.calls"] = calls("info.forecast_info")
    out["info.forecast_info.self_s"] = self_of(lambda n: n == "info.forecast_info")

    choice_self = self_of(lambda n: n == "choice.tentative_departures")
    out["choice.tentative_departures.calls"] = calls("choice.tentative_departures")
    out["choice.tentative_departures.self_s"] = choice_self
    out["choice.cells_per_s"] = trace.choice_cells / choice_self if choice_self > 0 else 0.0

    maps = trace.iterations
    solver_s = total_of(lambda n: n in ("equilibrium.solve_sram", "equilibrium.solve_dsue"))
    out["equilibrium.maps"] = maps
    out["equilibrium.loads_per_map"] = len(loads) / maps if maps else 0.0
    out["equilibrium.map_ms"] = 1e3 * solver_s / maps if maps else 0.0

    out["cli.write_s"] = total_of(lambda n: n.startswith("cli.write_"))
    return out


def setup_metrics(trace: Trace) -> dict[str, float]:
    """Set-up figures of one traced ``load_scenario`` plus ``Scenario.build``."""
    def total(name: str) -> float:
        return sum(s.end - s.start for s in trace.spans if s.name == name)

    return {
        "scenario.build.s": total("scenario.Scenario.build"),
        "network.build_path_set.s": total("network.build_path_set"),
    }


def spans_json(trace: Trace) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
        for s in trace.spans
    ]
