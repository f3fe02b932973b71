"""Network, demand, time grid, and path-set construction.

Everything downstream (loading, choice, equilibrium) works on dense integer
indices assigned here: links sorted by id, OD pairs sorted by (origin,
destination), paths ordered per OD by free-flow time. Units are SI throughout
(seconds, meters, vehicles).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


class NetworkError(ValueError):
    """Raised when network or demand data violate a structural invariant."""


class ParseError(NetworkError):
    """Raised on malformed rows in network or demand files."""


@dataclass(frozen=True)
class TimeGrid:
    """Departure-time horizon split into equal intervals.

    ``horizon_s`` must be an exact multiple of ``dt_s``. Interval index k
    covers clock times [k*dt, (k+1)*dt). Departures within an interval flow as
    a uniform fluid; the cohort's representative departure clock (used for
    travel times and schedule penalties) is the interval midpoint, while
    information is provided at the interval start, before the cohort moves.
    """

    horizon_s: float
    dt_s: float

    def __post_init__(self) -> None:
        if not np.isfinite((self.horizon_s, self.dt_s)).all():
            raise NetworkError("horizon and interval length must be finite")  # round(inf) overflows
        if self.dt_s <= 0:
            raise NetworkError("interval length must be positive")
        n = self.horizon_s / self.dt_s
        if not np.isfinite(n):
            raise NetworkError("horizon over interval length must be finite")
        if n < 1 or abs(n - round(n)) > 1e-9:
            raise NetworkError(
                f"horizon {self.horizon_s} s is not a positive multiple of dt {self.dt_s} s"
            )

    @property
    def n_intervals(self) -> int:
        return int(round(self.horizon_s / self.dt_s))

    def interval_starts(self) -> np.ndarray:
        return np.arange(self.n_intervals) * self.dt_s

    def interval_mids(self) -> np.ndarray:
        return (np.arange(self.n_intervals) + 0.5) * self.dt_s


@dataclass(frozen=True)
class Link:
    """Directed road segment with triangular fundamental-diagram parameters."""

    link_id: str
    tail: str
    head: str
    length_m: float
    free_speed_mps: float
    backward_wave_mps: float
    capacity_vps: float
    jam_density_vpm: float

    @property
    def free_flow_s(self) -> float:
        return self.length_m / self.free_speed_mps

    @property
    def storage_veh(self) -> float:
        return self.jam_density_vpm * self.length_m


@dataclass(frozen=True)
class OdDemand:
    """Demand for one OD pair, split by information class.

    ``demand_instant`` travelers receive instantaneous travel times,
    ``demand_forecast`` travelers receive strategic forecasts.
    """

    origin: str
    destination: str
    demand_instant: float
    demand_forecast: float
    target_arrival_s: float

    @property
    def demand_total(self) -> float:
        return self.demand_instant + self.demand_forecast


@dataclass(frozen=True)
class Path:
    """Loopless link sequence from an OD origin to its destination."""

    path_id: int
    od_index: int
    link_ids: tuple[str, ...]
    free_flow_s: float


class Network:
    """Validated immutable network: canonical link/OD ordering, adjacency."""

    def __init__(self, links: tuple[Link, ...], od_pairs: tuple[OdDemand, ...]):
        self.links = links
        self.od_pairs = od_pairs
        self.link_index = {l.link_id: i for i, l in enumerate(links)}
        self.nodes = tuple(sorted({l.tail for l in links} | {l.head for l in links}))
        out: dict[str, list[tuple[str, str, float, float]]] = {}
        for l in links:
            out.setdefault(l.tail, []).append((l.head, l.link_id, l.free_flow_s, l.length_m))
        for v in out.values():
            v.sort(key=lambda e: (e[2], e[1]))
        self.adjacency = out

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_ods(self) -> int:
        return len(self.od_pairs)

    def link(self, link_id: str) -> Link:
        return self.links[self.link_index[link_id]]

    def class_demands(self) -> np.ndarray:
        """Per-OD demand of each class, (2, ODs): row 0 instantaneous, row 1 forecast."""
        return np.array([[od.demand_instant for od in self.od_pairs],
                         [od.demand_forecast for od in self.od_pairs]])

    def target_arrivals(self) -> tuple[float, ...]:
        return tuple(od.target_arrival_s for od in self.od_pairs)

    def with_class_split(self, instant_share: float) -> "Network":
        """Rescale every OD's class split to the given instantaneous share."""
        check_share(instant_share)
        ods = tuple(
            OdDemand(
                od.origin,
                od.destination,
                instant_share * od.demand_total,
                (1.0 - instant_share) * od.demand_total,
                od.target_arrival_s,
            )
            for od in self.od_pairs
        )
        return Network(self.links, ods)


def validate_network(
    links: list[Link] | tuple[Link, ...],
    demands: list[OdDemand] | tuple[OdDemand, ...],
) -> Network:
    """Check invariants and fix the canonical orderings.

    Raises NetworkError for duplicate or dangling ids, non-positive physical
    parameters, an OD pair from a node to itself, or negative or non-finite
    demands. An OD pair with positive demand but no connecting path fails
    later, in ``build_path_set``.
    """
    seen: set[str] = set()
    for l in links:
        if l.link_id in seen:
            raise NetworkError(f"duplicate link id {l.link_id!r}")
        seen.add(l.link_id)
        for name, value in (
            ("length", l.length_m),
            ("free speed", l.free_speed_mps),
            ("backward wave speed", l.backward_wave_mps),
            ("capacity", l.capacity_vps),
            ("jam density", l.jam_density_vpm),
        ):
            if not value > 0:
                raise NetworkError(f"link {l.link_id!r}: non-positive {name} ({value})")

    nodes = {l.tail for l in links} | {l.head for l in links}
    seen_ods: set[tuple[str, str]] = set()
    for od in demands:
        key = (od.origin, od.destination)
        if key in seen_ods:
            raise NetworkError(f"duplicate OD pair {key}")
        seen_ods.add(key)
        if od.origin == od.destination:
            raise NetworkError(f"OD pair {od.origin}->{od.destination}: origin is its destination")
        if od.origin not in nodes or od.destination not in nodes:
            raise NetworkError(
                f"OD pair {od.origin}->{od.destination} references a dangling node"
            )
        if not (0 <= od.demand_instant < np.inf and 0 <= od.demand_forecast < np.inf):
            raise NetworkError(f"OD pair {key}: demand must be finite and non-negative")

    sorted_links = tuple(sorted(links, key=lambda l: l.link_id))
    sorted_ods = tuple(sorted(demands, key=lambda od: (od.origin, od.destination)))
    return Network(sorted_links, sorted_ods)


def _shortest_path(
    net: Network,
    origin: str,
    destination: str,
    weight: str,
    banned_links: frozenset[str] = frozenset(),
    banned_nodes: frozenset[str] = frozenset(),
) -> tuple[float, tuple[str, ...]] | None:
    """Dijkstra over the link multigraph; ties broken by link-id sequence."""
    wpos = 2 if weight == "time" else 3
    best: dict[str, float] = {origin: 0.0}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), origin)]
    done: set[str] = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == destination:
            return cost, seq
        for entry in net.adjacency.get(node, ()):
            head, link_id = entry[0], entry[1]
            if link_id in banned_links or head in banned_nodes or head in done:
                continue
            nxt = cost + entry[wpos]
            if nxt < best.get(head, np.inf) - 1e-15:
                best[head] = nxt
                heapq.heappush(heap, (nxt, seq + (link_id,), head))
    return None


def check_share(instant_share: float) -> None:
    """Raise unless the instantaneous share lies in [0, 1] (NaN does not)."""
    if not 0.0 <= instant_share <= 1.0:
        raise NetworkError("instantaneous share must lie in [0, 1]")


def check_path_limits(k_max: int, time_ratio: float, length_ratio: float) -> None:
    """Raise unless ``enumerate_paths`` may keep a path: k_max >= 1, ratios >= 1, none NaN."""
    if k_max < 1:
        raise NetworkError("k_max must be at least 1")
    if not (time_ratio >= 1 and length_ratio >= 1):  # NaN fails both comparisons
        raise NetworkError("ratio constraints must be at least 1")


def enumerate_paths(
    net: Network,
    od: OdDemand,
    k_max: int,
    time_ratio: float,
    length_ratio: float,
) -> list[tuple[str, ...]]:
    """Constrained k-shortest loopless paths for one OD pair.

    Deviation-path search (repeated shortest path with link exclusion) on
    free-flow time, then filtered so that free-flow time stays within
    ``time_ratio`` of the fastest path and length within ``length_ratio`` of
    the shortest path. Output is sorted by (free-flow time, link-id sequence).
    """
    check_path_limits(k_max, time_ratio, length_ratio)
    first = _shortest_path(net, od.origin, od.destination, "time")
    if first is None:
        raise NetworkError(f"OD pair with no path: {od.origin}->{od.destination}")
    by_length = _shortest_path(net, od.origin, od.destination, "length")
    assert by_length is not None
    time_bound = time_ratio * first[0] + 1e-12
    length_bound = length_ratio * by_length[0] + 1e-12

    def path_cost(seq: tuple[str, ...]) -> tuple[float, float]:
        t = sum(net.link(lid).free_flow_s for lid in seq)
        m = sum(net.link(lid).length_m for lid in seq)
        return t, m

    accepted: list[tuple[float, tuple[str, ...]]] = []
    shortest: list[tuple[float, tuple[str, ...]]] = [first]
    candidates: list[tuple[float, tuple[str, ...]]] = []
    seen = {first[1]}

    while len(accepted) < k_max:
        cost, seq = shortest[-1]
        if cost > time_bound:
            break
        if path_cost(seq)[1] <= length_bound:
            accepted.append((cost, seq))
        if len(accepted) >= k_max:
            break
        # branch: spur from every prefix of the newest shortest path
        nodes_of = _node_sequence(net, seq, od.origin)
        for i in range(len(seq)):
            root = seq[:i]
            spur_node = nodes_of[i]
            banned_links = {
                known[i]
                for _, known in shortest
                if len(known) > i and known[:i] == root
            }
            banned_nodes = frozenset(nodes_of[:i])
            spur = _shortest_path(
                net,
                spur_node,
                od.destination,
                "time",
                banned_links=frozenset(banned_links),
                banned_nodes=banned_nodes,
            )
            if spur is None:
                continue
            total = root + spur[1]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (path_cost(total)[0], total))
        if not candidates:
            break
        shortest.append(heapq.heappop(candidates))

    accepted.sort(key=lambda e: (e[0], e[1]))
    return [seq for _, seq in accepted[:k_max]]


def _node_sequence(net: Network, seq: tuple[str, ...], origin: str) -> list[str]:
    nodes = [origin]
    for lid in seq:
        link = net.link(lid)
        if link.tail != nodes[-1]:
            raise NetworkError(f"path is not contiguous at link {lid!r}")
        nodes.append(link.head)
    return nodes


def check_path(net: Network, od: OdDemand, link_ids: tuple[str, ...]) -> None:
    """Verify a link sequence is a nonempty acyclic OD-connecting path."""
    if not link_ids:
        raise NetworkError("empty path")
    nodes = _node_sequence(net, link_ids, od.origin)
    if nodes[-1] != od.destination:
        raise NetworkError("path does not end at the OD destination")
    if len(set(nodes)) != len(nodes):
        raise NetworkError("path revisits a node")


@dataclass(frozen=True)
class PathSet:
    """Global path collection with per-OD slices and index arrays."""

    paths: tuple[Path, ...]
    od_slices: tuple[slice, ...]
    od_of_path: np.ndarray = field(repr=False)
    free_flow_s: np.ndarray = field(repr=False)
    link_seq: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def n_paths(self) -> int:
        return len(self.paths)


def build_path_set(
    net: Network,
    k_max: int = 5,
    time_ratio: float = 1.5,
    length_ratio: float = 1.5,
) -> PathSet:
    """Enumerate constrained paths for all OD pairs with positive demand.

    Raises NetworkError when no OD pair has demand: there is nothing to load.
    """
    if not any(od.demand_total > 0 for od in net.od_pairs):
        raise NetworkError("no OD pair has demand")
    paths: list[Path] = []
    slices: list[slice] = []
    link_seqs: list[tuple[int, ...]] = []
    for od_index, od in enumerate(net.od_pairs):
        start = len(paths)
        if od.demand_total > 0:
            sequences = enumerate_paths(net, od, k_max, time_ratio, length_ratio)
            if not sequences:
                raise NetworkError(
                    f"no feasible path for OD pair {od.origin}->{od.destination}"
                )
        else:
            sequences = []
        for seq in sequences:
            check_path(net, od, seq)
            ff = sum(net.link(lid).free_flow_s for lid in seq)
            paths.append(Path(len(paths), od_index, seq, ff))
            link_seqs.append(tuple(net.link_index[lid] for lid in seq))
        slices.append(slice(start, len(paths)))
    od_of_path = np.array([p.od_index for p in paths], dtype=np.intp)
    ff = np.array([p.free_flow_s for p in paths])
    return PathSet(tuple(paths), tuple(slices), od_of_path, ff, tuple(link_seqs))


def _parses(row, parts: list[str]) -> bool:
    try:
        row(parts)
    except ValueError:
        return False
    return True


def _read_table(path, fields: int, header: str, row) -> list:
    """Parse a comma-separated table into one ``row(parts)`` record per line.

    Blank lines, ``#`` comments and lines whose first field is ``header`` are
    skipped. Line 1 is the header row and is skipped whatever its column
    names, unless it reads as a record: a table without its header would
    otherwise lose its first record. Every other line must have ``fields``
    fields. Every ``ParseError`` names the file and the line.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            parts = [p.strip() for p in line.split(",")]
            if not line or line.startswith("#") or parts[0] == header:
                continue
            if lineno == 1:
                if len(parts) == fields and _parses(row, parts):
                    raise ParseError(f"{path}: line 1: a record where the header row belongs")
                continue
            if len(parts) != fields:
                raise ParseError(f"{path}: line {lineno}: expected {fields} fields")
            try:
                records.append(row(parts))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return records


def read_links_csv(path) -> list[Link]:
    """Parse the link table: one header row, 8 fields."""
    return _read_table(path, 8, "link_id", lambda p: Link(
        p[0], p[1], p[2], float(p[3]), float(p[4]), float(p[5]), float(p[6]), float(p[7])))


def read_demand_csv(path) -> list[OdDemand]:
    """Parse the demand table: one header row, then one row per OD pair, 5 fields."""
    return _read_table(path, 5, "origin", lambda p: OdDemand(
        p[0], p[1], float(p[2]), float(p[3]), float(p[4])))
