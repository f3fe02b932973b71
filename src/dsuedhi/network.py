"""Network, demand, time grid, and path-set construction.

Everything downstream (loading, choice, equilibrium) works on dense integer
indices assigned here: links sorted by id, OD pairs sorted by (origin,
destination), paths ordered per OD by free-flow time. Units are SI throughout
(seconds, meters, vehicles).

A ``Network`` builds, once, the integer graph that path enumeration searches:
node ids, each node's out- and in-links, and each link's head, free-flow time
and length. Paths come from a deviation search (Yen's, with Lawler's skip of
repeated spur searches) whose spur searches are pruned by each OD's time
bound, against a reverse shortest-path tree from its destination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

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


class HashedLinks:
    """A tuple of links whose hash is computed once.

    Equal to another ``HashedLinks`` exactly when the links are equal, so a
    cache keyed by it never mixes up two networks; a lookup by the same
    object compares by identity alone.
    """

    __slots__ = ("links", "_hash")

    def __init__(self, links: tuple[Link, ...]):
        self.links = links
        self._hash = hash(links)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, HashedLinks) and self._hash == other._hash
                                 and self.links == other.links)


class Network:
    """Validated immutable network: canonical link/OD ordering, integer graph."""

    def __init__(self, links: tuple[Link, ...], od_pairs: tuple[OdDemand, ...]):
        self.links = links
        self.od_pairs = od_pairs
        self.link_index = {l.link_id: i for i, l in enumerate(links)}
        self.nodes = tuple(sorted({l.tail for l in links} | {l.head for l in links}))
        self.node_index = node_index = {v: i for i, v in enumerate(self.nodes)}
        # the integer graph path enumeration searches: per link its head node,
        # free-flow time and length; per node its out-links (head, link,
        # free-flow time, length) by free-flow time, then link id, and its
        # in-links (tail, free-flow time)
        self.link_head = [node_index[l.head] for l in links]
        self.link_ff = [l.free_flow_s for l in links]
        self.link_length = [l.length_m for l in links]
        out: list[list[tuple[int, int, float, float]]] = [[] for _ in self.nodes]
        into: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for a, (l, head, ff) in enumerate(zip(links, self.link_head, self.link_ff)):
            tail = node_index[l.tail]
            out[tail].append((head, a, ff, l.length_m))
            into[head].append((tail, ff))
        for v in out:
            v.sort(key=itemgetter(2))  # stable: ties stay in link order
        self.out_links = out
        self.in_links = into

    @functools.cached_property
    def plan_key(self) -> HashedLinks:
        """``links``, hashed once: the loader looks its plan up by them on every load."""
        return HashedLinks(self.links)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_ods(self) -> int:
        return len(self.od_pairs)

    def link(self, link_id: str) -> Link:
        return self.links[self.link_index[link_id]]

    def class_demands(self) -> np.ndarray:
        """Per-OD demand of each class, (2, ODs): row 0 instantaneous, row 1 forecast.

        One read-only array, built on the first call.
        """
        return self._class_demands

    @functools.cached_property
    def _class_demands(self) -> np.ndarray:
        demands = np.array([[od.demand_instant for od in self.od_pairs],
                            [od.demand_forecast for od in self.od_pairs]])
        demands.flags.writeable = False
        return demands

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
    source: int,
    target: int,
    weight: int,
    done: set[int],
    first_links: list[tuple[int, int, float, float]],
    h: list[float] | None = None,
    limit: float = math.inf,
) -> tuple[float, tuple[int, ...]] | None:
    """Dijkstra on ``net``'s integer graph; ties broken by link sequence.

    ``weight`` is the position of the cost in an out-link entry: 2 for
    free-flow time, 3 for length. ``done`` holds the nodes the search may not
    enter, and the search adds to it; ``source`` leaves by ``first_links``
    alone. Returns the cost and the link indices of the path, or None. With
    ``h``, a label at node v whose cost plus ``h[v]`` exceeds ``limit`` still
    becomes v's best cost but is not pushed.
    """
    out = net.out_links
    best = {source: 0.0}
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), source)]
    while heap:
        cost, seq, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == target:
            return cost, seq
        for entry in out[node] if node != source else first_links:
            head = entry[0]
            if head in done:
                continue
            nxt = cost + entry[weight]
            if nxt < best.get(head, math.inf) - 1e-15:
                best[head] = nxt
                if h is not None and nxt + h[head] > limit:
                    continue
                heappush(heap, (nxt, seq + (entry[1],), head))
    return None


def _time_to(net: Network, target: int, bound: float) -> list[float]:
    """Free-flow time from each node to ``target``, by reverse Dijkstra stopped past ``bound``.

    Exact for the nodes at most ``bound`` away; every other node gets a value
    above ``bound`` (infinity if the search never reached it).
    """
    h = [math.inf] * len(net.nodes)
    h[target] = 0.0
    heap = [(0.0, target)]
    into = net.in_links
    while heap:
        cost, node = heappop(heap)
        if cost > bound:
            break
        if cost > h[node]:
            continue
        for tail, ff in into[node]:
            nxt = cost + ff
            if nxt < h[tail]:
                h[tail] = nxt
                heappush(heap, (nxt, tail))
    return h


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

    Each newest shortest path spurs from every prefix (its root), with the
    root's nodes closed and the next link of every path found so far that
    shares the root banned. Two shortcuts leave the accepted paths as a
    search without them finds them:

    - A spur search is a function of its root and its banned links, so a
      (root, banned links) pair searched before is skipped: the candidate
      it gives is already in ``seen``. A root's banned links only grow, so
      the pair repeats exactly when their count is the one last searched.
      A spur node whose out-links are all banned is not searched.
    - One reverse Dijkstra from the destination gives each node's free-flow
      time to it, a lower bound that banning links only raises. A label
      whose cost plus that bound exceeds the time bound minus the root's
      cost, plus a slack of 1e-9 of the time bound, can only lead to a path
      above the time bound, and is not pushed. It still records its best
      cost, so the labels that are kept relax as before; the slack lies far
      above float error and the relaxation's 1e-15, so no label of a path
      within the bound is pruned. A candidate above the time bound is never
      accepted: popping one only ends the loop, as an empty heap does. So
      pruning can only turn such a candidate into another one above the
      bound, or into none.
    """
    ids = [l.link_id for l in net.links]
    return [tuple(map(ids.__getitem__, seq))
            for seq in _link_paths(net, od, k_max, time_ratio, length_ratio)]


def _link_paths(
    net: Network,
    od: OdDemand,
    k_max: int,
    time_ratio: float,
    length_ratio: float,
) -> list[tuple[int, ...]]:
    """``enumerate_paths`` as link-index sequences."""
    check_path_limits(k_max, time_ratio, length_ratio)
    origin, target = net.node_index[od.origin], net.node_index[od.destination]
    out, head, ff, length = net.out_links, net.link_head, net.link_ff, net.link_length
    first = _shortest_path(net, origin, target, 2, set(), out[origin])
    if first is None:
        raise NetworkError(f"OD pair with no path: {od.origin}->{od.destination}")
    by_length = _shortest_path(net, origin, target, 3, set(), out[origin])
    assert by_length is not None
    time_bound = time_ratio * first[0] + 1e-12
    length_bound = length_ratio * by_length[0] + 1e-12
    slack = 1e-9 * time_bound
    h = _time_to(net, target, time_bound + slack)

    accepted: list[tuple[float, tuple[int, ...]]] = []
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen = {first[1]}
    # root -> the next link of each shortest path found so far with that
    # root, and the number of them when last spurred from
    banned_at: dict[tuple[int, ...], set[int]] = {}
    searched: dict[tuple[int, ...], int] = {}

    cost, seq = first
    while not cost > time_bound:  # a NaN bound bounds nothing
        if sum(map(length.__getitem__, seq)) <= length_bound:
            accepted.append((cost, seq))
            if len(accepted) >= k_max:
                break
        # branch: spur from every prefix of the newest shortest path
        nodes = [origin, *map(head.__getitem__, seq)]
        root_cost = 0.0
        for i, a in enumerate(seq):
            root = seq[:i]
            banned = banned_at.setdefault(root, set())
            banned.add(a)
            if searched.get(root) != len(banned):
                searched[root] = len(banned)
                # every banned link leaves the spur node
                first_links = [e for e in out[nodes[i]] if e[1] not in banned]
                spur = _shortest_path(
                    net, nodes[i], target, 2, set(nodes[:i]), first_links,
                    h, time_bound - root_cost + slack,
                ) if first_links else None
                if spur is not None:
                    total = root + spur[1]
                    if total not in seen:
                        seen.add(total)
                        heappush(candidates, (sum(map(ff.__getitem__, total)), total))
            root_cost += ff[a]
        if not candidates:
            break
        cost, seq = heappop(candidates)

    accepted.sort()
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
    ids, link_ff = [l.link_id for l in net.links], net.link_ff
    for od_index, od in enumerate(net.od_pairs):
        start = len(paths)
        if od.demand_total > 0:
            sequences = _link_paths(net, od, k_max, time_ratio, length_ratio)
            if not sequences:
                raise NetworkError(
                    f"no feasible path for OD pair {od.origin}->{od.destination}"
                )
        else:
            sequences = []
        for seq in sequences:
            link_ids = tuple(map(ids.__getitem__, seq))
            check_path(net, od, link_ids)
            paths.append(Path(len(paths), od_index, link_ids, sum(map(link_ff.__getitem__, seq))))
            link_seqs.append(seq)
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
