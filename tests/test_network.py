import dataclasses
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsuedhi import network as nw
from dsuedhi import scenario
from oracles import all_simple_paths, incidence_matrix, reference_path_set, reference_paths

ROOT = Path(__file__).resolve().parent.parent


def make_three_link_records():
    links = [
        nw.Link("1", "A", "B", 4800, 20, 5, 0.6, 0.15),
        nw.Link("2", "A", "B", 7200, 20, 5, 0.6, 0.15),
        nw.Link("3", "B", "C", 4800, 20, 5, 0.5, 0.15),
    ]
    demands = [
        nw.OdDemand("A", "C", 6, 6, 2400.0),
        nw.OdDemand("B", "C", 6, 6, 2400.0),
    ]
    return links, demands


class TestTimeGrid:
    def test_exact_division_required(self):
        with pytest.raises(nw.NetworkError):
            nw.TimeGrid(1000.0, 120.0)

    def test_interval_count(self):
        grid = nw.TimeGrid(4800.0, 120.0)
        assert grid.n_intervals == 40
        assert grid.interval_starts()[1] == 120.0
        assert grid.interval_mids()[0] == 60.0

    def test_positive_dt(self):
        with pytest.raises(nw.NetworkError):
            nw.TimeGrid(1200.0, -120.0)


class TestValidate:
    def test_three_link_network_has_three_paths(self):
        links, demands = make_three_link_records()
        net = nw.validate_network(links, demands)
        ps = nw.build_path_set(net)
        assert ps.n_paths == 3
        assert [p.link_ids for p in ps.paths] == [("1", "3"), ("2", "3"), ("3",)]

    def test_no_path_for_demand(self):
        net = nw.validate_network(
            [nw.Link("1", "A", "B", 100, 10, 5, 1, 0.1)],
            [nw.OdDemand("B", "A", 1, 0, 0.0)],
        )
        with pytest.raises(nw.NetworkError, match="OD pair with no path: B->A"):
            nw.build_path_set(net)

    def test_empty_links_with_demand(self):
        with pytest.raises(nw.NetworkError):
            nw.validate_network([], [nw.OdDemand("A", "B", 1, 0, 0.0)])

    def test_class_split_six_six_twelve(self):
        links, _ = make_three_link_records()
        net = nw.validate_network(links, [nw.OdDemand("A", "C", 6, 6, 0.0)])
        assert net.od_pairs[0].demand_total == 12.0

    def test_non_positive_parameter(self):
        with pytest.raises(nw.NetworkError, match="non-positive"):
            nw.validate_network(
                [nw.Link("1", "A", "B", 0.0, 10, 5, 1, 0.1)],
                [nw.OdDemand("A", "B", 1, 0, 0.0)],
            )

    @pytest.mark.parametrize("demand", [(-1.0, 0.0), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_negative_or_non_finite_demand(self, demand):
        # a NaN demand passed a "< 0" check and its OD pair was left out of the solve
        links, _ = make_three_link_records()
        with pytest.raises(nw.NetworkError, match="finite and non-negative"):
            nw.validate_network(links, [nw.OdDemand("A", "C", *demand, 0.0)])

    def test_dangling_demand_node(self):
        links, _ = make_three_link_records()
        with pytest.raises(nw.NetworkError, match="dangling"):
            nw.validate_network(links, [nw.OdDemand("A", "Z", 1, 0, 0.0)])

    def test_od_pair_from_a_node_to_itself(self):
        # used to fail only when its paths were built, with "empty path"
        links, _ = make_three_link_records()
        with pytest.raises(nw.NetworkError, match="^OD pair B->B: origin is its destination$"):
            nw.validate_network(links, [nw.OdDemand("B", "B", 5, 5, 2100.0)])

    def test_duplicate_link_id(self):
        with pytest.raises(nw.NetworkError, match="duplicate"):
            nw.validate_network(
                [
                    nw.Link("1", "A", "B", 100, 10, 5, 1, 0.1),
                    nw.Link("1", "B", "C", 100, 10, 5, 1, 0.1),
                ],
                [],
            )

    def test_negative_demand(self):
        links, _ = make_three_link_records()
        with pytest.raises(nw.NetworkError, match="negative"):
            nw.validate_network(links, [nw.OdDemand("A", "C", -1, 2, 0.0)])


def grid_2x2():
    # four nodes in a square, equal links left-to-right and top-to-bottom
    links = [
        nw.Link("r1", "nw", "ne", 1000, 10, 5, 1, 0.1),
        nw.Link("r2", "sw", "se", 1000, 10, 5, 1, 0.1),
        nw.Link("d1", "nw", "sw", 1000, 10, 5, 1, 0.1),
        nw.Link("d2", "ne", "se", 1000, 10, 5, 1, 0.1),
    ]
    demands = [nw.OdDemand("nw", "se", 1, 0, 0.0)]
    return nw.validate_network(links, demands)


class TestEnumerate:
    def test_three_link_od_paths(self):
        links, demands = make_three_link_records()
        net = nw.validate_network(links, demands)
        seqs = nw.enumerate_paths(net, net.od_pairs[0], k_max=5, time_ratio=5.0, length_ratio=5.0)
        assert seqs == [("1", "3"), ("2", "3")]

    def test_single_link_od(self):
        net = nw.validate_network(
            [nw.Link("only", "A", "B", 500, 10, 5, 1, 0.1)],
            [nw.OdDemand("A", "B", 3, 0, 0.0)],
        )
        seqs = nw.enumerate_paths(net, net.od_pairs[0], k_max=1, time_ratio=1.0, length_ratio=1.0)
        assert seqs == [("only",)]

    def test_square_grid_matches_exhaustive_enumeration(self):
        net = grid_2x2()
        od = net.od_pairs[0]
        got = nw.enumerate_paths(net, od, k_max=2, time_ratio=1.0, length_ratio=1.0)
        # oracle: enumerate all simple paths, filter by the same bounds, sort
        every = all_simple_paths(net, od.origin, od.destination)
        cost = lambda seq: sum(net.link(l).free_flow_s for l in seq)
        best = min(cost(s) for s in every)
        expected = sorted(
            (s for s in every if cost(s) <= best * 1.0 + 1e-12),
            key=lambda s: (cost(s), s),
        )[:2]
        assert got == expected
        assert len(got) == 2

    def test_ratio_filter_drops_long_detour(self):
        links = [
            nw.Link("a", "A", "B", 1000, 10, 5, 1, 0.1),
            nw.Link("b", "A", "C", 1000, 10, 5, 1, 0.1),
            nw.Link("c", "C", "B", 5000, 10, 5, 1, 0.1),
        ]
        net = nw.validate_network(links, [nw.OdDemand("A", "B", 1, 0, 0.0)])
        seqs = nw.enumerate_paths(net, net.od_pairs[0], k_max=5, time_ratio=1.5, length_ratio=1.5)
        assert seqs == [("a",)]

    def test_invalid_arguments(self):
        net = grid_2x2()
        with pytest.raises(nw.NetworkError):
            nw.enumerate_paths(net, net.od_pairs[0], k_max=0, time_ratio=1.0, length_ratio=1.0)
        with pytest.raises(nw.NetworkError):
            nw.enumerate_paths(net, net.od_pairs[0], k_max=1, time_ratio=0.5, length_ratio=1.0)
        for ratios in ((float("nan"), 1.0), (1.0, float("nan"))):  # NaN fails every comparison
            with pytest.raises(nw.NetworkError, match="at least 1"):
                nw.enumerate_paths(net, net.od_pairs[0], 1, *ratios)

    @settings(max_examples=20, deadline=None)
    @given(perm=st.permutations(range(4)))
    def test_invariant_under_link_record_order(self, perm):
        base = grid_2x2()
        links = [base.links[i] for i in perm]
        net = nw.validate_network(links, [nw.OdDemand("nw", "se", 1, 0, 0.0)])
        got = nw.enumerate_paths(net, net.od_pairs[0], k_max=4, time_ratio=2.0, length_ratio=2.0)
        ref = nw.enumerate_paths(base, base.od_pairs[0], k_max=4, time_ratio=2.0, length_ratio=2.0)
        assert got == ref


def exact(value):
    """``value`` in a form that compares equal only when it is equal byte for byte."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(exact, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(exact(getattr(value, f.name))
                                           for f in dataclasses.fields(value))
    return type(value).__name__, value


def outcome(f, *args):
    """What ``f(*args)`` returns, byte for byte, or the type and text of its ``NetworkError``."""
    try:
        return exact(f(*args))
    except nw.NetworkError as exc:
        return type(exc).__name__, str(exc)


def assert_same_paths(net, k_max, time_ratio, length_ratio):
    """``build_path_set`` and every OD's ``enumerate_paths`` equal the reference's."""
    args = (k_max, time_ratio, length_ratio)
    assert outcome(nw.build_path_set, net, *args) == outcome(reference_path_set, net, *args)
    for od in net.od_pairs:
        assert (outcome(nw.enumerate_paths, net, od, *args)
                == outcome(reference_paths, net, od, *args))


@st.composite
def path_problems(draw):
    """A small multigraph with ODs and path limits.

    Lengths on a 500 m lattice over speeds of 10, 20 and 25 m/s tie exactly;
    lengths of up to 2e6 m at 1 m/s give times whose float sums differ in the
    last bits, above the 1e-12 s of the bounds. A link may have one in the
    other direction beside it (a cycle) or a parallel one. An OD may have no
    demand, and a ratio may be exactly 1 or infinite.
    """
    n = draw(st.integers(2, 7))
    length = st.one_of(st.integers(1, 6).map(lambda k: 500.0 * k),
                       st.floats(10.0, 2e6).map(lambda x: round(x, 1)))
    specs = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(1, n - 1), st.integers(0, 99), length,
        st.sampled_from([1.0, 10.0, 20.0, 25.0]), st.sampled_from(["", "back", "twin"]), length),
        min_size=1, max_size=16))
    links = []
    for j, (tail, step, prefix, m, v, beside, m2) in enumerate(specs):
        # ids drawn apart from the order of the records, so ties fall to the ids
        ends = f"v{tail}", f"v{(tail + step) % n}"
        links.append(nw.Link(f"{prefix:02d}-{j}", *ends, m, v, 5, 1, 0.1))
        if beside:
            links.append(nw.Link(f"{prefix:02d}-{j}{beside}",
                                 *(ends[::-1] if beside == "back" else ends), m2, v, 5, 1, 0.1))
    nodes = sorted({l.tail for l in links} | {l.head for l in links})
    demand = st.sampled_from([0.0, 1.0, 2.5])
    ods = {}
    for o, step, *d in draw(st.lists(st.tuples(st.integers(0, len(nodes) - 1),
                                               st.integers(1, len(nodes) - 1), demand, demand),
                                     min_size=1, max_size=4)):
        ods.setdefault((nodes[o], nodes[(o + step) % len(nodes)]), d)
    ratio = st.sampled_from([1.0, 1.0, 1.1, 1.5, 2.0, 4.0, math.inf])
    return (nw.validate_network(links, [nw.OdDemand(*od, *d, 0.0) for od, d in ods.items()]),
            draw(st.integers(1, 9)), draw(ratio), draw(ratio))


def compass_lattice(rows, cols, back, length):
    """rows x cols nodes ``n{r}_{c}`` with an east and a south link per lattice
    edge, and with ``back`` a west and a north one beside them; ``length()``
    gives each link's length, at 7 m/s."""
    steps = (("e", 0, 1), ("s", 1, 0)) + ((("w", 0, -1), ("n", -1, 0)) if back else ())
    return [nw.Link(f"{d}{r}_{c}", f"n{r}_{c}", f"n{r + dr}_{c + dc}", length(), 7.0, 5, 1, 0.1)
            for r in range(rows) for c in range(cols)
            for d, dr, dc in steps if 0 <= r + dr < rows and 0 <= c + dc < cols]


@st.composite
def tie_lattices(draw):
    """A small ``compass_lattice`` whose links take one to three lengths, and
    ODs from its corner.

    Whole lengths of 30 to 3,000 km at 7 m/s give free-flow times of about
    4e3 to 4e5 s that are inexact floats. Many paths then add up the same
    times in other orders, so their sums differ in the last bits, which lie
    above the 1e-12 s of a bound at ratio 1.
    """
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    lengths = draw(st.lists(st.integers(30_000, 3_000_000), min_size=1, max_size=3))
    links = compass_lattice(rows, cols, draw(st.booleans()),
                            lambda: float(draw(st.sampled_from(lengths))))
    ends = draw(st.lists(st.sampled_from([f"n{r}_{c}" for r in range(rows) for c in range(cols)
                                          if r or c]), min_size=1, max_size=3, unique=True))
    net = nw.validate_network(links, [nw.OdDemand("n0_0", d, 1.0, 0.0, 0.0) for d in ends])
    ratio = st.sampled_from([1.0, 1.0, 1.25, 2.0])
    return net, draw(st.integers(1, 20)), draw(ratio), draw(st.sampled_from([1.0, 10.0]))


def lattice(n):
    """The n x n ``compass_lattice`` with links of 2,970 to 3,030 m, and n/2 ODs
    from (i, i) to (i + 3, i + 3): a rung of the size ladder of path enumeration."""
    rng = np.random.default_rng(n)
    links = compass_lattice(n, n, False, lambda: float(round(rng.uniform(2970, 3030), 3)))
    return nw.validate_network(links, [nw.OdDemand(f"n{i}_{i}", f"n{i + 3}_{i + 3}", 100.0,
                                                   100.0, 2000.0) for i in range(n // 2)])


class TestReferenceEquivalence:
    """Path enumeration gives what the deviation search without its integer graph,
    spur memo and time-bound pruning gave (``oracles.reference_path_set``), byte
    for byte, and raises where it raised."""

    @settings(max_examples=200, deadline=None)
    @given(problem=path_problems())
    def test_generated_multigraphs(self, problem):
        assert_same_paths(*problem)

    @settings(max_examples=60, deadline=None)
    @given(problem=tie_lattices())
    def test_lattices_of_tied_times(self, problem):
        assert_same_paths(*problem)

    @pytest.mark.parametrize("length", [100_000.0, 30_001.0])
    @pytest.mark.parametrize("back", [False, True])
    def test_lattices_of_equal_links(self, length, back):
        # all paths of as many links tie, up to the last bits of their sums
        net = nw.validate_network(compass_lattice(4, 4, back, lambda: length), [
            nw.OdDemand("n0_0", f"n{r}_{c}", 1.0, 0.0, 0.0) for r in range(4) for c in range(4)
            if r or c])
        for time_ratio in (1.0, 1.25, 2.0):
            assert_same_paths(net, 20, time_ratio, 10.0)

    @pytest.mark.parametrize("name", ["three_link", "grid", "grid_uncongested"])
    def test_shipped_scenarios(self, name):
        sc = scenario.load_scenario(ROOT / "scenarios" / name / "scenario.ini")
        net = sc.build()[0]
        assert_same_paths(net, sc.k_max, sc.time_ratio, sc.length_ratio)

    def test_recorded_bench_seeds(self, tmp_path, monkeypatch):
        # the scenarios of every seed in bench/reference.json, as bench/run.py writes them
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        with open(ROOT / "bench" / "reference.json", encoding="utf-8") as fh:
            recorded = json.load(fh)
        assert sum(map(len, recorded.values())) == 63
        for name, seeds in sorted(recorded.items()):
            for seed in seeds:
                design = workloads.GENERATORS[name](int(seed), tmp_path / name / seed)
                sc = scenario.load_scenario(design.scenario)
                assert_same_paths(sc.build()[0], sc.k_max, sc.time_ratio, sc.length_ratio)

    def test_lattice_of_28(self):
        assert_same_paths(lattice(28), 6, 1.5, 1.5)


class TestIncidence:
    def test_shared_link_row(self):
        links, demands = make_three_link_records()
        net = nw.validate_network(links, demands)
        ps = nw.build_path_set(net)
        delta = incidence_matrix(ps, net)
        shared = net.link_index["3"]
        assert np.all(delta[shared] == 1.0)

    def test_single_link_path_row(self):
        net = nw.validate_network(
            [nw.Link("only", "A", "B", 500, 10, 5, 1, 0.1)],
            [nw.OdDemand("A", "B", 3, 0, 0.0)],
        )
        ps = nw.build_path_set(net)
        delta = incidence_matrix(ps, net)
        assert delta.shape == (1, 1) and delta[0, 0] == 1.0

    def test_transpose_times_link_times_equals_traversal_sums(self):
        net = grid_2x2()
        ps = nw.build_path_set(net, k_max=4, time_ratio=3.0, length_ratio=3.0)
        delta = incidence_matrix(ps, net)
        link_ff = np.array([l.free_flow_s for l in net.links])
        via_incidence = delta.T @ link_ff
        via_traversal = np.array(
            [sum(net.link(l).free_flow_s for l in p.link_ids) for p in ps.paths]
        )
        np.testing.assert_allclose(via_incidence, via_traversal, rtol=0, atol=1e-12)

    def test_column_sums_count_links_per_path(self):
        net = grid_2x2()
        ps = nw.build_path_set(net, k_max=4, time_ratio=3.0, length_ratio=3.0)
        delta = incidence_matrix(ps, net)
        np.testing.assert_array_equal(
            delta.sum(axis=0), [len(p.link_ids) for p in ps.paths]
        )


class TestPathInvariants:
    def test_paths_contiguous_and_acyclic(self, grid_congested):
        net, ps, _, _ = grid_congested
        for path in ps.paths:
            od = net.od_pairs[path.od_index]
            nw.check_path(net, od, path.link_ids)

    def test_check_path_rejects_gap(self):
        links, demands = make_three_link_records()
        net = nw.validate_network(links, demands)
        with pytest.raises(nw.NetworkError):
            nw.check_path(net, net.od_pairs[0], ("3", "1"))


class TestFiles:
    def test_round_trip(self, tmp_path):
        links, demands = make_three_link_records()
        net_file = tmp_path / "network.csv"
        with open(net_file, "w") as fh:
            fh.write("link_id,tail,head,length_m,free_speed_mps,backward_wave_speed_mps,capacity_veh_per_s,jam_density_veh_per_m\n")
            for l in links:
                fh.write(f"{l.link_id},{l.tail},{l.head},{l.length_m},{l.free_speed_mps},{l.backward_wave_mps},{l.capacity_vps},{l.jam_density_vpm}\n")
        parsed = nw.read_links_csv(net_file)
        assert parsed == links

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "demand.csv"
        f.write_text("origin,destination,demand_instant,demand_forecast,target_arrival_s\nA,C,1,2\n")
        with pytest.raises(nw.ParseError, match="line 2: expected 5 fields"):
            nw.read_demand_csv(f)


TABLES = [
    pytest.param(
        nw.read_links_csv,
        "link_id,tail,head,length_m,free_speed_mps,backward_wave_speed_mps,"
        "capacity_veh_per_s,jam_density_veh_per_m",
        " 7 , A , B , 100 , 10 , 5 , 0.5 , 0.15 ",
        nw.Link("7", "A", "B", 100.0, 10.0, 5.0, 0.5, 0.15),
        id="links",
    ),
    pytest.param(
        nw.read_demand_csv,
        "origin,destination,demand_instant,demand_forecast,target_arrival_s",
        " A , C , 6 , 4.5 , 2400 ",
        nw.OdDemand("A", "C", 6.0, 4.5, 2400.0),
        id="demand",
    ),
]


@pytest.mark.parametrize("read, header, row, record", TABLES)
class TestTableParsing:
    """Both network tables skip the same lines and raise the same errors."""

    def test_skips_blank_comment_and_header_lines(self, tmp_path, read, header, row, record):
        f = tmp_path / "table.csv"
        f.write_text(f"{header}\n\n# a comment\n   \n{row}\n  # indented comment\n"
                     f"{header}\n{row}\n")
        assert read(f) == [record, record]

    def test_record_whose_first_field_starts_with_a_column_name_is_kept(
            self, tmp_path, read, header, row, record):
        # a link "link_id_2" or an origin "originB" was once skipped as a header
        first, rest = header.split(",")[0], row.split(",", 1)[1]
        f = tmp_path / "table.csv"
        f.write_text(f"{header}\n{first}_2,{rest}\n{row}\n{first}B,{rest}\n")
        key = dataclasses.fields(record)[0].name
        assert read(f) == [dataclasses.replace(record, **{key: first + "_2"}), record,
                           dataclasses.replace(record, **{key: first + "B"})]

    def test_headerless_table_is_rejected(self, tmp_path, read, header, row, record):
        # line 1 used to be skipped whatever it held, so the first record was lost
        f = tmp_path / "table.csv"
        f.write_text(f"{row}\n{row}\n")
        with pytest.raises(nw.ParseError, match=f"^{re.escape(str(f))}: line 1: a record where the header row belongs$"):
            read(f)

    def test_header_with_other_column_names_is_skipped(self, tmp_path, read, header, row,
                                                       record):
        f = tmp_path / "table.csv"
        f.write_text(",".join(f"col{i}" for i in range(len(header.split(",")))) + f"\n{row}\n")
        assert read(f) == [record]

    def test_header_after_leading_comment(self, tmp_path, read, header, row, record):
        f = tmp_path / "table.csv"
        f.write_text(f"# units are SI\n{header}\n{row}\n")
        assert read(f) == [record]

    def test_short_row_names_its_line(self, tmp_path, read, header, row, record):
        n_fields = len(header.split(","))
        short = ",".join(row.split(",")[:-1])
        f = tmp_path / "table.csv"
        f.write_text(f"{header}\n# skipped\n\n{short}\n")
        with pytest.raises(nw.ParseError, match=f"^{re.escape(str(f))}: line 4: expected {n_fields} fields$"):
            read(f)

    def test_non_numeric_field_names_its_line(self, tmp_path, read, header, row, record):
        parts = row.split(",")
        parts[-1] = "abc"
        f = tmp_path / "table.csv"
        f.write_text(f"{header}\n{row}\n{','.join(parts)}\n")
        with pytest.raises(nw.ParseError,
                           match=f"^{re.escape(str(f))}: line 3: could not convert string to float: 'abc'$"):
            read(f)
