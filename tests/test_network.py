import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locadmm.network as network_module
from locadmm import grid
from locadmm.diagnostics import TraceRecorder
from locadmm.errors import (
    ConnectivityFailure,
    EmptyFreeSet,
    InvalidParameter,
    LocadmmError,
    MissingPosition,
    ParseError,
    SchemaVersionMismatch,
)
from locadmm.network import (
    GroundTruth,
    MeasurementSet,
    NetworkGraph,
    NoiseModel,
    _id_order,
    _near_pairs,
    _pair_order,
    generate_rgg,
    load_network,
    measure,
    rmse,
    save_network,
    write_text,
)
from locadmm.solver_full import InitSpec, run_full
from locadmm.solver_lite import run_lite
from locadmm.structured_ops import PenaltyParams

from conftest import graphs, make_graph, random_connected_graph
from network_reference import (
    dense_generate_rgg,
    entry_load_network,
    json_save_network,
    loop_measure,
    per_node_graph,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestGenerateRgg:
    def test_average_degree_matches_reference_setup(self):
        # N=108, m=8, range 0.23 on the unit square: mean neighbor count
        # lands in [10, 15] averaged over 20 seeds.
        values = []
        for seed in range(20):
            graph, _ = generate_rgg(108, 8, 0.23, 1.0, 2, seed)
            values.append(graph.avg_degree)
        assert 10.0 <= np.mean(values) <= 15.0

    def test_deterministic_per_seed(self, tmp_path):
        a = generate_rgg(30, 3, 0.4, seed=42)
        b = generate_rgg(30, 3, 0.4, seed=42)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_network(pa, a[0], a[1])
        save_network(pb, b[0], b[1])
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_changes_layout(self):
        a, _ = generate_rgg(30, 3, 0.4, seed=1)
        b, _ = generate_rgg(30, 3, 0.4, seed=2)
        assert a.edge_list != b.edge_list

    def test_two_nodes_single_edge(self):
        graph, truth = generate_rgg(2, 1, 2.0, 1.0, 2, seed=0)
        assert graph.edge_list == ((0, 1),)
        assert graph.connected
        assert graph.num_anchors == 1
        assert truth.positions.shape == (2, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_nodes=0, num_anchors=1, comm_range=0.5),
            dict(num_nodes=5, num_anchors=0, comm_range=0.5),
            dict(num_nodes=5, num_anchors=6, comm_range=0.5),
            dict(num_nodes=5, num_anchors=1, comm_range=-1.0),
            dict(num_nodes=5, num_anchors=1, comm_range=0.5, area_side=0.0),
            dict(num_nodes=5, num_anchors=1, comm_range=0.5, area_side=math.inf),
            dict(num_nodes=5, num_anchors=1, comm_range=0.5, dim=4),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameter):
            generate_rgg(**kwargs)

    def test_numpy_scalars_give_the_same_instance(self):
        # an np.int64 node count reached the radix sort, which called
        # int.bit_length on it
        got = generate_rgg(np.int64(12), np.int64(3), np.float64(0.6), seed=np.int64(1))
        want = generate_rgg(12, 3, 0.6, seed=1)
        assert _instance_bytes(*got, None) == _instance_bytes(*want, None)

    def test_connectivity_retry_budget(self):
        with pytest.raises(ConnectivityFailure):
            generate_rgg(10, 1, 1e-9, seed=0)

    def test_every_node_has_a_neighbor(self):
        graph, _ = generate_rgg(40, 4, 0.35, seed=9)
        assert all(len(nbrs) >= 1 for nbrs in graph.neighbors)

    def test_edges_are_range_consistent(self):
        graph, truth = generate_rgg(25, 2, 0.5, seed=3)
        pos = truth.positions
        present = set(graph.edge_list)
        for i in range(25):
            for j in range(i + 1, 25):
                within = np.linalg.norm(pos[i] - pos[j]) <= 0.5
                assert ((i, j) in present) == within


@st.composite
def rgg_args(draw):
    """``generate_rgg`` arguments: any side, and ranges from below the side
    to beyond the area's diagonal, up to infinite."""
    num_nodes = draw(st.integers(1, 60))
    side = draw(st.floats(0.05, 50.0))
    reach = draw(st.one_of(st.floats(0.45, 1.2), st.just(2.0), st.just(math.inf)))
    return dict(
        num_nodes=num_nodes,
        num_anchors=draw(st.integers(1, num_nodes)),
        comm_range=reach * side,
        area_side=side,
        dim=draw(st.sampled_from([2, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def brute_force_pairs(positions, comm_range):
    """Every pair ``a < b`` passing the distance test, one pair at a time."""
    n = len(positions)
    return [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if np.sqrt(((positions[a] - positions[b]) ** 2).sum()) <= comm_range
    ]


class TestGenerateRggMatchesDense:
    """The cell-list generator against the N x N distance matrix."""

    def assert_same_instance(self, got, want):
        (graph, truth), (ref_graph, ref_truth) = got, want
        assert graph.edge_list == ref_graph.edge_list
        assert graph.connected == ref_graph.connected
        assert truth.positions.tobytes() == ref_truth.positions.tobytes()
        assert list(graph.anchors) == list(ref_graph.anchors)
        for k, pos in graph.anchors.items():
            assert pos.tobytes() == ref_graph.anchors[k].tobytes()

    @PROPERTY_SETTINGS
    @given(rgg_args())
    def test_random_arguments(self, args):
        try:
            want = dense_generate_rgg(**args)
        except ConnectivityFailure as exc:
            with pytest.raises(ConnectivityFailure) as info:
                generate_rgg(**args)
            assert str(info.value) == str(exc)
            return
        self.assert_same_instance(generate_rgg(**args), want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_same_failure_when_too_short_to_connect(self, dim):
        args = (6, 2, 1e-9, 3.0, dim, 7)
        with pytest.raises(ConnectivityFailure) as want:
            dense_generate_rgg(*args)
        with pytest.raises(ConnectivityFailure) as got:
            generate_rgg(*args)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("nodes,anchors,comm_range", [(108, 8, 0.23), (1000, 40, 0.075)])
    def test_reference_layouts(self, nodes, anchors, comm_range):
        # the layouts of criterion 6 and of the benchmark's instances
        args = (nodes, anchors, comm_range, 1.0, 2, 28)
        got, want = generate_rgg(*args), dense_generate_rgg(*args)
        self.assert_same_instance(got, want)
        graph, truth = got
        meas = measure(truth, graph, NoiseModel("additive-white", 0.02), seed=3)
        ref = loop_measure(truth.positions, want[0].edge_list, "additive-white", 0.02, 3)
        assert meas.d.tobytes() == np.array(list(ref.values())).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pairs_at_exactly_the_range(self, dim):
        # a lattice of spacing exactly comm_range, up to the far side of the
        # area: lattice neighbors are at distance exactly comm_range (kept),
        # diagonals beyond it (dropped); one more point sits an ulp beyond
        # comm_range from a lattice point
        r = 0.25
        lattice = np.array(list(itertools.product(np.arange(5) * r, repeat=dim)))
        stride = 5 ** (dim - 1)  # lattice[k * stride] is (k * r, 0, ...)
        twin = lattice[2 * stride] + np.spacing(0.5) * np.eye(dim)[0]
        positions = np.concatenate([lattice, [twin]])
        a, b = _near_pairs(positions, r, 1.0)
        got = sorted(zip(a.tolist(), b.tolist()))
        assert got == brute_force_pairs(positions, r)
        on_lattice = [(i, j) for i, j in got if j < len(lattice)]
        assert len(on_lattice) == dim * 4 * 5 ** (dim - 1)
        assert (2 * stride, len(lattice)) in got
        assert (stride, len(lattice)) not in got

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_distance_rounds_as_the_dense_test(self, data):
        # comm_range exactly at one pair's distance as the dense test rounds
        # it, and one ulp below: a distance that rounds otherwise (say, the
        # squares of a 3-d row added as x + (y + z)) flips that pair
        dim = data.draw(st.sampled_from([2, 3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        positions = rng.uniform(0.0, 1.0, (12, dim))
        a, b = data.draw(st.lists(st.integers(0, 11), min_size=2, max_size=2, unique=True))
        exact = np.sqrt(((positions[a] - positions[b]) ** 2).sum())
        for r in (exact, np.nextafter(exact, 0.0)):
            got = sorted(zip(*(x.tolist() for x in _near_pairs(positions, r, 1.0))))
            assert got == brute_force_pairs(positions, r)

    def test_ranges_below_the_cell_cap(self):
        # with cells capped per axis, a tiny range still finds its pairs
        positions = np.array([[0.5, 0.5], [0.5, 0.5 + 1e-9], [0.5, 0.5 + 2.5e-9], [0.1, 0.9]])
        a, b = _near_pairs(positions, 2e-9, 1.0)
        assert sorted(zip(a.tolist(), b.tolist())) == brute_force_pairs(positions, 2e-9) == [
            (0, 1), (1, 2)
        ]


class TestBuildMatchesPerNode:
    """``NetworkGraph.build`` on arrays against the per-node construction."""

    LAYOUT_FIELDS = ("offsets", "src", "dst", "rev", "degrees", "anchor_idx", "anchor_pos")

    def assert_matches(self, graph, want):
        assert graph.neighbors == want["neighbors"]
        assert graph.rev_pos == want["rev_pos"]
        assert graph.edge_list == want["edge_list"]
        assert graph.connected == want["connected"]
        for name in self.LAYOUT_FIELDS:
            got, ref = getattr(graph, name), want[name]
            assert got.dtype == ref.dtype and got.shape == ref.shape, name
            assert got.tobytes() == ref.tobytes(), name

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_random_edge_collections(self, data):
        n = data.draw(st.integers(1, 25))
        dim = data.draw(st.sampled_from([2, 3]))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                                   max_size=3 * n))
        # repeats, in both orientations, in any order
        again = data.draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
        edges = data.draw(st.permutations(pairs + again + [(j, i) for i, j in again]))
        container = data.draw(st.sampled_from([list, tuple, set, iter, np.array]))
        ids = data.draw(st.lists(node, min_size=1, max_size=n, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        anchors = {k: rng.uniform(0.0, 1.0, dim) for k in ids}
        graph = NetworkGraph.build(dim, n, anchors, container(edges))
        self.assert_matches(graph, per_node_graph(n, anchors, edges))

    @pytest.mark.parametrize("n,edges", [(1, []), (4, []), (3, [(0, 1), (1, 0), (0, 1)])])
    def test_degenerate_graphs(self, n, edges):
        anchors = {0: np.zeros(2)}
        graph = NetworkGraph.build(2, n, anchors, edges)
        self.assert_matches(graph, per_node_graph(n, anchors, edges))

    def test_generated_graph(self):
        graph, _ = generate_rgg(300, 10, 0.25, dim=3, seed=4)
        self.assert_matches(
            graph, per_node_graph(300, graph.anchors, graph.edge_list)
        )

    def test_ids_beyond_16_bits(self):
        # ids of 17 bits take two radix passes per order; 5 and 65 541 agree
        # in their low 16 bits and order by the high digit
        n, big = 70_000, 1 << 16
        edges = [(5, big + 5), (big + 5, 3), (n - 1, 5), (big + 4, big + 5), (big + 5, 4),
                 (n - 1, big), (big, 0), (big - 1, big), (3, 4), (n - 2, n - 1)]
        rng = np.random.default_rng(7)
        edges += [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(30)]
        edges += [(j, i) for i, j in edges[::3]]
        anchors = {n - 1: [0.5, 0.5], 5: [0.0, 0.0], big + 5: [1.0, 0.0]}
        graph = NetworkGraph.build(2, n, anchors, edges)
        self.assert_matches(graph, per_node_graph(n, anchors, edges))

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1), (2, 5), (1, 1)], "edge (2,5) out of range"),
            ([(0, 1), (1, 1), (2, 5)], "self-loop at node 1"),
            ([(0, 1), (-1, 2)], "edge (-1,2) out of range"),
            ([(1, 2), (3, 3)], "self-loop at node 3"),
            (np.array([[0, 1], [1, 0], [0, 7]]), "edge (0,7) out of range"),
        ],
    )
    def test_first_bad_edge_named(self, edges, message):
        anchors = {0: [0.0, 0.0]}
        with pytest.raises(InvalidParameter) as ref:
            per_node_graph(3, anchors, edges)
        with pytest.raises(InvalidParameter) as got:
            NetworkGraph.build(2, 3, anchors, edges)
        assert str(got.value) == str(ref.value) == message

    @pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, 1, 2)], [("0", "1")]])
    def test_non_integer_ids_rejected(self, edges):
        with pytest.raises(InvalidParameter, match="^edges must be pairs of integer node ids$"):
            NetworkGraph.build(2, 3, {0: [0.0, 0.0]}, edges)


def id_values(max_value):
    """Integer ids up to ``max_value``, often at a 16-bit digit boundary."""
    bounds = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 32, max_value]
    return st.one_of(
        st.integers(0, max_value), st.sampled_from([x for x in bounds if x <= max_value])
    )


def as_ids(values):
    return np.array(values, dtype=np.intp)


class TestIdOrder:
    """The radix orders against NumPy's stable comparison sort."""

    @PROPERTY_SETTINGS
    @given(st.lists(id_values(1 << 40), max_size=200).map(as_ids), st.integers(0, 8))
    def test_matches_stable_argsort(self, ids, spare_bits):
        limit = (int(ids.max(initial=0)) + 1) << spare_bits
        want = np.argsort(ids, kind="stable")
        got = _id_order(ids, limit)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ids", [[], [0], [1 << 40]])
    def test_empty_and_single(self, ids):
        ids = np.array(ids, dtype=np.intp)
        assert _id_order(ids, (1 << 40) + 1).tolist() == list(range(len(ids)))

    @PROPERTY_SETTINGS
    @given(st.lists(st.tuples(id_values(1 << 20), id_values(1 << 20)), max_size=200))
    def test_pair_order_matches_stable_argsort(self, pairs):
        first, second = (as_ids([p[k] for p in pairs]) for k in (0, 1))
        want = np.argsort(first * (1 << 21) + second, kind="stable")
        assert _pair_order(first, second, (1 << 20) + 1).tobytes() == want.tobytes()


@st.composite
def stars(draw):
    """A star graph: node 0, the one anchor, is the hub of degree N-1."""
    n = draw(st.integers(2, 40))
    dim = draw(st.sampled_from([2, 3]))
    return NetworkGraph.build(dim, n, {0: np.zeros(dim)}, [(0, j) for j in range(1, n)])


class TestNodeSum:
    """``NetworkGraph.node_sum`` against each node's own ``sum(axis=0)``."""

    @PROPERTY_SETTINGS
    @given(st.one_of(graphs(max_nodes=20).map(lambda g: g[0]), stars()), st.data())
    def test_matches_per_node_sum(self, graph, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (graph.sum_degree, graph.dim)
        # rows of magnitude 1e-8 .. 1e8, so a change of order changes bits
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, (graph.sum_degree, 1))
        x[rng.random(shape) < 0.2] = -0.0
        want = np.stack([rows.sum(axis=0) for rows in graph.split(x)])
        # a sum started from zero is never -0.0; adding 0.0 maps -0.0 to 0.0
        assert graph.node_sum(x).tobytes() == (want + 0.0).tobytes()

    def test_field_of_another_width_raises(self):
        graph = NetworkGraph.build(3, 3, {0: np.zeros(3)}, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            graph.node_sum(np.ones((graph.sum_degree, 2)))


class TestGraphInvariants:
    def test_neighbor_symmetry(self):
        graph, _ = generate_rgg(30, 3, 0.4, seed=5)
        for i, nbrs in enumerate(graph.neighbors):
            for j in nbrs:
                assert i in graph.neighbors[j]

    def test_irreflexive(self):
        with pytest.raises(InvalidParameter):
            make_graph(2, [(0, 0), (0, 1)], {0: [0.0, 0.0]})

    def test_rev_pos_addressing(self):
        graph, _ = generate_rgg(20, 2, 0.5, seed=8)
        for i in range(graph.num_nodes):
            for k, j in enumerate(graph.neighbors[i]):
                assert graph.neighbors[j][graph.rev_pos[i][k]] == i

    def test_anchor_required(self):
        with pytest.raises(InvalidParameter):
            NetworkGraph.build(2, 2, {}, [(0, 1)])

    @pytest.mark.parametrize(
        "dim, num_nodes, anchors, message",
        [
            (4, 3, {0: [0.0] * 4}, "dim must be 2 or 3, got 4"),
            (2, 0, {0: [0.0, 0.0]}, "num_nodes must be >= 1, got 0"),
            (2, 3, {0: [0.0, 0.0], 3: [1.0, 0.0]}, "anchor id 3 out of range"),
            (2, 3, {1: [0.0, 0.0, 0.0]}, "anchor 1 position has shape (3,)"),
        ],
        ids=["dim-4", "no-nodes", "anchor-id-out-of-range", "anchor-of-wrong-shape"],
    )
    def test_bad_build_arguments_named(self, dim, num_nodes, anchors, message):
        with pytest.raises(InvalidParameter) as exc:
            NetworkGraph.build(dim, num_nodes, anchors, [(0, 1), (1, 2)])
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "anchor_id", [1.9, 0.5, 2.0, True, np.float64(1.0), np.True_, "1"],
        ids=["1.9", "0.5", "2.0", "True", "np-float", "np-bool", "string"],
    )
    def test_non_integer_anchor_ids_rejected(self, anchor_id):
        # a truncated id would pin another node: 1.9 and True would pin node 1
        with pytest.raises(InvalidParameter) as exc:
            NetworkGraph.build(2, 3, {anchor_id: [1.0, 2.0]}, [(0, 1), (1, 2)])
        assert str(exc.value) == f"anchor id {anchor_id!r} is not an integer"

    def test_numpy_node_count(self):
        # the count reached the radix sort as an np.int64, without bit_length
        args = ({0: [0.0, 0.0]}, [(0, 1), (1, 2)])
        got = NetworkGraph.build(np.int64(2), np.int64(3), *args)
        want = NetworkGraph.build(2, 3, *args)
        assert _instance_bytes(got, None, None) == _instance_bytes(want, None, None)

    @pytest.mark.parametrize("anchor_id", [1, np.int64(1), np.uint8(1)])
    def test_integer_anchor_ids_of_any_type(self, anchor_id):
        graph = NetworkGraph.build(2, 3, {anchor_id: [1.0, 2.0]}, [(0, 1), (1, 2)])
        assert graph.anchor_idx.tolist() == [1]

    @pytest.mark.parametrize(
        "position", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], ["x", "y"], [1j, 0.0]],
        ids=["nan", "inf", "minus-inf", "strings", "complex"],
    )
    def test_anchor_positions_must_be_finite_numbers(self, position):
        with pytest.raises(InvalidParameter) as exc:
            NetworkGraph.build(2, 3, {2: [0.0, 0.0], 0: position}, [(0, 1), (1, 2)])
        assert str(exc.value) == "anchor 0 position must be 2 finite numbers"

    def test_every_graph_fact_held_once(self):
        # one graph type: its edge and anchor arrays are its fields, and the
        # degrees, like every view, are read from them
        assert [f.name for f in dataclasses.fields(NetworkGraph)] == [
            "offsets", "src", "dst", "rev", "anchor_idx", "anchor_pos", "connected", "copies"
        ]

    def test_repr_shows_connectivity_only(self):
        graph, _ = generate_rgg(108, 8, 0.3, seed=1)
        assert repr(graph) == "NetworkGraph(connected=True)"
        assert repr(graph.stack(3)) == "NetworkGraph(connected=False)"

    def test_degrees_are_one_read_only_array(self):
        graph, _ = generate_rgg(20, 3, 0.5, seed=1)
        degrees = graph.degrees
        assert graph.degrees is degrees
        assert degrees.tolist() == [len(nbrs) for nbrs in graph.neighbors]
        with pytest.raises(ValueError):
            degrees[0] = 0

    @pytest.mark.parametrize("copies", [2, 3])
    def test_stack_of_copies(self, copies):
        graph, _ = generate_rgg(20, 3, 0.5, seed=1)
        assert graph.stack(1) is graph and graph.copies == 1
        stacked = graph.stack(copies)
        assert not stacked.connected and stacked.copies == copies
        assert stacked.num_nodes == copies * graph.num_nodes
        assert stacked.sum_degree == copies * graph.sum_degree
        assert stacked.neighbors == tuple(
            tuple(j + k * graph.num_nodes for j in nbrs)
            for k in range(copies) for nbrs in graph.neighbors
        )
        assert stacked.rev_pos == graph.rev_pos * copies
        assert stacked.by_copy(stacked.anchor_pos).tobytes() == np.stack(
            [graph.anchor_pos] * copies
        ).tobytes()

    @pytest.mark.parametrize("source", ["generate_rgg", "load_network", "build"])
    def test_anchor_positions_held_once(self, source, tmp_path):
        graph, truth = generate_rgg(20, 3, 0.5, seed=1)
        if source == "load_network":
            save_network(tmp_path / "net.json", graph, truth)
            graph, _, _ = load_network(tmp_path / "net.json")
        elif source == "build":
            anchors = {k: truth.positions[k] for k in (5, 0, 11)}
            graph = NetworkGraph.build(2, 20, anchors, graph.edge_list)
        with pytest.raises(ValueError):
            graph.anchor_pos[0] += 5.0
        with pytest.raises(TypeError):
            graph.anchors[0] = np.zeros(2)
        assert list(graph.anchors) == graph.anchor_idx.tolist() == sorted(graph.anchors)
        for row, pos in zip(graph.anchor_pos, graph.anchors.values()):
            assert np.shares_memory(row, pos) and np.array_equal(row, pos)
        assert graph.num_anchors == len(graph.anchors)

    def test_callers_anchor_array_stays_writable(self):
        a = np.zeros(2)
        graph = NetworkGraph.build(2, 2, {0: a}, [(0, 1)])
        a[0] = 1.0
        assert graph.anchors[0].tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            graph.anchors[0][0] = 1.0

    def test_callers_positions_stay_writable(self):
        positions = np.zeros((2, 2))
        truth = GroundTruth(positions)
        positions[0, 0] = 1.0
        assert truth.positions.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            truth.positions[0, 0] = 1.0

    @pytest.mark.parametrize(
        "positions", [None, True, np.array([0.0, 1.0]), np.zeros((3, 4)), np.zeros((2, 2, 2))],
        ids=["none", "true", "1-d", "4-columns", "3-d"],
    )
    def test_positions_must_be_rows_of_2_or_3_numbers(self, positions):
        # None, True and a 1-D array were taken as positions
        shape = np.shape(np.array(positions, dtype=float))
        message = re.escape(f"positions must be rows of 2 or 3 numbers, got shape {shape}")
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            GroundTruth(positions)

    def test_compares_by_identity(self):
        positions = np.arange(6.0).reshape(3, 2)
        truth = GroundTruth(positions)
        assert (truth == GroundTruth(positions.copy())) is False
        assert (truth == truth) is True
        assert (truth != GroundTruth(positions)) is True


class TestMeasure:
    def test_zero_noise_exact(self, triangle):
        graph, truth, meas = triangle
        again = measure(truth, graph, NoiseModel("additive-white", 0.0), seed=4)
        assert np.array_equal(again.d, meas.d)

    def test_additive_noise_std(self):
        positions = np.array([[0.0, 0.0], [0.6, 0.0]])
        graph = make_graph(2, [(0, 1)], {0: positions[0]})
        truth = GroundTruth(positions)
        model = NoiseModel("additive-white", 0.05)
        draws = np.array(
            [measure(truth, graph, model, seed=s).d[0] for s in range(10_000)]
        )
        noise = draws - 0.6
        assert abs(noise.std() - 0.05) < 0.05 * 0.05

    def test_range_dependent_variance(self):
        length = 0.8
        positions = np.array([[0.0, 0.0], [length, 0.0]])
        graph = make_graph(2, [(0, 1)], {0: positions[0]})
        truth = GroundTruth(positions)
        sigma_add = 0.03
        model = NoiseModel("range-dependent", sigma_add)
        draws = np.array(
            [measure(truth, graph, model, seed=s).d[0] for s in range(10_000)]
        )
        noise = draws - length
        target = sigma_add * length * length
        assert abs(noise.var() - target) < 0.10 * target

    def test_negative_draws_clamped(self):
        positions = np.array([[0.0, 0.0], [0.01, 0.0]])
        graph = make_graph(2, [(0, 1)], {0: positions[0]})
        truth = GroundTruth(positions)
        model = NoiseModel("additive-white", 5.0)
        draws = [measure(truth, graph, model, seed=s).d[0] for s in range(200)]
        assert min(draws) == 0.0
        assert all(v >= 0.0 for v in draws)

    def test_deterministic(self, triangle):
        graph, truth, _ = triangle
        model = NoiseModel("range-dependent", 0.1)
        a = measure(truth, graph, model, seed=11)
        b = measure(truth, graph, model, seed=11)
        assert a.d.tobytes() == b.d.tobytes()

    def test_missing_positions(self):
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        short = GroundTruth(np.zeros((2, 2)))
        with pytest.raises(Exception):
            measure(short, graph, NoiseModel(), seed=0)

    def test_bad_model(self):
        with pytest.raises(InvalidParameter):
            NoiseModel("laplacian", 0.1)
        with pytest.raises(InvalidParameter):
            NoiseModel("additive-white", -0.5)

    def test_bad_model_named(self):
        message = "^noise kind must be 'additive-white' or 'range-dependent', got 'laplacian'$"
        with pytest.raises(InvalidParameter, match=message):
            NoiseModel("laplacian", 0.1)


class TestMeasureMatchesLoop:
    """The one-pass ``measure`` against one draw per edge."""

    @pytest.mark.parametrize("kind", NoiseModel.KINDS)
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.02, 3.0])
    def test_bitwise_equal(self, kind, dim, sigma):
        graph, truth = generate_rgg(80, 4, 0.35 if dim == 2 else 0.5, dim=dim, seed=dim)
        meas = measure(truth, graph, NoiseModel(kind, sigma), seed=5)
        want = loop_measure(truth.positions, graph.edge_list, kind, sigma, 5)
        assert meas.d.tobytes() == np.array(list(want.values())).tobytes()
        if sigma == 3.0:
            assert (meas.d == 0.0).any()  # clamped draws are covered
        # every directed edge carries its undirected edge's draw
        lookup = [
            want[min(i, j), max(i, j)] for i, nbrs in enumerate(graph.neighbors) for j in nbrs
        ]
        assert meas.edge_ranges(graph).tobytes() == np.array(lookup).tobytes()

    def test_node_ranges_reuse_the_drawn_ranges(self):
        graph, truth = generate_rgg(40, 4, 0.35, seed=9)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.1), seed=2)
        got = meas.node_ranges(graph)
        # neither the draw nor the split built the per-edge tuples
        assert "edge_list" not in vars(graph)
        want = MeasurementSet.from_pairs(graph, dict(zip(graph.edge_list, meas.d.tolist())))
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want.node_ranges(graph)]


def test_instance_pipeline_imports_no_scipy():
    # scipy costs ~40 MB of resident memory and ~0.4 s to import
    script = (
        "import sys\n"
        "from locadmm import generate_rgg, measure, NoiseModel, PenaltyParams\n"
        "from locadmm.solver_full import InitSpec\n"
        "from locadmm.solver_lite import run_lite\n"
        "graph, truth = generate_rgg(200, 8, 0.15, seed=1)\n"
        "meas = measure(truth, graph, NoiseModel('additive-white', 0.02), seed=1)\n"
        "run_lite(graph, meas, PenaltyParams(0.05, 0.05), InitSpec(), 3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestMeasurementSet:
    @pytest.mark.parametrize("seed", range(6))
    def test_edge_ranges_equal_per_edge_lookup(self, seed):
        rng = np.random.default_rng(seed)
        graph, truth = random_connected_graph(rng, int(rng.integers(2, 30)), dim=2 + seed % 2)
        pairs = {e: float(rng.uniform(0.0, 2.0)) for e in graph.edge_list}
        pairs[(graph.num_nodes, graph.num_nodes + 1)] = 9.0  # not an edge: ignored
        meas = MeasurementSet.from_pairs(graph, pairs)
        want = [pairs[min(i, j), max(i, j)] for i, nbrs in enumerate(graph.neighbors) for j in nbrs]
        got = meas.edge_ranges(graph)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()

    def test_ranges_built_once_and_read_only(self, triangle):
        graph, _, meas = triangle
        ranges = meas.edge_ranges(graph)
        assert meas.edge_ranges(graph) is ranges
        with pytest.raises(ValueError):
            ranges[0] = 5.0
        for rows in meas.node_ranges(graph):
            assert rows.base is ranges
            with pytest.raises(ValueError):
                rows[0] = 5.0

    def test_graph_with_the_same_edges_shares_the_ranges(self, triangle):
        graph, _, meas = triangle
        twin = make_graph(2, [(1, 2), (0, 2), (1, 0)], {0: [5.0, 5.0]})
        assert meas.edge_ranges(twin) is meas.edge_ranges(graph)
        assert [r.tolist() for r in meas.node_ranges(twin)] == [
            r.tolist() for r in meas.node_ranges(graph)
        ]

    @pytest.mark.parametrize("call", ["edge_ranges", "run_full", "run_lite"])
    def test_another_graph_rejected(self, call, triangle):
        # the path has two of the triangle's three edges
        _, _, meas = triangle
        path = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        with pytest.raises(InvalidParameter, match="^measurements were taken on another graph$"):
            if call == "edge_ranges":
                meas.edge_ranges(path)
            else:
                runner = run_full if call == "run_full" else run_lite
                runner(path, meas, PenaltyParams(0.1, 0.1), InitSpec(), 1)

    def test_missing_range_named_by_from_pairs(self):
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        with pytest.raises(InvalidParameter, match=r"^no range measured for edge \(1, 2\)$"):
            MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (2, 1): 0.5})

    def test_one_range_per_edge_required(self):
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        for bad in ([1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]]):
            with pytest.raises(InvalidParameter, match="^expected 2 ranges"):
                MeasurementSet(graph, bad)

    def test_d_is_a_read_only_copy(self):
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        given = np.array([1.0, 0.5])
        meas = MeasurementSet(graph, given)
        with pytest.raises(ValueError):
            meas.d[0] = 2.0
        given[0] = 2.0
        assert given.flags.writeable
        assert meas.d.dtype == np.float64 and meas.d.tolist() == [1.0, 0.5]
        assert meas.edge_ranges(graph).tolist() == [1.0, 1.0, 0.5, 0.5]

    def test_max_range(self, triangle):
        graph, truth, meas = triangle
        assert meas.max_range == max(meas.d.tolist())
        lone = NetworkGraph.build(2, 1, {0: [0.0, 0.0]}, [])
        assert MeasurementSet(lone, []).max_range == 0.0


class TestRmse:
    def test_exact_estimates_give_zero(self, triangle):
        graph, truth, _ = triangle
        assert rmse(truth.positions, truth, graph) == 0.0

    def test_missing_estimate_named(self, triangle):
        # the triangle's only free node is node 2
        graph, truth, _ = triangle
        with pytest.raises(MissingPosition, match="^no estimate for node 2$"):
            rmse(truth.positions[:2], truth, graph)
        with pytest.raises(MissingPosition, match="^no estimate for node 2$"):
            rmse({0: truth.positions[0], 1: truth.positions[1]}, truth, graph)
        assert rmse({2: truth.positions[2]}, truth, graph) == 0.0

    @pytest.mark.parametrize(
        "estimates, message",
        [
            ("x", "estimates must be numbers"),
            ({2: "x"}, "estimates must be numbers"),
            (3.0, "estimates must be rows of 2 numbers, got shape ()"),
            (np.zeros((3, 3)), "estimates must be rows of 2 numbers, got shape (3, 3)"),
        ],
        ids=["string", "string-entry", "number", "three-columns"],
    )
    def test_estimates_must_be_rows_of_numbers(self, triangle, estimates, message):
        # NumPy raised its own ValueError or TypeError
        graph, truth, _ = triangle
        with pytest.raises(InvalidParameter) as exc:
            rmse(estimates, truth, graph)
        assert str(exc.value) == message

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equal_to_per_node_dot_products(self, dim):
        # the trace's rmse column must not move in the last bit
        rng = np.random.default_rng(dim)
        for _ in range(60):
            positions = rng.uniform(0.0, 1.0, (40, dim))
            anchors = {int(a): positions[a] for a in rng.permutation(40)[:5]}
            graph = make_graph(dim, [(i, i + 1) for i in range(39)], anchors)
            est = positions + rng.normal(0.0, 1.0, positions.shape) * 10.0 ** rng.integers(-6, 2)
            deltas = [est[i] - positions[i] for i in range(40) if i not in anchors]
            err2 = np.array([float(d @ d) for d in deltas])
            want = math.sqrt(float(np.sum(err2)) / len(deltas))
            assert rmse(est, GroundTruth(positions), graph) == want

    def test_hand_value(self):
        # two free nodes with errors (0.3, 0.4) and (0, 0):
        # sqrt((0.09 + 0.16) / 2) = sqrt(0.125)
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        graph = make_graph(2, [(0, 1), (0, 2), (1, 2)], {0: positions[0]})
        truth = GroundTruth(positions)
        est = positions.copy()
        est[1] += [0.3, 0.4]
        assert rmse(est, truth, graph) == pytest.approx(0.3535533905932738, abs=1e-15)

    def test_anchor_errors_ignored(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        graph = make_graph(2, [(0, 1), (0, 2), (1, 2)], {0: positions[0]})
        truth = GroundTruth(positions)
        est = {0: positions[0] + 99.0, 1: positions[1], 2: positions[2]}
        assert rmse(est, truth, graph) == 0.0

    def test_all_anchors_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        graph = make_graph(2, [(0, 1)], {0: positions[0], 1: positions[1]})
        with pytest.raises(EmptyFreeSet):
            rmse(positions, GroundTruth(positions), graph)

    def test_mapping_iteration_order_irrelevant(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1, (6, 2))
        graph = make_graph(
            2, [(i, i + 1) for i in range(5)], {0: positions[0]}, num_nodes=6
        )
        truth = GroundTruth(positions)
        est = rng.uniform(0, 1, (6, 2))
        forward = {i: est[i] for i in range(6)}
        backward = {i: est[i] for i in reversed(range(6))}
        assert rmse(forward, truth, graph) == rmse(backward, truth, graph)


class TestTruthFitsTheGraph:
    """A truth is scored or measured only on a graph it has a row for each
    node of, in the graph's dim: a short truth raised a raw IndexError, a
    long one was scored by its first rows, a 3-D one measured silently."""

    @pytest.mark.parametrize("rows, dim", [(5, 2), (25, 2), (20, 3)], ids=["few", "many", "dim"])
    @pytest.mark.parametrize("entry", ["save_network", "measure", "rmse", "TraceRecorder", "run_grid"])
    def test_wrong_shape_refused(self, tmp_path, entry, rows, dim):
        graph, truth = generate_rgg(20, 3, 0.5, seed=1)
        noise, params = NoiseModel("additive-white", 0.01), PenaltyParams(0.1, 0.1)
        meas = measure(truth, graph, noise, seed=1)
        wrong = GroundTruth(np.random.default_rng(0).uniform(0.0, 1.0, (rows, dim)))
        calls = {
            "save_network": lambda: save_network(tmp_path / "net.json", graph, wrong, meas),
            "measure": lambda: measure(wrong, graph, noise),
            "rmse": lambda: rmse(truth.positions, wrong, graph),
            "TraceRecorder": lambda: run_full(
                graph, meas, params, InitSpec(), 2,
                hook=TraceRecorder(graph, meas, params, truth=wrong),
            ),
            # refused when called, before a batch is built
            "run_grid": lambda: grid.run_grid("lite", graph, meas, [(params, 0)], InitSpec(), 2, truth=wrong),
        }
        message = f"truth positions have shape ({rows}, {dim}), the graph needs (20, 2)"
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            calls[entry]()
        assert not (tmp_path / "net.json").exists()


class TestFileRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        graph, truth = generate_rgg(15, 2, 0.5, seed=6)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.02), seed=7)
        path = tmp_path / "net.json"
        save_network(path, graph, truth, meas)
        g2, t2, m2 = load_network(path)
        assert g2.edge_list == graph.edge_list
        assert g2.neighbors == graph.neighbors
        assert sorted(g2.anchors) == sorted(graph.anchors)
        assert np.array_equal(t2.positions, truth.positions)
        assert m2.d.tobytes() == meas.d.tobytes()
        # a second save is byte-identical
        path2 = tmp_path / "net2.json"
        save_network(path2, g2, t2, m2)
        assert path.read_bytes() == path2.read_bytes()

    @PROPERTY_SETTINGS
    @given(graphs(), st.data())
    def test_ranges_follow_their_edges(self, tmp_path_factory, instance, data):
        # a file of either schema may list its edges in any order and orientation
        graph, meas, _ = instance
        root = tmp_path_factory.mktemp("order")
        first, shuffled, second = root / "first.json", root / "shuffled.json", root / "second.json"
        save_network(first, graph, measurements=meas)
        json_save_network(shuffled, graph, measurements=meas)
        doc = json.loads(shuffled.read_text())
        doc["edges"] = data.draw(st.permutations(doc["edges"]), label="order")
        for entry in doc["edges"]:
            if data.draw(st.booleans(), label="swap"):
                entry["i"], entry["j"] = entry["j"], entry["i"]
        columns = json.loads(first.read_text())
        columns["i"], columns["j"], columns["d"] = (
            [e[key] for e in doc["edges"]] for key in ("i", "j", "d")
        )
        for shuffled_doc in (doc, columns):
            shuffled.write_text(json.dumps(shuffled_doc))
            g2, _, m2 = load_network(shuffled)
            assert m2.edge_ranges(g2).tobytes() == meas.edge_ranges(graph).tobytes()
            save_network(second, g2, measurements=m2)
            assert second.read_bytes() == first.read_bytes()

    def test_blind_file_without_truth(self, tmp_path):
        graph, truth = generate_rgg(8, 1, 0.6, seed=1)
        meas = measure(truth, graph, NoiseModel(), seed=1)
        path = tmp_path / "blind.json"
        save_network(path, graph, measurements=meas)
        g2, t2, m2 = load_network(path)
        assert t2 is None
        assert m2.d.tobytes() == meas.d.tobytes()

    def test_asymmetric_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0, 0]},
                       {"id": 1, "anchor": false}],
             "edges": [{"i": 0, "j": 1, "d": 0.5}, {"i": 1, "j": 0, "d": 0.6}]}
            """
        )
        with pytest.raises(ParseError, match="asymmetric"):
            load_network(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0, 0]},
                       {"id": 1, "anchor": false}],
             "edges": [{"i": 0, "j": 1, "d": 0.5}, {"i": 0, "j": 1, "d": 0.5}]}
            """
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_network(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "v3.json"
        path.write_text('{"schema_version": 3, "dim": 2, "nodes": [], "edges": []}')
        with pytest.raises(SchemaVersionMismatch) as exc:
            load_network(path)
        assert str(exc.value) == "schema_version: expected 1 or 2, got 3"

    def test_field_diagnostics(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0]}],
             "edges": []}
            """
        )
        with pytest.raises(ParseError, match=r"nodes\[0\].anchor_pos"):
            load_network(path)

    def test_non_dense_ids_rejected(self, tmp_path):
        path = tmp_path / "ids.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0, 0]},
                       {"id": 5, "anchor": false}],
             "edges": []}
            """
        )
        with pytest.raises(ParseError, match="id"):
            load_network(path)

    def test_anchor_entry_required(self, tmp_path):
        path = tmp_path / "blind.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": false}, {"id": 1, "anchor": false}],
             "edges": [{"i": 0, "j": 1, "d": 1.0}]}
            """
        )
        with pytest.raises(ParseError) as exc:
            load_network(path)
        assert str(exc.value) == "nodes: at least one anchor entry is required"

    def test_overflowing_id_named(self, tmp_path):
        # too large for an index array: the error names the entry
        doc = {
            "schema_version": 1, "dim": 2,
            "nodes": [{"id": 2**70, "anchor": True, "anchor_pos": [0.0, 0.0]}],
            "edges": [],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as exc:
            load_network(path)
        assert str(exc.value) == (
            f"nodes[0].id: ids must be dense 0-based integers, got {2**70}"
        )

    def test_disconnected_loads_with_warning(self, tmp_path):
        # two components; the loader tolerates it, the solver does not
        path = tmp_path / "disc.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0, 0], "pos": [0, 0]},
                       {"id": 1, "anchor": false, "pos": [1, 0]},
                       {"id": 2, "anchor": false, "pos": [0, 1]},
                       {"id": 3, "anchor": false, "pos": [1, 1]}],
             "edges": [{"i": 0, "j": 1, "d": 1.0}, {"i": 2, "j": 3, "d": 1.0}]}
            """
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph, truth, meas = load_network(path)
        assert not graph.connected
        (warning,) = [w for w in caught if "not connected" in str(w.message)]
        assert warning.filename == __file__  # attributed to the caller of load_network

        from locadmm.errors import DisconnectedGraph
        from locadmm.solver_full import InitSpec, run_full
        from locadmm.structured_ops import PenaltyParams

        with pytest.raises(DisconnectedGraph):
            run_full(graph, meas, PenaltyParams(0.1, 0.1), InitSpec(kind="zeros"), 5)

    def test_anchor_truth_mismatch_rejected(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(
            """
            {"schema_version": 1, "dim": 2,
             "nodes": [{"id": 0, "anchor": true, "anchor_pos": [0, 0], "pos": [0.5, 0]},
                       {"id": 1, "anchor": false, "pos": [1, 0]}],
             "edges": [{"i": 0, "j": 1, "d": 1.0}]}
            """
        )
        with pytest.raises(ParseError, match="anchor_pos"):
            load_network(path)


class TestWriteText:
    """``write_text`` writes what ``open(path, "w")`` writes, over the old
    bytes in place."""

    def test_shorter_rewrite_leaves_no_tail(self, tmp_path):
        path, fresh = tmp_path / "over.txt", tmp_path / "fresh.txt"
        write_text(path, "x" * 5000 + "\n")
        write_text(path, "short, \u00e9\u4e2d\n")
        write_text(fresh, "short, \u00e9\u4e2d\n")
        assert path.read_bytes() == fresh.read_bytes() == "short, \u00e9\u4e2d\n".encode()
        write_text(path, "")
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "interrupt"],
    )
    def test_failed_write_leaves_no_old_bytes(self, tmp_path, monkeypatch, error):
        path = tmp_path / "over.txt"
        path.write_bytes(b"o" * 9000)
        real_write = os.write

        def write_1000_then_fail(fd, data):
            if len(data) < 4000:
                raise error
            return real_write(fd, data[:1000])

        monkeypatch.setattr(os, "write", write_1000_then_fail)
        with pytest.raises(type(error)):
            write_text(path, "n" * 4500)
        monkeypatch.undo()
        assert path.read_bytes() == b"n" * 1000

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "kept.txt"
        path.write_text("old contents, longer than the new ones\n")
        path.chmod(0o640)
        before = path.stat()
        write_text(path, "new\n")
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert path.read_text() == "new\n"

    def test_new_file_mode_is_open_default(self, tmp_path):
        mine, theirs = tmp_path / "mine.txt", tmp_path / "theirs.txt"
        write_text(mine, "a\n")
        with open(theirs, "w", encoding="utf-8") as fh:
            fh.write("a\n")
        assert mine.stat().st_mode == theirs.stat().st_mode

    @pytest.mark.parametrize("where", ["nodir/f.txt", "."], ids=["missing-dir", "directory"])
    def test_errors_match_open(self, tmp_path, where):
        path = str(tmp_path / where)
        with pytest.raises(OSError) as theirs:
            open(path, "w", encoding="utf-8")
        with pytest.raises(OSError) as mine:
            write_text(path, "text\n")
        assert type(mine.value) is type(theirs.value)
        assert str(mine.value) == str(theirs.value)
        assert not (tmp_path / "nodir").exists()


# -- load_network fuzzing ------------------------------------------------------

FUZZ_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

JSON_KINDS = {
    "int": st.integers(-2, 12),
    "float": st.floats(),
    "bool": st.booleans(),
    "str": st.text(max_size=3),
    "null": st.none(),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}
ACCEPTED = {"int": {"int"}, "number": {"int", "float"}, "bool": {"bool"}, "list": {"list"}}


def _valid_doc():
    graph, truth = generate_rgg(6, 2, 0.7, seed=3)
    meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=3)
    return graph, truth, meas


def _fields(doc):
    """Every field of a network document: (path to its container, key, type)."""
    top = (("schema_version", "int"), ("dim", "int"), ("nodes", "list"), ("edges", "list"))
    for key, kind in top:
        yield (), key, kind
    for k, node in enumerate(doc["nodes"]):
        yield ("nodes", k), "id", "int"
        yield ("nodes", k), "anchor", "bool"
        for vec in ("anchor_pos", "pos"):
            if vec in node:
                yield ("nodes", k), vec, "list"
                for m in range(len(node[vec])):
                    yield ("nodes", k, vec), m, "number"
    for k in range(len(doc["edges"])):
        for key, kind in (("i", "int"), ("j", "int"), ("d", "number")):
            yield ("edges", k), key, kind


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A valid schema-1 network file's bytes, its document, and a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    json_save_network(root / "valid.json", *_valid_doc())
    data = (root / "valid.json").read_bytes()
    return data, json.loads(data), root / "case.json"


def _load(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fuzzed edge list may disconnect the graph
        return load_network(path)


@st.composite
def mistyped(draw, doc):
    """The document with one field given a value of another JSON type, or
    deleted."""
    where, key, kind = draw(st.sampled_from(list(_fields(doc))))
    doc = json.loads(json.dumps(doc))
    container = doc
    for step in where:
        container = container[step]
    if draw(st.booleans()) and isinstance(container, dict):
        del container[key]
    else:
        wrong = sorted(set(JSON_KINDS) - ACCEPTED[kind])
        container[key] = draw(st.sampled_from(wrong).flatmap(JSON_KINDS.get))
    return doc


class TestLoadNetworkFuzz:
    def test_valid_file_loads(self, fuzz_files):
        data, _, path = fuzz_files
        path.write_bytes(data)
        graph, truth, meas = _load(path)
        assert graph.num_nodes == 6 and truth is not None and meas is not None

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_wrong_type_or_missing_field_rejected(self, fuzz_files, data):
        _, doc, path = fuzz_files
        path.write_text(json.dumps(data.draw(mistyped(doc))), encoding="utf-8")
        with pytest.raises((ParseError, SchemaVersionMismatch)):
            _load(path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_truncated_or_flipped_bytes(self, fuzz_files, data):
        valid, _, path = fuzz_files
        raw = bytearray(valid[: data.draw(st.integers(0, len(valid)), label="cut")])
        flips = st.tuples(st.integers(0, max(len(raw) - 1, 0)), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=4 if raw else 0), label="flips"):
            raw[pos] ^= mask
        path.write_bytes(bytes(raw))
        try:
            _load(path)
        except (ParseError, SchemaVersionMismatch):
            pass

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 2.0), ("d", True), ("id", True), ("pos", ["0.5", "0.5"]), ("d", 10**400)],
        ids=["float-dim", "bool-d", "bool-id", "string-pos", "huge-int-d"],
    )
    def test_reported_mistypes(self, fuzz_files, field, value):
        _, doc, path = fuzz_files
        doc = json.loads(json.dumps(doc))
        target = {"dim": doc, "d": doc["edges"][0], "id": doc["nodes"][1], "pos": doc["nodes"][1]}
        target[field][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError):
            _load(path)

    def test_non_utf8_bytes(self, fuzz_files):
        valid, _, path = fuzz_files
        path.write_bytes(valid.replace(b'"dim"', b'"d\xffm"'))
        with pytest.raises(ParseError):
            _load(path)


# -- the file round trip against its json.dump and per-entry references ------

# values json spells in its own ways, or that round-trip only through repr
SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-5,
]


@st.composite
def network_documents(draw):
    """A graph of 1-8 nodes, possibly without edges, with or without truth
    and ranges, whose floats include -0.0, subnormals, 1e308, NaN and +-inf
    (the anchor positions, which must be finite, only the finite ones)."""
    n = draw(st.integers(1, 8))
    dim = draw(st.sampled_from([2, 3]))
    node = st.integers(0, n - 1)
    edges = [(i, j) for i, j in draw(st.lists(st.tuples(node, node), max_size=12)) if i != j]
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    finite = value.filter(math.isfinite)

    def floats(*shape, value=value):
        size = math.prod(shape)
        return np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)

    anchor_ids = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    graph = NetworkGraph.build(dim, n, {k: floats(dim, value=finite) for k in anchor_ids}, edges)
    truth = GroundTruth(floats(n, dim)) if draw(st.booleans()) else None
    meas = MeasurementSet(graph, floats(len(graph.edge_list))) if draw(st.booleans()) else None
    return graph, truth, meas


def _reference_108():
    graph, truth = generate_rgg(108, 8, 0.23, seed=28)
    return graph, truth, measure(truth, graph, NoiseModel("additive-white", 0.02), seed=1)


def _reference_dim3():
    graph, truth = generate_rgg(60, 6, 0.4, dim=3, seed=5)
    return graph, truth, measure(truth, graph, NoiseModel("range-dependent", 0.01), seed=2)


def _instances_to_save():
    """The N = 108 reference and a dim-3 instance, each with and without
    truth and ranges."""
    for graph, truth, meas in (_reference_108(), _reference_dim3()):
        for args in [(truth, meas), (None, meas), (truth, None), (None, None)]:
            yield graph, *args


def _schema_2_text(doc, ranges: bool) -> str:
    """The schema-2 file of the instance in the schema-1 document ``doc``
    (nodes in id order, edges in edge-list order, as ``json_save_network``
    writes them), which carries ranges when ``ranges`` is true: one key per
    line, each value spelled by ``json.dumps``."""
    nodes, edges = doc["nodes"], doc["edges"]
    anchors = [e for e in nodes if e["anchor"]]
    columns = {
        "schema_version": 2, "dim": doc["dim"], "num_nodes": len(nodes),
        "anchors": [e["id"] for e in anchors],
        "anchor_pos": [x for e in anchors for x in e["anchor_pos"]],
    }
    if "pos" in nodes[0]:
        columns["pos"] = [x for e in nodes for x in e["pos"]]
    columns["i"], columns["j"] = [e["i"] for e in edges], [e["j"] for e in edges]
    if ranges:
        columns["d"] = [e["d"] for e in edges]
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in columns.items()]
    return "{\n " + ",\n ".join(lines) + "\n}\n"


class TestSaveNetworkMatchesJson:
    """``save_network`` writes schema 2 with every value spelled as
    ``json_save_network`` spells it in schema 1, and both files load to
    the same instance."""

    @staticmethod
    def same_bytes(root, graph, truth, meas):
        new, ref = root / "new.json", root / "ref.json"
        save_network(new, graph, truth, meas)
        json_save_network(ref, graph, truth, meas)
        doc = json.loads(ref.read_bytes())
        mine, theirs = _outcome(load_network, new), _outcome(load_network, ref)
        # a non-finite position or range fails both, each naming its own field
        same = mine == theirs or (mine[0] is theirs[0] is ParseError)
        return same and new.read_text() == _schema_2_text(doc, meas is not None)

    @PROPERTY_SETTINGS
    @given(network_documents())
    def test_random_documents(self, tmp_path_factory, instance):
        assert self.same_bytes(tmp_path_factory.mktemp("save"), *instance)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_graph_without_edges(self, tmp_path, n, dim):
        graph = NetworkGraph.build(dim, n, {0: np.zeros(dim)}, [])
        truth = GroundTruth(np.full((n, dim), -0.0))
        for args in [(None, None), (truth, None), (truth, MeasurementSet(graph, []))]:
            assert self.same_bytes(tmp_path, graph, *args)
        assert b'"i": [],\n "j": [],\n "d": []\n' in (tmp_path / "new.json").read_bytes()
        assert _load(tmp_path / "new.json")[2] is None  # no edge, no ranges

    @pytest.mark.parametrize("dim", [2, 3])
    def test_generated_networks(self, tmp_path, dim):
        if dim == 2:
            graph, truth, meas = _reference_108()
        else:
            graph, truth = generate_rgg(60, 6, 0.4, dim=3, seed=5)
            meas = measure(truth, graph, NoiseModel("range-dependent", 0.01), seed=2)
        for args in [(truth, meas), (None, meas), (truth, None), (None, None)]:
            assert self.same_bytes(tmp_path, graph, *args)

    def test_truth_of_the_wrong_shape_rejected(self, tmp_path):
        graph, truth, _ = _valid_doc()
        longer = np.vstack([truth.positions, truth.positions[:1]])
        for name, positions in [("short", truth.positions[:-1]), ("long", longer)]:
            with pytest.raises(InvalidParameter, match=r"truth positions .* needs \(6, 2\)"):
                save_network(tmp_path / f"{name}.json", graph, GroundTruth(positions))
            assert not (tmp_path / f"{name}.json").exists()


def _outcome(load, path):
    """What ``load(path)`` gives: the error's type and message, or the
    instance's edges, anchors, truth and ranges as bytes, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph, truth, meas = load(path)
        except LocadmmError as exc:
            return type(exc), str(exc)
    return (
        graph.dim,
        graph.num_nodes,
        graph.edge_list,
        [(k, v.tobytes()) for k, v in graph.anchors.items()],
        None if truth is None else truth.positions.tobytes(),
        None if meas is None else meas.d.tobytes(),
        [str(w.message) for w in caught],
    )


@st.composite
def broken_entry(draw, doc, where, k):
    """``doc`` (a copy) with entry ``k`` of ``doc[where]`` given one fault of
    type (as ``mistyped`` makes) or of meaning: a repeated or out-of-range
    id, a self-loop, a repeated edge, a negative range, a missing field, a
    truth position off its anchor position, ..."""
    doc = json.loads(json.dumps(doc))
    entries = doc[where]
    as_dict = lambda x: x if isinstance(x, dict) else {}  # an earlier fault may have replaced it
    entry = entries[k] = as_dict(entries[k])
    other = as_dict(entries[draw(st.integers(0, len(entries) - 1), label="other")])
    n, dim = len(doc["nodes"]), doc["dim"]
    if where == "nodes":
        changes = [
            ("id", other.get("id")), ("id", -1), ("id", n), ("anchor", not entry.get("anchor")),
            ("pos", [0.25] * dim), ("pos", [0.5] * (dim + 1)), ("pos", None),
            ("anchor_pos", [-0.0] * dim), ("anchor_pos", [1, 2.5, "x"][:dim]),
        ]
        fields = ["id", "anchor", "anchor_pos", "pos"]
    else:
        changes = [
            ("i", entry.get("j")), ("j", n), ("i", -1), ("d", -0.5), ("d", -0.0),
            ("d", None), ("d", other.get("d")), ("d", math.inf), ("d", 10**400),
            ("i", other.get("i")), ("j", other.get("j")), ("swap", None), ("copy", None),
        ]
        fields = ["i", "j", "d"]
    kind = draw(st.sampled_from(["change", "delete", "mistype", "replace"]), label="kind")
    if kind == "change":
        key, value = draw(st.sampled_from(changes), label="change")
        if key == "swap":
            entry["i"], entry["j"] = other.get("j"), other.get("i")
        elif key == "copy":
            entries[k] = dict(other)
        else:
            entry[key] = value
    elif kind == "delete":
        entry.pop(draw(st.sampled_from(fields), label="field"), None)
    elif kind == "mistype":
        key = draw(st.sampled_from(fields), label="field")
        entry[key] = draw(st.sampled_from(sorted(JSON_KINDS)).flatmap(JSON_KINDS.get))
    else:
        entries[k] = draw(st.sampled_from(["object", "list", "null", "int"]).flatmap(
            lambda kind: JSON_KINDS[kind].filter(lambda x: kind != "object" or not x)
        ))
    return doc


@st.composite
def two_broken_entries(draw, doc):
    """``doc`` with a fault in each of two different node or edge entries."""
    entries = [("nodes", k) for k in range(len(doc["nodes"]))]
    entries += [("edges", k) for k in range(len(doc["edges"]))]
    first, second = draw(st.lists(st.sampled_from(entries), min_size=2, max_size=2, unique=True))
    return draw(broken_entry(draw(broken_entry(doc, *first)), *second))


class TestLoadNetworkMatchesEntryLoader:
    """``load_network`` loads every schema-1 file as the independent
    per-entry loader does, and rejects every file it rejects with the same
    error: same type, same message, naming the same first fault in file
    order."""

    @staticmethod
    def same(doc_or_bytes, path):
        if isinstance(doc_or_bytes, bytes):
            path.write_bytes(doc_or_bytes)
        else:
            path.write_text(json.dumps(doc_or_bytes), encoding="utf-8")
        new, ref = _outcome(load_network, path), _outcome(entry_load_network, path)
        assert new == ref
        return new

    def test_valid_files(self, fuzz_files):
        data, doc, path = fuzz_files
        assert len(self.same(data, path)) == 7
        # entries in any order, edges in either orientation
        doc = json.loads(json.dumps(doc))
        doc["nodes"].reverse()
        doc["edges"] = [{"i": e["j"], "j": e["i"], "d": e["d"]} for e in doc["edges"][::-1]]
        assert len(self.same(doc, path)) == 7
        doc["edges"][3]["d"] = -0.0  # not below zero
        assert len(self.same(doc, path)) == 7

    @pytest.mark.parametrize("instance", [_valid_doc, _reference_108, _reference_dim3],
                             ids=["N6", "N108", "dim3"])
    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "blind"])
    @pytest.mark.parametrize("with_ranges", [True, False], ids=["ranges", "no-ranges"])
    def test_saved_files(self, tmp_path, instance, with_truth, with_ranges):
        graph, truth, meas = instance()
        path = tmp_path / "net.json"
        json_save_network(path, graph, truth if with_truth else None, meas if with_ranges else None)
        assert len(self.same(path.read_bytes(), path)) == 7

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("edges", "d", 1),
            ("free-node", "pos", [1, 0]),
            ("edges", "d", int(sys.float_info.max)),
            ("free-node", "pos", [int(sys.float_info.max), -int(sys.float_info.max)]),
            ("anchor-node", "pos", [-0.0, -0.0]),
            ("edges", "d", -0.0),
        ],
        ids=["int-d", "int-pos", "max-int-d", "max-int-pos", "negative-zero-pos",
             "negative-zero-d"],
    )
    def test_valid_hand_edits(self, fuzz_files, where, key, value):
        # ints where the schema-1 writer writes floats, and negative zeros
        _, doc, path = fuzz_files
        doc = json.loads(json.dumps(doc))
        if where == "edges":
            entry = doc["edges"][2]
        else:
            anchor = where == "anchor-node"
            entry = next(e for e in doc["nodes"] if e["anchor"] is anchor)
            if anchor:
                entry["anchor_pos"] = [0.0, 0.0]
        entry[key] = value
        assert len(self.same(doc, path)) == 7

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_mistyped(self, fuzz_files, data):
        _, doc, path = fuzz_files
        self.same(data.draw(mistyped(doc)), path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_truncated_or_flipped_bytes(self, fuzz_files, data):
        valid, _, path = fuzz_files
        raw = bytearray(valid[: data.draw(st.integers(0, len(valid)), label="cut")])
        flips = st.tuples(st.integers(0, max(len(raw) - 1, 0)), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=4 if raw else 0), label="flips"):
            raw[pos] ^= mask
        self.same(bytes(raw), path)

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 2.0), ("d", True), ("id", True), ("pos", ["0.5", "0.5"]), ("d", 10**400)],
        ids=["float-dim", "bool-d", "bool-id", "string-pos", "huge-int-d"],
    )
    def test_reported_mistypes(self, fuzz_files, field, value):
        _, doc, path = fuzz_files
        doc = json.loads(json.dumps(doc))
        target = {"dim": doc, "d": doc["edges"][0], "id": doc["nodes"][1], "pos": doc["nodes"][1]}
        target[field][field] = value
        assert self.same(doc, path)[0] is ParseError

    @pytest.mark.parametrize(
        "value, loads",
        [(int(sys.float_info.max), True), (int(sys.float_info.max) + 1, False),
         (2**53 + 1, True), (-(2**64), True)],
    )
    def test_integers_at_the_float_range(self, fuzz_files, value, loads):
        # an integer range converts exactly as float() converts it, and one
        # beyond the largest float is rejected even where float() rounds it down
        _, doc, path = fuzz_files
        doc = json.loads(json.dumps(doc))
        doc["edges"][2]["d"] = abs(value)
        doc["nodes"][0]["pos"][1] = value
        assert (len(self.same(doc, path)) == 7) == loads

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_one_broken_entry(self, fuzz_files, data):
        _, doc, path = fuzz_files
        where = data.draw(st.sampled_from(["nodes", "edges"]), label="where")
        k = data.draw(st.integers(0, len(doc[where]) - 1), label="entry")
        self.same(data.draw(broken_entry(doc, where, k)), path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_two_broken_entries(self, fuzz_files, data):
        _, doc, path = fuzz_files
        self.same(data.draw(two_broken_entries(doc)), path)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_two_faults_in_one_entry(self, fuzz_files, data):
        _, doc, path = fuzz_files
        where = data.draw(st.sampled_from(["nodes", "edges"]), label="where")
        k = data.draw(st.integers(0, len(doc[where]) - 1), label="entry")
        self.same(data.draw(broken_entry(data.draw(broken_entry(doc, where, k)), where, k)), path)

    @pytest.mark.parametrize(
        "faults, message",
        [
            ([("nodes", 4, "id", 1), ("nodes", 2, "anchor", "no")], r"nodes\[2\]\.anchor"),
            ([("nodes", 1, "pos", [0.5]), ("nodes", 3, "id", 9)], r"nodes\[1\]\.pos"),
            ([("edges", 5, "d", -1.0), ("edges", 3, "i", "0")], r"edges\[3\]: i and j"),
            ([("edges", 0, "d", None), ("edges", 2, "d", math.nan)], r"edges\[2\]\.d"),
            ([("nodes", 3, "id", 1), ("nodes", 3, "anchor", 0)], r"nodes\[3\]\.id: dup"),
            # the repeat of the edge that sorts first comes last in the file
            ([("edges", 11, "copy", 0), ("edges", 3, "copy", 10)], r"edges\[10\]: duplicate"),
            ([("edges", 5, "copy", 0), ("edges", 0, "d", -0.0)],
             r"edges\[5\]: asymmetric duplicate edge \(0,2\) d=0\.2\d+ conflicts with "
             r"\(0,2\) d=-0\.0$"),
        ],
        ids=["node-order", "node-field-order", "edge-order", "range-after-missing-one",
             "id-before-anchor", "repeat-in-file-order", "asymmetric-repeat"],
    )
    def test_first_fault_in_file_order_wins(self, fuzz_files, faults, message):
        _, doc, path = fuzz_files
        doc = json.loads(json.dumps(doc))
        for where, k, key, value in faults:
            if key == "copy":
                doc[where][k] = dict(doc[where][value])
            else:
                doc[where][k][key] = value
        kind, text = self.same(doc, path)
        assert kind is ParseError and re.match(message, text)




# -- schema 2 ------------------------------------------------------------------


def _instance_bytes(graph, truth, meas):
    """Every array of a loaded instance, as bytes, and its flags."""
    arrays = [graph.offsets, graph.src, graph.dst, graph.rev, graph.anchor_idx, graph.anchor_pos]
    return (
        [(a.dtype, a.shape, a.tobytes(), a.flags.writeable) for a in arrays],
        graph.copies, graph.connected,
        None if truth is None else truth.positions.tobytes(),
        None if meas is None else meas.d.tobytes(),
    )


@st.composite
def any_graphs(draw, max_nodes=8):
    """``(graph, truth, ranges)`` of a graph ``NetworkGraph.build`` made
    from any anchors and edges: one node or several, no edge or many, in
    either orientation and repeated, connected or not, some or every node
    an anchor."""
    n = draw(st.integers(1, max_nodes))
    dim = draw(st.sampled_from([2, 3]))
    node = st.integers(0, n - 1)
    pairs = draw(st.one_of(st.just([]), st.lists(st.tuples(node, node), max_size=2 * n)))
    anchors = draw(st.one_of(st.just(range(n)), st.lists(node, min_size=1, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.uniform(-1.0, 1.0, (n, dim))
    edges = [(i, j) for i, j in pairs if i != j]
    graph = NetworkGraph.build(dim, n, {a: truth[a] for a in anchors}, edges)
    return graph, GroundTruth(truth), MeasurementSet(graph, rng.uniform(0, 1, len(graph.edge_list)))


class TestSchema2RoundTrip:
    """A schema-2 file loads to the instance that was saved, bit for bit,
    and to the instance its schema-1 twin loads to."""

    @staticmethod
    def round_trip(root, graph, truth, meas):
        two, one = root / "two.json", root / "one.json"
        save_network(two, graph, truth, meas)
        json_save_network(one, graph, truth, meas)
        loaded, twin = _load(two), _load(one)
        if not graph.edge_list:
            meas = None  # a graph without edges carries no ranges
        assert _instance_bytes(*loaded) == _instance_bytes(graph, truth, meas)
        assert _instance_bytes(*twin) == _instance_bytes(*loaded)
        assert not twin[0].anchor_pos.flags.writeable

    @PROPERTY_SETTINGS
    @given(graphs(), st.booleans(), st.booleans())
    def test_random_graphs(self, tmp_path_factory, instance, with_truth, with_ranges):
        graph, meas, rng = instance
        truth = None
        if with_truth:
            positions = rng.uniform(-1.0, 1.0, (graph.num_nodes, graph.dim))
            positions[graph.anchor_idx] = graph.anchor_pos
            truth = GroundTruth(positions)
        root = tmp_path_factory.mktemp("two")
        self.round_trip(root, graph, truth, meas if with_ranges else None)

    @PROPERTY_SETTINGS
    @given(any_graphs(), st.booleans(), st.booleans())
    def test_any_graph(self, tmp_path_factory, instance, with_truth, with_ranges):
        # the graph load_network assembles from a file's columns is the one
        # NetworkGraph.build assembles from the same anchors and edges, for
        # one node, no edge, two components or every node an anchor
        graph, truth, meas = instance
        root = tmp_path_factory.mktemp("any")
        self.round_trip(root, graph, truth if with_truth else None, meas if with_ranges else None)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_node(self, tmp_path, dim):
        graph = NetworkGraph.build(dim, 1, {0: np.full(dim, -0.0)}, [])
        for truth in (None, GroundTruth(np.full((1, dim), -0.0))):
            for meas in (None, MeasurementSet(graph, [])):
                self.round_trip(tmp_path, graph, truth, meas)

    def test_generated_networks(self, tmp_path):
        for instance in _instances_to_save():
            self.round_trip(tmp_path, *instance)

    def test_disconnected_loads_with_warning(self, tmp_path):
        graph = NetworkGraph.build(2, 4, {0: np.zeros(2)}, [(0, 1), (2, 3)])
        save_network(tmp_path / "disc.json", graph, measurements=MeasurementSet(graph, [1.0, 1.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded, _, _ = load_network(tmp_path / "disc.json")
        assert not loaded.connected
        (warning,) = [w for w in caught if "not connected" in str(w.message)]
        assert warning.filename == __file__  # attributed to the caller of load_network

    def test_integers_load_as_numbers(self, tmp_path):
        # JSON integers are numbers: they convert as float() converts them
        graph, truth, meas = _valid_doc()
        path = tmp_path / "ints.json"
        save_network(path, graph, truth, meas)
        doc = json.loads(path.read_text())
        doc["anchor_pos"][0] = doc["pos"][4] = 0
        doc["d"][2] = 1
        path.write_text(json.dumps(doc))
        _, truth2, meas2 = load_network(path)
        assert truth2.positions[2, 0] == 0.0 and meas2.d[2] == 1.0


class TestOneAssembly:
    """``load_network`` assembles a file's checked columns once, through
    the function ``NetworkGraph.build`` ends in, without the checks
    ``build`` makes of a library caller's input."""

    @pytest.mark.parametrize("save", [save_network, json_save_network], ids=["schema2", "schema1"])
    @pytest.mark.parametrize("instance", [_reference_108, _reference_dim3], ids=["N108", "dim3"])
    def test_loads_check_nothing_twice(self, tmp_path, monkeypatch, instance, save):
        path = tmp_path / "net.json"
        save(path, *instance())
        calls = []

        def spy(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        build = spy("build", NetworkGraph.build.__func__)
        monkeypatch.setattr(NetworkGraph, "build", classmethod(build))
        for name in ("_anchor_arrays", "_edge_pairs"):
            monkeypatch.setattr(network_module, name, spy(name, getattr(network_module, name)))
        graph, truth, meas = load_network(path)
        assert graph.connected and truth is not None and meas is not None
        assert calls == []
        NetworkGraph.build(2, 2, {0: np.zeros(2)}, [(0, 1)])  # a library build runs them
        assert calls == ["build", "_anchor_arrays", "_edge_pairs"]

    @pytest.mark.parametrize("fault, message", [
        ("pos", "nodes: pos given for some nodes but missing for [5]"),
        ("d", "edges: d given for some edges but not all"),
    ])
    def test_a_file_that_fails_does_not_warn(self, tmp_path, fault, message):
        # a disconnected schema-1 file warned that it was not connected,
        # then raised its ParseError
        path = tmp_path / "iso.json"
        json_save_network(path, *_reference_108())
        doc = json.loads(path.read_text())
        doc["edges"] = [e for e in doc["edges"] if 5 not in (e["i"], e["j"])]
        path.write_text(json.dumps(doc))
        assert not _load(path)[0].connected  # node 5 has no neighbor
        if fault == "pos":
            del doc["nodes"][5]["pos"]
        else:
            del doc["edges"][0]["d"]
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError) as exc:
                load_network(path)
        assert str(exc.value) == message
        assert caught == []


def _schema_2_doc(root):
    """The schema-2 document ``save_network`` writes for ``_valid_doc``:
    6 nodes, anchors 2 and 4, 12 edges in edge-list order, the edge (1,4)
    at index 5; written under the directory ``root``."""
    save_network(root / "valid-2.json", *_valid_doc())
    return json.loads((root / "valid-2.json").read_text())


def _edit(doc, key, index, value):
    """``doc`` (a copy) with ``doc[key][index] = value``, or ``doc[key] =
    value`` when ``index`` is ``None``, or without ``key`` for a value of
    ``...``."""
    doc = json.loads(json.dumps(doc))
    if value is ...:
        del doc[key]
    elif index is None:
        doc[key] = value
    else:
        doc[key][index] = value
    return doc


class TestSchema2Faults:
    """A schema-2 file with a fault raises ``ParseError`` naming the key
    and its first bad index."""

    @pytest.mark.parametrize(
        "edits, message",
        [
            # booleans where ids are expected
            ([("anchors", 1, True)], "anchors[1]: expected an integer node id, got True"),
            ([("i", 3, False)], "i[3]: expected an integer node id, got False"),
            ([("j", 0, 1.0)], "j[0]: expected an integer node id, got 1.0"),
            # strings where numbers are expected
            ([("pos", 4, "0.5")], "pos[4]: expected a finite number, got '0.5'"),
            ([("d", 2, "x")], "d[2]: expected a finite number, got 'x'"),
            ([("anchor_pos", 0, True)], "anchor_pos[0]: expected a finite number, got True"),
            ([("d", 3, 10**400)], f"d[3]: expected a finite number, got {str(10**400)[:40]}"),
            # wrong lengths and types of a whole column
            ([("anchor_pos", None, [0.5, 0.5, 0.5])], "anchor_pos: expected a list of 4 numbers"),
            ([("pos", None, [0.5] * 11)], "pos: expected a list of 12 numbers"),
            ([("j", None, [2] * 11)], "j: expected a list of 12 node ids"),
            ([("d", None, [0.5] * 13)], "d: expected a list of 12 numbers"),
            ([("i", None, ...)], "i: expected a list of node ids"),
            ([("anchors", None, {"0": 2})], "anchors: expected a list of node ids"),
            ([("num_nodes", None, True)],
             "num_nodes: expected an integer from 1 to 2**31 - 1, got True"),
            ([("num_nodes", None, 2**31)],
             "num_nodes: expected an integer from 1 to 2**31 - 1, got 2147483648"),
            # ids out of range
            ([("anchors", 0, 6)], "anchors[0]: node id 6 out of range"),
            ([("j", 0, -1)], "j[0]: node id -1 out of range"),
            ([("i", 5, 2**70)], f"i[5]: node id {2**70} out of range"),
            # self-loops and repeated edges, in either orientation
            ([("j", 3, 0)], "i[3], j[3]: self-loop at node 0"),
            ([("i", 7, 4), ("j", 7, 1)], "i[7], j[7]: repeated edge (4,1)"),
            ([("i", 11, 0), ("j", 11, 2)], "i[11], j[11]: repeated edge (0,2)"),
            # a repeated anchor, and an empty anchor list
            ([("anchors", 1, 2)], "anchors[1]: repeated anchor 2"),
            ([("anchors", None, []), ("anchor_pos", None, [])],
             "anchors: at least one anchor is required"),
            # non-finite and negative numbers
            ([("d", 5, math.nan)], "d[5]: expected a finite number, got nan"),
            ([("pos", 0, math.inf)], "pos[0]: expected a finite number, got inf"),
            ([("anchor_pos", 3, -math.inf)], "anchor_pos[3]: expected a finite number, got -inf"),
            ([("d", 5, -1.0)], "d[5]: expected a finite non-negative number, got -1.0"),
            # pos that differs from anchor_pos (node 4's second coordinate)
            ([("pos", 9, 0.5)], "pos[9]: differs from anchor_pos[3]"),
            # the first bad index of a column, whatever its faults
            ([("d", 8, math.nan), ("d", 2, -1.0)],
             "d[2]: expected a finite non-negative number, got -1.0"),
            ([("i", 9, "4"), ("i", 4, 9)], "i[4]: node id 9 out of range"),
            ([("i", 10, 2), ("j", 10, 0), ("i", 9, 2), ("j", 9, 0)],
             "i[9], j[9]: repeated edge (2,0)"),
            # the keys in schema order: anchors before positions before edges
            ([("d", 0, -1.0), ("i", 0, 0), ("pos", 1, "y"), ("anchors", 0, 9)],
             "anchors[0]: node id 9 out of range"),
        ],
        ids=["bool-anchor", "bool-i", "float-j", "string-pos", "string-d", "bool-anchor-pos",
             "huge-int-d", "short-anchor-pos", "short-pos", "short-j", "long-d", "no-i",
             "object-anchors", "bool-num-nodes", "huge-num-nodes", "anchor-out-of-range",
             "negative-j", "huge-i", "self-loop", "reversed-repeat", "repeat",
             "repeated-anchor", "no-anchor", "nan-d", "inf-pos", "minus-inf-anchor-pos",
             "negative-d", "pos-off-anchor", "first-in-d", "first-in-i",
             "first-repeat", "key-order"],
    )
    def test_fault_named(self, tmp_path, edits, message):
        doc = _schema_2_doc(tmp_path)
        for key, index, value in edits:
            doc = _edit(doc, key, index, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _outcome(load_network, path) == (ParseError, message)

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_mistyped_columns(self, tmp_path_factory, data):
        # any key given a value of another JSON type, or an entry of one, or
        # deleted: a ParseError, or a file that still loads
        root = tmp_path_factory.mktemp("mistyped")
        doc = _schema_2_doc(root)
        key = data.draw(st.sampled_from(sorted(doc)), label="key")
        value = st.sampled_from(sorted(JSON_KINDS)).flatmap(JSON_KINDS.get)
        if isinstance(doc[key], list) and doc[key] and data.draw(st.booleans(), label="entry"):
            index = data.draw(st.integers(0, len(doc[key]) - 1), label="index")
            doc = _edit(doc, key, index, data.draw(value, label="value"))
        else:
            doc = _edit(doc, key, None, data.draw(st.one_of(value, st.just(...)), label="value"))
        path = root / "net.json"
        path.write_text(json.dumps(doc))
        outcome = _outcome(load_network, path)
        assert outcome[0] in (ParseError, SchemaVersionMismatch) or len(outcome) == 7

    @FUZZ_SETTINGS
    @given(data=st.data())
    def test_truncated_or_flipped_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("flipped") / "net.json"
        save_network(path, *_valid_doc())
        valid = path.read_bytes()
        raw = bytearray(valid[: data.draw(st.integers(0, len(valid)), label="cut")])
        flips = st.tuples(st.integers(0, max(len(raw) - 1, 0)), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, max_size=4 if raw else 0), label="flips"):
            raw[pos] ^= mask
        path.write_bytes(bytes(raw))
        outcome = _outcome(load_network, path)
        assert outcome[0] in (ParseError, SchemaVersionMismatch) or len(outcome) == 7


class TestEdgeOrder:
    """Both readers order a file's edges only when the file does not list
    them in edge-list order."""

    @staticmethod
    def count_orders(monkeypatch):
        calls = []
        pair_order = network_module._pair_order

        def counted(first, second, limit):
            calls.append(len(first))
            return pair_order(first, second, limit)

        monkeypatch.setattr(network_module, "_pair_order", counted)
        return calls

    @pytest.mark.parametrize("writer", [save_network, json_save_network],
                             ids=["schema-2", "schema-1"])
    def test_edge_list_order_takes_no_sort(self, tmp_path, monkeypatch, writer):
        graph, truth, meas = _reference_108()
        path = tmp_path / "net.json"
        writer(path, graph, truth, meas)
        calls = self.count_orders(monkeypatch)
        _, _, loaded = load_network(path)
        # one sort of the 2E directed edges, in NetworkGraph.build, and none of the E edges
        assert calls == [graph.sum_degree]
        assert loaded.d.tobytes() == meas.d.tobytes()

    @pytest.mark.parametrize("schema", [1, 2])
    def test_other_orders_are_sorted(self, tmp_path, monkeypatch, schema):
        graph, _, meas = _reference_108()
        path = tmp_path / "net.json"
        (json_save_network if schema == 1 else save_network)(path, graph, measurements=meas)
        doc = json.loads(path.read_text())
        if schema == 1:
            doc["edges"][:2] = doc["edges"][1::-1]
        else:
            for key in ("i", "j", "d"):
                doc[key][:2] = doc[key][1::-1]
        path.write_text(json.dumps(doc))
        calls = self.count_orders(monkeypatch)
        _, _, loaded = load_network(path)
        assert calls == [len(graph.edge_list), graph.sum_degree]
        assert loaded.d.tobytes() == meas.d.tobytes()


# -- the ranges' own text ------------------------------------------------------


def _spellings(x: float) -> list[str]:
    """JSON spellings of the non-negative float ``x``: its repr, the same
    digits with an exponent (``1e-1``, ``1E-1``), with trailing zeros, and
    as an integer when ``x`` is one (``-0.0`` then becomes ``0``)."""
    short = repr(x)
    exponent = format(Decimal(short), "e")
    out = [short, exponent, exponent.upper()]
    if "e" not in short:
        out.append(short + "000")
    if x.is_integer():
        out.append(str(int(x)))
    return out


RANGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.5, 5e-324, 1e-310, 2.0**53 + 2, 1e308]),
    st.floats(0.0, 10.0),
)

# what may come after the range column's member, or before it; the first
# three leave d the document's last key
EXTRAS = [None, "d repeated just before", "decoy", "key after d", "d first", "d repeated first"]


@st.composite
def range_files(draw):
    """A valid schema-2 file of a random graph, ranges spelled in any of
    ``_spellings``, edges in edge-list order or shuffled, each in either
    orientation, laid out one key per line as ``save_network`` writes, with
    ``d`` on the line of the key before it, or on one line as ``json.dump``
    writes; possibly a key after ``d``, ``d`` before ``i``, a repeated
    ``d`` (just before the last one, or before ``anchors``), or an earlier
    member holding a nested ``\\n "d": [``. Returns the text, the instance's ranges and
    truth, and the text of ``d`` that ``load_network`` should keep, or
    ``None`` where one of its conditions fails."""
    graph, _, rng = draw(graphs(max_nodes=8))
    edges = graph.edge_list
    spelled = [draw(st.sampled_from(_spellings(x)))
               for x in draw(st.lists(RANGE_VALUES, min_size=len(edges), max_size=len(edges)))]
    # each file breaks at most one of the layout's conditions for keeping
    # the text; the edge order, the spellings, the orientation and the
    # whitespace before and inside the array vary on their own
    broken = draw(st.sampled_from([None, "layout", "last key", "end"]))
    order = list(range(len(edges)))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    i = [edges[k][flip] for k, flip in zip(order, flips)]
    j = [edges[k][1 - flip] for k, flip in zip(order, flips)]
    sep = draw(st.sampled_from([", ", ",", " ,  ", ",\n  "]))
    lead = draw(st.sampled_from(["", " ", "\n  "]))
    tail = " " if broken == "end" else ""
    d_text = lead + "[" + sep.join(spelled[k] for k in order) + "]" + tail
    members = [
        ('"schema_version"', "2"), ('"dim"', str(graph.dim)), ('"num_nodes"', str(graph.num_nodes)),
        ('"anchors"', json.dumps(graph.anchor_idx.tolist())),
        ('"anchor_pos"', json.dumps(graph.anchor_pos.ravel().tolist())),
        ('"i"', json.dumps(i)), ('"j"', json.dumps(j)),
    ]
    extra = draw(st.sampled_from(EXTRAS[3:] if broken == "last key" else EXTRAS[:3]))
    early = {"d first": ('"d"', d_text), "d repeated first": ('"d"', "[true]"),
             "decoy": ('"note"', '{\n "d": [0.5]}')}
    if extra in early:
        members.insert(3, early[extra])
    if extra == "d repeated just before":
        members.append(('"d"', '[null, "x"]'))
    if extra != "d first":
        members.append(('"d"', d_text))
    if extra == "key after d":
        members.append(('"x"', "0"))
    entries = [f"{key}: {value}" for key, value in members]
    layout = draw(st.sampled_from(["d joined", "json.dump"])) if broken == "layout" else "lines"
    if layout == "json.dump":
        text = "{" + ", ".join(entries) + "}"
    elif layout == "d joined":
        text = "{\n " + ",\n ".join(entries[:-1]) + ", " + entries[-1] + "\n}\n"
    else:
        text = "{\n " + ",\n ".join(entries) + "\n}\n"

    kept = (
        layout == "lines"  # the text ends "\n}\n" and d follows "\n "
        and extra in EXTRAS[:3]  # d is the last key
        and tail == ""  # the text ends "]\n}\n"
        and order == sorted(order)  # the edges come in edge-list order
    )
    ranges = np.array([float(json.loads(s)) for s in spelled])
    positions = rng.uniform(-1.0, 1.0, (graph.num_nodes, graph.dim))
    positions[graph.anchor_idx] = graph.anchor_pos
    return text, ranges, GroundTruth(positions), d_text if kept else None


def _d_line(path) -> str:
    """The text of a network file from its range column's key to its end."""
    text = path.read_text()
    return text[text.rindex('"d": '):]


class TestRangeText:
    """``load_network`` keeps the text of a schema-2 file's ranges when the
    file proves it, and ``save_network`` writes that text again: for every
    file locadmm writes the same bytes, for any other file the same floats."""

    @PROPERTY_SETTINGS
    @given(range_files())
    def test_estimates_repeat_the_ranges(self, tmp_path_factory, case):
        text, ranges, truth, kept = case
        root = tmp_path_factory.mktemp("ranges")
        (root / "net.json").write_text(text)
        graph, _, meas = load_network(root / "net.json")
        assert meas.d.tobytes() == ranges.tobytes()
        assert meas._d_text == kept  # kept exactly when the file's layout proves it
        save_network(root / "est.json", graph, truth, meas)
        spelled = json.dumps(ranges.tolist()) if kept is None else kept
        assert _d_line(root / "est.json") == f'"d": {spelled}\n}}\n'
        again = load_network(root / "est.json")
        assert again[2].d.tobytes() == ranges.tobytes()
        # the estimates file is one locadmm wrote: it is written again byte for byte
        save_network(root / "again.json", *again)
        assert (root / "again.json").read_bytes() == (root / "est.json").read_bytes()

    @PROPERTY_SETTINGS
    @given(graphs(), st.booleans(), st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e308, 0.1])))
    def test_saved_files_are_written_again_byte_for_byte(self, tmp_path_factory, instance,
                                                         with_truth, specials):
        graph, meas, rng = instance
        d = meas.d.copy()
        d[:len(specials)] = specials[:d.size]
        truth = None
        if with_truth:
            positions = rng.uniform(-1.0, 1.0, (graph.num_nodes, graph.dim))
            positions[graph.anchor_idx] = graph.anchor_pos
            truth = GroundTruth(positions)
        root = tmp_path_factory.mktemp("again")
        save_network(root / "net.json", graph, truth, MeasurementSet(graph, d))
        loaded = load_network(root / "net.json")
        assert loaded[2]._d_text is not None
        save_network(root / "again.json", *loaded)
        assert (root / "again.json").read_bytes() == (root / "net.json").read_bytes()
        assert _d_line(root / "again.json") == f'"d": {json.dumps(d.tolist())}\n}}\n'

    def test_an_integer_range_is_repeated_as_written(self, tmp_path):
        # the estimates file spelled it 1.0
        graph, truth, meas = _valid_doc()
        save_network(tmp_path / "net.json", graph, truth, meas)
        text = (tmp_path / "net.json").read_text()
        start = text.index('"d": [') + len('"d": [')
        text = text[:start] + "1" + text[text.index(",", start):]
        (tmp_path / "int.json").write_text(text)
        graph, _, meas = load_network(tmp_path / "int.json")
        assert meas.d[0] == 1.0
        save_network(tmp_path / "est.json", graph, truth, meas)
        assert _d_line(tmp_path / "est.json") == _d_line(tmp_path / "int.json")
        assert _d_line(tmp_path / "est.json").startswith('"d": [1, ')

    def test_sets_not_read_from_a_file_are_spelled_by_repr(self, tmp_path):
        graph, truth, meas = _reference_108()
        assert meas._d_text is None
        save_network(tmp_path / "net.json", graph, truth, meas)
        assert _d_line(tmp_path / "net.json") == f'"d": {json.dumps(meas.d.tolist())}\n}}\n'
        copy = MeasurementSet(graph, load_network(tmp_path / "net.json")[2].d)
        assert copy._d_text is None
