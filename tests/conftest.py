import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from locadmm import engine, grid, solver_full
from locadmm.errors import NonFiniteValue
from locadmm.network import GroundTruth, MeasurementSet, NetworkGraph
from locadmm.solver_lite import LiteStates
from locadmm.structured_ops import EdgeStates


def make_graph(dim, edges, anchors, num_nodes=None):
    """Small hand-built graph; anchors maps id -> position."""
    if num_nodes is None:
        num_nodes = max(max(e) for e in edges) + 1
    return NetworkGraph.build(dim, num_nodes, anchors, edges)


def exact_measurements(graph, positions):
    """Noise-free ranges from a position array."""
    pos = np.asarray(positions, dtype=float)
    return MeasurementSet.from_pairs(
        graph,
        {(i, j): float(np.linalg.norm(pos[i] - pos[j])) for i, j in graph.edge_list},
    )


def random_connected_graph(rng, num_nodes, dim=2, num_anchors=1, extra_edges=0.3):
    """Random spanning tree plus extra edges; anchors at random ids."""
    positions = rng.uniform(0.0, 1.0, (num_nodes, dim))
    edges = set()
    order = rng.permutation(num_nodes)
    for k in range(1, num_nodes):
        j = order[k]
        i = order[int(rng.integers(0, k))]
        edges.add((min(int(i), int(j)), max(int(i), int(j))))
    want_extra = int(extra_edges * num_nodes)
    for _ in range(want_extra):
        i, j = rng.integers(0, num_nodes, 2)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    anchor_ids = rng.permutation(num_nodes)[:num_anchors]
    anchors = {int(a): positions[int(a)] for a in anchor_ids}
    graph = NetworkGraph.build(dim, num_nodes, anchors, edges)
    return graph, GroundTruth(positions)


@st.composite
def graphs(draw, max_nodes=12):
    """A random connected graph with noisy ranges, and a seeded generator
    for further draws."""
    n = draw(st.integers(2, max_nodes))
    dim = draw(st.sampled_from([2, 3]))
    # a random tree (its leaves have degree 1) plus a few extra edges
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    node = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(node, node), max_size=n)):
        if i != j:
            edges.add((min(i, j), max(i, j)))
    num_anchors = draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = rng.uniform(0.0, 1.0, (n, dim))
    anchors = {int(a): truth[a] for a in rng.permutation(n)[:num_anchors]}
    graph = NetworkGraph.build(dim, n, anchors, edges)
    meas = MeasurementSet.from_pairs(
        graph,
        {
            (i, j): max(float(np.linalg.norm(truth[i] - truth[j])) + rng.normal(0.0, 0.05), 0.0)
            for i, j in graph.edge_list
        },
    )
    return graph, meas, rng


@pytest.fixture
def triangle():
    """Zero-noise triangle: two anchors, one free node, exact ranges."""
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.8]])
    graph = make_graph(
        2,
        [(0, 1), (0, 2), (1, 2)],
        {0: positions[0], 1: positions[1]},
    )
    truth = GroundTruth(positions)
    return graph, truth, exact_measurements(graph, positions)


@contextlib.contextmanager
def scanning_every_iterate():
    """Both solvers (``solver_full.run_steps`` drives each) and grid
    batches scanning every iterate, as a table of non-finite coefficients
    makes them: the reference the floating-point flags must match."""

    def scanning(steps, iters, check, record, finite):
        return engine.drive(steps, iters, check, record, False)

    modules = (solver_full, grid)
    saved = [module.drive for module in modules]
    for module in modules:
        module.drive = scanning
    try:
        yield
    finally:
        for module, drive in zip(modules, saved):
            module.drive = drive


def state_fields(states) -> dict:
    """The arrays of an ``EdgeStates`` or a ``LiteStates``, by name."""
    if isinstance(states, LiteStates):
        return {name: getattr(states, name) for name in ("p", "u", "lam", "alpha", "beta", "d")}
    b = states.blocks
    return {"p": b.p, "z_minus": b.z_minus, "z_plus": b.z_plus, "u": states.u, "lam": states.lam}


def with_rows(states, rows, values: dict):
    """``states`` with copies of the edge fields named in ``values``, each
    with ``rows`` set to its value."""

    def put(a, value):
        a = a.copy()
        a[rows] = value
        return a

    if isinstance(states, LiteStates):
        return dataclasses.replace(states, **{k: put(getattr(states, k), v) for k, v in values.items()})
    edge = {k: put(a, values[k]) if k in values else a for k, a in state_fields(states).items()}
    blocks = dataclasses.replace(states.blocks, z_minus=edge["z_minus"], z_plus=edge["z_plus"])
    return EdgeStates(blocks, edge["u"], edge["lam"])


def outcome(solve):
    """What ``solve()`` ends in: its ``NonFiniteValue`` message, or the bytes
    of its final state, field by field."""
    try:
        result = solve()
    except NonFiniteValue as err:
        return str(err)
    return {name: a.tobytes() for name, a in state_fields(result.states).items()}
