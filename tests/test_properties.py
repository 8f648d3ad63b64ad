"""Property tests: the edge-array solvers and diagnostics against their
specifications.

Over random connected graphs (dimension 2 and 3, down to two nodes, with
degree-1 leaves, and up to every node but one anchored), ``run_full`` must
reproduce ``local_halfstep -> gather_inbox -> combine_z -> update_u ->
update_lambda`` and ``run_lite`` must reproduce ``step_lite`` and
``full_view``, bit for bit at every iteration, from iteration-zero states
built node by node as below. Along the way the combined replicas satisfy
the consensus constraint bitwise, every direction row stays in the unit
ball, and anchors stay pinned. The diagnostics and the consensus projection
must match the dense oracle on random states.
"""

from dataclasses import fields, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locadmm import diagnostics as dg
from locadmm import oracle
from locadmm.network import MeasurementSet, NetworkGraph
from locadmm.solver_full import (
    FullNodeState,
    InitSpec,
    combine_z,
    consensus_blocks,
    gather_inbox,
    local_halfstep,
    run_full,
    update_lambda,
    update_u,
)
from locadmm.solver_lite import LiteNodeState, full_view, run_lite, step_lite
from locadmm.structured_ops import (
    NodeBlockVector,
    PenaltyParams,
    project_ball,
    project_consensus,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
    meas = MeasurementSet(
        {
            (i, j): max(float(np.linalg.norm(truth[i] - truth[j])) + rng.normal(0.0, 0.05), 0.0)
            for i, j in graph.edge_list
        }
    )
    return graph, meas, rng


@st.composite
def instances(draw):
    """A random connected instance, penalties, an init spec and a length."""
    graph, meas, rng = draw(graphs())
    n, dim = graph.num_nodes, graph.dim
    params = PenaltyParams(draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0)))
    spec = InitSpec(
        kind=draw(st.sampled_from(InitSpec.KINDS)),
        lo=-1.0,
        hi=1.5,
        positions=rng.uniform(-1.0, 1.0, (n, dim)),
        u_init=draw(st.sampled_from(InitSpec.U_KINDS)),
    )
    return graph, meas, params, spec, draw(st.integers(0, 1000)), draw(st.integers(1, 12))


def assert_same_bits(a, b):
    """Equal lists of state dataclasses, every array equal byte for byte."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for f in fields(x):
            va, vb = getattr(x, f.name), getattr(y, f.name)
            if is_dataclass(va):
                assert_same_bits([va], [vb])
            else:
                assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), f.name


def reference_directions(pos, graph):
    rows = []
    for i, nbrs in enumerate(graph.neighbors):
        u = np.zeros((len(nbrs), graph.dim))
        for k, j in enumerate(nbrs):
            diff = pos[i] - pos[j]
            norm = float(np.linalg.norm(diff))
            if norm > 0.0:
                u[k] = diff / norm
        rows.append(u)
    return rows


def reference_u(spec, graph, pos):
    if spec.u_init == "directions":
        return reference_directions(pos, graph)
    fill = 0.5 if spec.u_init == "half" else 0.0
    return [np.full((len(nbrs), graph.dim), fill) for nbrs in graph.neighbors]


def reference_init_full(graph, spec, seed):
    """Iteration-zero full states node by node; uniform draws walk the nodes
    in order (p, then the z^- rows, then the z^+ rows)."""
    if spec.kind == "from_positions":
        blocks = consensus_blocks(spec.positions, graph)
    elif spec.kind == "zeros":
        blocks = [NodeBlockVector.zeros(len(nbrs), graph.dim) for nbrs in graph.neighbors]
    else:
        rng = np.random.default_rng(seed)
        blocks = [
            NodeBlockVector(
                rng.uniform(spec.lo, spec.hi, graph.dim),
                rng.uniform(spec.lo, spec.hi, (len(nbrs), graph.dim)),
                rng.uniform(spec.lo, spec.hi, (len(nbrs), graph.dim)),
            )
            for nbrs in graph.neighbors
        ]
    u0 = reference_u(spec, graph, spec.positions)
    return [FullNodeState(b, u, np.zeros_like(u)) for b, u in zip(blocks, u0)]


def reference_init_lite(graph, meas, spec, seed, c):
    """Iteration-zero lite states node by node from the start positions:
    the given map, the origin, or one uniform draw per node."""
    if spec.kind == "from_positions":
        pos = spec.positions
    elif spec.kind == "zeros":
        pos = np.zeros((graph.num_nodes, graph.dim))
    else:
        pos = np.random.default_rng(seed).uniform(spec.lo, spec.hi, (graph.num_nodes, graph.dim))
    u0 = reference_u(spec, graph, pos)
    d_node = meas.node_ranges(graph)
    states = []
    for i, nbrs in enumerate(graph.neighbors):
        x_i = pos[i]
        x_nbr = np.stack([pos[j] for j in nbrs])
        du = d_node[i][:, None] * u0[i]
        states.append(
            LiteNodeState(
                p=x_i.copy(),
                u=u0[i],
                lam=np.zeros_like(u0[i]),
                alpha=c * (x_i[None, :] + np.tile(x_i, (len(nbrs), 1))),
                beta=-du + x_i[None, :] + x_nbr,
                d=d_node[i],
            )
        )
    return states


def assert_invariants(states, graph):
    """Consensus bitwise, direction rows in the unit ball, anchors pinned."""
    for i, nbrs in enumerate(graph.neighbors):
        for k, j in enumerate(nbrs):
            r = graph.rev_pos[i][k]
            assert states[i].block.z_plus[k].tobytes() == states[j].block.z_minus[r].tobytes()
        assert np.sqrt((states[i].u ** 2).sum(axis=1)).max() <= 1.0 + 1e-12
    for a, pos in graph.anchors.items():
        assert states[a].block.p.tobytes() == pos.tobytes()


@PROPERTY_SETTINGS
@given(instances())
def test_run_full_matches_per_node_spec(inst):
    graph, meas, params, spec, seed, iters = inst
    c, rho = params.c, params.rho
    d_node = meas.node_ranges(graph)
    nodes = range(graph.num_nodes)
    events = []
    result = run_full(graph, meas, params, spec, iters, seed=seed, hook=events.append)

    states = reference_init_full(graph, spec, seed)
    assert_same_bits(events[0].states, states)
    for t in range(1, iters + 1):
        zt = [local_halfstep(states[i], d_node[i], c, graph.anchors.get(i)) for i in nodes]
        z = [
            combine_z(zt[i], gather_inbox(zt, graph, i), c, node=i, neighbors=graph.neighbors[i])
            for i in nodes
        ]
        states = [
            FullNodeState(
                z[i], update_u(states[i], z[i], d_node[i], rho), update_lambda(states[i], z[i], c)
            )
            for i in nodes
        ]
        assert_same_bits(events[t].ztilde, zt)
        assert_same_bits(events[t].states, states)
        assert events[t].states_prev is events[t - 1].states
        assert_invariants(events[t].states, graph)
    assert_same_bits(result.states, states)
    assert result.estimates.tobytes() == np.stack([s.block.p for s in states]).tobytes()

    # resuming from returned states continues the same trajectory
    head = run_full(graph, meas, params, spec, 1, seed=seed).states
    if iters > 1:
        assert_same_bits(run_full(graph, meas, params, head, iters - 1).states, states)


@PROPERTY_SETTINGS
@given(instances())
def test_run_lite_matches_per_node_spec(inst):
    graph, meas, params, spec, seed, iters = inst
    c, rho = params.c, params.rho
    events = []
    result = run_lite(graph, meas, params, spec, iters, seed=seed, hook=events.append)

    start = reference_init_lite(graph, meas, spec, seed, c)
    states, prev = start, None
    assert_same_bits(events[0].states, full_view(states, None, graph, c))
    for t in range(1, iters + 1):
        prev, states = states, step_lite(states, graph, c, rho)
        assert_same_bits(events[t].states, full_view(states, prev, graph, c))
        assert events[t].states_prev is events[t - 1].states
        assert_invariants(events[t].states, graph)
    assert_same_bits(result.states, states)
    assert result.estimates.tobytes() == np.stack([s.p for s in states]).tobytes()

    # an explicit start and a resumed run follow the same trajectory
    assert_same_bits(run_lite(graph, meas, params, start, iters).states, states)
    head = run_lite(graph, meas, params, spec, 1, seed=seed).states
    if iters > 1:
        assert_same_bits(run_lite(graph, meas, params, head, iters - 1).states, states)


def random_states(rng, graph):
    """Full node states with normal entries and ball-feasible directions."""
    return [
        FullNodeState(
            NodeBlockVector(
                rng.normal(size=graph.dim),
                rng.normal(size=(k, graph.dim)),
                rng.normal(size=(k, graph.dim)),
            ),
            project_ball(rng.normal(size=(k, graph.dim))),
            rng.normal(size=(k, graph.dim)),
        )
        for k in map(len, graph.neighbors)
    ]


@PROPERTY_SETTINGS
@given(graphs(max_nodes=8), st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(1.0, 100.0))
def test_diagnostics_match_dense_oracle(inst, c, rho, kappa):
    graph, meas, rng = inst
    d_node = meas.node_ranges(graph)
    dense = oracle.build_dense(graph, meas, c)
    now, prev, half = (random_states(rng, graph) for _ in range(3))
    ztilde = [s.block for s in half]
    k1, k2 = kappa, 3.0 * kappa

    def close(got, want):
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def sq(v):
        return float(v @ v)

    flat = [s.block.to_flat() for s in now]
    qz = [q @ z for q, z in zip(dense.Q, flat)]
    az = [a @ z for a, z in zip(dense.A, flat)]
    du = [(a.u - b.u).ravel() for a, b in zip(now, prev)]
    grad = [
        dense.Q[i].T @ qz[i] - dense.Q[i].T @ dense.D[i] @ s.u.ravel() + dense.A[i].T @ s.lam.ravel()
        for i, s in enumerate(now)
    ]
    lagrangian = sum(
        0.5 * sq(qz[i])
        - float(s.u.ravel() @ (dense.D[i] @ qz[i]))
        + float(s.lam.ravel() @ az[i])
        + 0.5 * c * sq(az[i])
        for i, s in enumerate(now)
    )
    close(dg.stationarity_gap(now, graph, d_node), sum(map(sq, grad)))
    close(dg.feasibility_gap(now), sum(map(sq, az)))
    close(dg.primal_diff_gap([s.u for s in now], [s.u for s in prev]), sum(map(sq, du)))
    close(dg.augmented_lagrangian(now, d_node, c), lagrangian)

    shifted = [
        NodeBlockVector.from_flat(z - g, len(nbrs), graph.dim)
        for z, g, nbrs in zip(flat, grad, graph.neighbors)
    ]
    want = oracle.solve_z_subproblem_dense(shifted, c, graph, weighted=False)
    for got, ref in zip(project_consensus(shifted, graph), want):
        ref = ref.to_flat()
        assert np.abs(got.to_flat() - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())
    gap = sum(sq(z - w.to_flat()) + sq(r) + sq(v) for z, w, r, v in zip(flat, want, az, du))
    close(dg.optimality_gap(now, [s.u for s in prev], graph, d_node), gap)

    extra = 0.0
    for i in range(graph.num_nodes):
        dz = flat[i] - prev[i].block.to_flat()
        extra += 0.5 * c * (
            k1 * sq(dense.A[i] @ ztilde[i].to_flat())
            + k2 * sq(az[i])
            + (rho / (2.0 * c)) * sq(du[i])
            + (k1 + k2) * float(dz @ (dense.cBtB[i] / c) @ dz)
        )
    close(dg.potential(now, prev, ztilde, d_node, k1, k2, c, rho), lagrangian + extra)
