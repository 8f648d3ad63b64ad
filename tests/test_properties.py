"""Property tests: the edge-array solvers and diagnostics against their
specifications.

Over random connected graphs (dimension 2 and 3, down to two nodes, with
degree-1 leaves, and up to every node but one anchored), ``run_full`` must
reproduce ``local_halfstep -> gather_inbox -> combine_z -> update_u ->
update_lambda`` and ``run_lite`` must reproduce ``step_lite`` and
``full_view``, bit for bit at every iteration, from iteration-zero states
built node by node as below (and ``run_full`` also from blocks off the
consensus set). Along the way the combined replicas satisfy the consensus
constraint bitwise, every direction row stays in the unit ball, and
anchors stay pinned. The diagnostics and the consensus projection must
match the dense oracle on random states. From every start an init spec
builds, the two solvers agree within criterion 1's tolerance, and both keep
the exchange and storage accounting of criterion 7. The trace recorder
gives the same trace whether it reads the solvers' stacked states or
per-node state lists built by the spec. A grid of cells run as one batched
solve gives every cell the final state, rmse and F of its own run, bit for
bit, and masks exactly the cells whose own run diverges. Every view a
solver or a grid batch yields carries the ``p`` its iteration gathered to
the edges, bit-equal to ``p`` repeated by degree and never written, and a
recorder reads it as it reads views that gather ``p`` themselves. The coefficients
a measurement set holds for the solvers are never stale, never written,
built only as a solver reads them, and go with the set; the set knows
whether every coefficient it built is finite. The finite checks name the
same divergence as a per-entry scan, and pass finite fields whose squares
overflow. Runs guarded by floating-point flags, from starts holding values
near the float max or not finite, and grids with cells whose coefficients
are not finite or whose iterations raise flags, end as runs that scan every
iterate end: the same divergence, the same masked cells, the same bits;
an iterate is scanned when it is a call's first, when a coefficient is not
finite, and from the first iteration that raises a flag on. On a one-node graph
whose node is its anchor, with no edge to exchange on, every solver returns
the anchor and follows its spec.
"""

import gc
import math
import weakref
from argparse import Namespace
from dataclasses import fields, is_dataclass, replace
from functools import cached_property

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locadmm import diagnostics as dg
from locadmm import engine, grid, oracle
from locadmm.engine import IterationEvent, check_finite, finite_copies
from locadmm.errors import NonFiniteValue
from locadmm.harness import execute_run
from locadmm.network import GroundTruth, MeasurementSet, NetworkGraph
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
from locadmm.solver_lite import (
    LiteNodeState,
    LiteStates,
    full_view,
    run_lite,
    serialize_state,
    step_lite,
)
from locadmm.structured_ops import (
    EdgeBlocks,
    EdgeCoefficients,
    EdgeStates,
    NodeBlockVector,
    PenaltyParams,
    project_ball,
    project_consensus,
)

from conftest import graphs, outcome, scanning_every_iterate, with_rows

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    """A random connected instance, penalties, an init spec and a length."""
    graph, meas, rng = draw(graphs())
    n, dim = graph.num_nodes, graph.dim
    params = PenaltyParams(draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0)))
    spec = InitSpec(
        kind=draw(st.sampled_from(("zeros", "uniform", "from_positions"))),
        lo=-1.0,
        hi=1.5,
        positions=rng.uniform(-1.0, 1.0, (n, dim)),
        u_init=draw(st.sampled_from(("zeros", "half", "directions"))),
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


def reference_positions(graph, spec, seed):
    """The start positions: the given map, the origin, or one uniform draw
    per node."""
    if spec.kind == "from_positions":
        return spec.positions
    if spec.kind == "zeros":
        return np.zeros((graph.num_nodes, graph.dim))
    return np.random.default_rng(seed).uniform(spec.lo, spec.hi, (graph.num_nodes, graph.dim))


def reference_init_full(graph, spec, seed):
    """Iteration-zero full states node by node: the consensus blocks at the
    start positions, directions along them, zero duals."""
    pos = reference_positions(graph, spec, seed)
    u0 = reference_u(spec, graph, pos)
    return [FullNodeState(b, u, np.zeros_like(u)) for b, u in zip(consensus_blocks(pos, graph), u0)]


def reference_init_lite(graph, meas, spec, seed, c):
    """Iteration-zero lite states node by node from the start positions."""
    pos = reference_positions(graph, spec, seed)
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
    # from the spec's consensus start, and from explicit blocks off the
    # consensus set
    graph, meas, params, spec, seed, iters = inst
    c, rho = params.c, params.rho
    d_node = meas.node_ranges(graph)
    nodes = range(graph.num_nodes)
    explicit = random_states(np.random.default_rng(seed), graph)
    for init, states in ((spec, reference_init_full(graph, spec, seed)), (explicit, explicit)):
        events = []
        result = run_full(graph, meas, params, init, iters, seed=seed, hook=events.append)
        assert_same_bits(events[0].states, states)
        for t in range(1, iters + 1):
            zt = [local_halfstep(states[i], d_node[i], c, graph.anchors.get(i)) for i in nodes]
            z = [
                combine_z(
                    zt[i], gather_inbox(zt, graph, i), c, node=i, neighbors=graph.neighbors[i]
                )
                for i in nodes
            ]
            states = [
                FullNodeState(
                    z[i],
                    update_u(states[i], z[i], d_node[i], rho),
                    update_lambda(states[i], z[i], c),
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
        head = run_full(graph, meas, params, init, 1, seed=seed).states
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
    assert isinstance(result.states, LiteStates)
    assert_same_bits(result.states, states)
    assert result.estimates.tobytes() == np.stack([s.p for s in states]).tobytes()

    # an explicit start (list or tuple) and a resumed run (from the stacked
    # states or a tuple of their views) follow the same trajectory
    assert_same_bits(run_lite(graph, meas, params, start, iters).states, states)
    assert_same_bits(run_lite(graph, meas, params, tuple(start), iters).states, states)
    head = run_lite(graph, meas, params, spec, 1, seed=seed).states
    assert isinstance(head, LiteStates)
    if iters > 1:
        assert_same_bits(run_lite(graph, meas, params, head, iters - 1).states, states)
        assert_same_bits(run_lite(graph, meas, params, tuple(head), iters - 1).states, states)


def test_edgeless_anchor_graph_returns_the_anchor():
    """One node, which is its anchor, and no edge: every solver returns the
    anchor, records finite metrics on the way, and follows its per-node
    spec, whose exchange is empty."""
    graph = NetworkGraph.build(2, 1, {0: [0.3, 0.4]}, [])
    meas = MeasurementSet(graph, [])
    params, spec, iters = PenaltyParams(0.5, 0.7), InitSpec(), 3
    c, rho = params.c, params.rho
    anchor = np.array([[0.3, 0.4]])
    empty = np.zeros((0, 2))
    states = [LiteNodeState(np.zeros(2), empty, empty, empty, empty, meas.node_ranges(graph)[0])]
    views = [full_view(states, None, graph, c)]
    for _ in range(iters):
        prev, states = states, step_lite(states, graph, c, rho)
        views.append(full_view(states, prev, graph, c))
    assert states[0].p.tobytes() == anchor[0].tobytes()

    metrics = ("S", "U", "P", "F", "L")
    for runner in (run_full, run_lite):
        events = []
        result = runner(graph, meas, params, spec, iters, hook=events.append)
        assert result.estimates.tobytes() == anchor.tobytes()
        assert len(events) == len(views)
        recorder = dg.TraceRecorder(graph, meas, params, metrics=metrics)
        for event, view in zip(events, views):
            assert_same_bits(event.states, view)
            recorder(event)
        rows = recorder.trace.rows
        assert all(getattr(row, m) is not None for row in rows[1:] for m in metrics)
        assert all(
            math.isfinite(getattr(row, m))
            for row in rows for m in metrics if getattr(row, m) is not None
        )
    for algo in ("full", "lite"):
        (run,) = grid.run_grid(algo, graph, meas, [(params, 0)], spec, iters)
        assert run.result.estimates.tobytes() == anchor.tobytes()
        assert_same_bits(run.result.states, views[-1] if algo == "full" else states)
        assert all(math.isfinite(row.F) for row in run.result.trace.rows[1:])

    # the full spec steps the anchor too, with an empty inbox
    events, d_node = [], meas.node_ranges(graph)
    run_full(graph, meas, params, spec, iters, hook=events.append)
    full = reference_init_full(graph, spec, 0)
    assert_same_bits(events[0].states, full)
    for event in events[1:]:
        zt = [local_halfstep(full[0], d_node[0], c, graph.anchors.get(0))]
        z = combine_z(zt[0], gather_inbox(zt, graph, 0), c)
        full = [FullNodeState(z, update_u(full[0], z, d_node[0], rho), update_lambda(full[0], z, c))]
        assert_same_bits(event.ztilde, zt)
        assert_same_bits(event.states, full)


def arrays_of(x):
    """Every array a state, event or sequence of them holds, in field order."""
    if isinstance(x, np.ndarray):
        return [x]
    if is_dataclass(x):
        return [a for f in fields(x) for a in arrays_of(getattr(x, f.name))]
    if isinstance(x, (list, tuple)):
        return [a for y in x for a in arrays_of(y)]
    return []


def contents(x):
    return [(a.shape, a.tobytes()) for a in arrays_of(x)]


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(["full", "lite"]))
def test_solvers_never_write_arrays_they_share(inst, algo):
    """The solvers update temporaries in place, but never an array a caller
    gave them, a hook was handed or a result holds; and neither a hook nor
    running in chunks moves the iterates by a bit."""
    graph, meas, params, spec, seed, iters = inst
    runner = run_full if algo == "full" else run_lite
    positions = spec.positions.copy()
    head = runner(graph, meas, params, spec, 1, seed=seed).states
    assert spec.positions.tobytes() == positions.tobytes()

    # resuming, from the stacked states or a tuple of their views
    held = contents(head)
    for start in (head, tuple(head)):
        bare = runner(graph, meas, params, start, iters)
        assert contents(head) == held
    events, seen = [], []

    def hook(event):
        events.append(event)
        seen.append(contents(event))

    hooked = runner(graph, meas, params, head, iters, hook=hook)
    assert [contents(e) for e in events] == seen
    assert contents(head) == held
    assert contents(hooked.states) == contents(bare.states)
    assert hooked.estimates.tobytes() == bare.estimates.tobytes()

    # one run of iters iterations, or iters runs of one
    states = head
    for _ in range(iters):
        states = runner(graph, meas, params, states, 1).states
    assert contents(states) == contents(bare.states)
    whole = runner(graph, meas, params, spec, iters + 1, seed=seed)
    assert contents(whole.states) == contents(bare.states)


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


@st.composite
def matched_instances(draw):
    """An instance with penalties in criterion 1's range; both solvers
    build every start from its init spec alike."""
    graph, meas, _, spec, seed, iters = draw(instances())
    params = PenaltyParams(draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0)))
    return graph, meas, params, spec, seed, iters


@PROPERTY_SETTINGS
@given(matched_instances())
def test_full_and_lite_agree_from_matched_start(inst):
    graph, meas, params, spec, seed, iters = inst
    full, lite = [], []
    run_full(graph, meas, params, spec, iters, seed=seed, hook=full.append)
    run_lite(graph, meas, params, spec, iters, seed=seed, hook=lite.append)
    assert len(full) == len(lite) == iters + 1
    for ev_f, ev_l in zip(full, lite):
        # criterion 1's measure: (p, u, lam) gaps over 1 + the largest value
        f, l = ev_f.states, ev_l.states
        pairs = [(f.blocks.p, l.blocks.p), (f.u, l.u), (f.lam, l.lam)]
        scale = 1.0 + max(np.abs(a).max(initial=0.0) for a, _ in pairs)
        assert max(np.abs(a - b).max(initial=0.0) for a, b in pairs) / scale < 1e-9


@PROPERTY_SETTINGS
@given(instances())
def test_exchange_and_storage_accounting(inst):
    graph, meas, params, spec, seed, iters = inst
    per_iter = 2 * graph.dim * graph.sum_degree
    for runner in (run_full, run_lite):
        events = []
        result = runner(graph, meas, params, spec, iters, seed=seed, hook=events.append)
        assert [e.comm_scalars for e in events] == [0] + [per_iter] * iters
    assert isinstance(result.states, LiteStates)
    stored = sum(serialize_state(s, params.c, params.rho).size for s in result.states)
    assert stored == sum(4 * graph.dim * k + k + 3 for k in graph.degrees)


def spec_events(graph, meas, params, spec, seed, iters, algo):
    """Hook events as ``perfbench/traced.py`` builds them: per-node state
    lists from the per-node spec, passed positionally."""
    c, rho = params.c, params.rho
    nodes = range(graph.num_nodes)
    comm = 2 * graph.dim * graph.sum_degree
    if algo == "lite":
        states = reference_init_lite(graph, meas, spec, seed, c)
        events = [IterationEvent(0, full_view(states, None, graph, c), None, None, 0)]
        for t in range(1, iters + 1):
            prev, states = states, step_lite(states, graph, c, rho)
            view = full_view(states, prev, graph, c)
            events.append(IterationEvent(t, view, events[-1].states, None, comm))
        return events
    d_node = meas.node_ranges(graph)
    states = reference_init_full(graph, spec, seed)
    events = [IterationEvent(0, states, None, None, 0)]
    for t in range(1, iters + 1):
        zt = [local_halfstep(states[i], d_node[i], c, graph.anchors.get(i)) for i in nodes]
        z = [combine_z(zt[i], gather_inbox(zt, graph, i), c) for i in nodes]
        prev, states = states, [
            FullNodeState(z[i], update_u(s, z[i], d_node[i], rho), update_lambda(s, z[i], c))
            for i, s in zip(nodes, states)
        ]
        events.append(IterationEvent(t, states, prev, zt, comm))
    return events


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(["full", "lite"]))
def test_recorder_reads_stacked_and_per_node_states_alike(inst, algo):
    graph, meas, params, spec, seed, iters = inst
    runner = run_full if algo == "full" else run_lite

    def recorder():
        return dg.TraceRecorder(
            graph, meas, params, truth=GroundTruth(spec.positions),
            metrics=("rmse", "S", "U", "P", "F", "L", "potential"),
            potential_coeffs=(3.0, 5.0), metadata={"algorithm": algo},
        )

    solver_fed, spec_fed = recorder(), recorder()
    runner(graph, meas, params, spec, iters, seed=seed, hook=solver_fed)
    for event in spec_events(graph, meas, params, spec, seed, iters, algo):
        spec_fed(event)
    assert solver_fed.trace.to_csv_text() == spec_fed.trace.to_csv_text()


def unseeded(blocks):
    """``blocks`` rebuilt from its arrays, its ``p_src`` not yet formed."""
    return EdgeBlocks(blocks.offsets, blocks.p, blocks.z_minus, blocks.z_plus)


def views_of(event):
    """The blocks of an event's view, and its half-step blocks if any."""
    return [event.states.blocks] + ([] if event.ztilde is None else [event.ztilde])


def assert_gathered(blocks, seeded):
    """``blocks.p_src`` is ``p`` repeated by degree, bit for bit, and was
    handed in by its maker when ``seeded``."""
    assert ("p_src" in vars(blocks)) == seeded
    want = np.repeat(blocks.p, np.diff(blocks.offsets), axis=0)
    assert blocks.p_src.shape == want.shape and blocks.p_src.tobytes() == want.tobytes()


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(["full", "lite"]))
def test_views_carry_the_gathered_p(inst, algo):
    """Every view after iteration 0 (and every half-step block) holds the
    ``p`` its iteration gathered, never written afterwards; a recorder fed
    these views records what it records from views rebuilt without it."""
    graph, meas, params, spec, seed, iters = inst
    runner = run_full if algo == "full" else run_lite

    def recorder():
        return dg.TraceRecorder(
            graph, meas, params, truth=GroundTruth(spec.positions),
            metrics=("rmse", "S", "U", "P", "F", "L", "potential"),
            potential_coeffs=(3.0, 5.0), metadata={"algorithm": algo},
        )

    seeded_fed, rebuilt_fed = recorder(), recorder()
    events, gathered = [], []

    def hook(event):
        for blocks in views_of(event):
            assert_gathered(blocks, seeded=event.t > 0)
        gathered.append([b.p_src.tobytes() for b in views_of(event)])
        events.append(event)
        seeded_fed(event)

    runner(graph, meas, params, spec, iters, seed=seed, hook=hook)
    assert len(events) == iters + 1 and all(e.ztilde is None for e in events) == (algo == "lite")
    prev = None
    for event, held in zip(events, gathered):
        assert [b.p_src.tobytes() for b in views_of(event)] == held
        now = EdgeStates(unseeded(event.states.blocks), event.states.u, event.states.lam)
        half = None if event.ztilde is None else unseeded(event.ztilde)
        rebuilt_fed(IterationEvent(event.t, now, prev, half, event.comm_scalars))
        prev = now
    assert seeded_fed.trace.to_csv_text() == rebuilt_fed.trace.to_csv_text()


@PROPERTY_SETTINGS
@given(instances(), st.sampled_from(["full", "lite"]), st.integers(1, 3))
def test_grid_batch_views_carry_the_gathered_p(inst, algo, copies):
    graph, meas, params, spec, seed, iters = inst
    cells = [(params, seed + k) for k in range(copies)]
    drive, seen = grid.drive, []

    def spy(steps, iters, check, record):
        def checked(t, now, half):
            for blocks in [now.blocks] + ([half] if algo == "full" else []):
                if t:  # the t = 0 view is the batch's consensus start, not a gather
                    assert_gathered(blocks, seeded=True)
            seen.append(t)
            record(t, now, half)

        return drive(steps, iters, check, checked)

    grid.drive = spy
    try:
        list(grid.run_grid(algo, graph, meas, cells, spec, iters))
    finally:
        grid.drive = drive
    assert seen == list(range(iters + 1))


@st.composite
def grids(draw):
    """An instance, a solver, 1-4 cells with distinct c, rho and seed (and
    maybe one more at c = 1e308, which diverges), and a batch budget: one
    cell per batch, a few, or all in one."""
    graph, meas, _, spec, _, iters = draw(instances())
    algo = draw(st.sampled_from(["full", "lite"]))
    n = draw(st.integers(1, 4))
    values = st.floats(0.01, 2.0)
    cells = list(zip(
        draw(st.lists(values, min_size=n, max_size=n, unique=True)),
        draw(st.lists(values, min_size=n, max_size=n, unique=True)),
        draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True)),
    ))
    if draw(st.booleans()):
        cells.insert(draw(st.integers(0, n)), (1e308, draw(values), draw(st.integers(0, 1000))))
    budget = draw(st.sampled_from([1, 2 * graph.sum_degree, grid.GRID_ROWS]))
    return graph, meas, spec, algo, cells, iters, budget


@PROPERTY_SETTINGS
@given(grids())
def test_grid_cells_are_their_own_runs(inst):
    graph, meas, spec, algo, cells, iters, budget = inst
    truth = GroundTruth(spec.positions)
    kind = "truth" if spec.kind == "from_positions" else spec.kind
    args = Namespace(algo=algo, iters=iters, init=kind, init_lo=spec.lo, init_hi=spec.hi,
                     u0=spec.u_init, rho_scale=1.0)
    init = replace(spec, positions=spec.positions if kind == "truth" else None)
    before, grid.GRID_ROWS = grid.GRID_ROWS, budget
    try:
        runs = list(grid.run_grid(
            algo, graph, meas, [(PenaltyParams(c, rho), seed) for c, rho, seed in cells],
            init, iters, truth=truth,
        ))
    finally:
        grid.GRID_ROWS = before
    assert [(run.params.c, run.params.rho, run.seed) for run in runs] == cells
    for (c, rho, seed), run in zip(cells, runs):
        try:
            own = execute_run(graph, truth, meas, args, c=c, rho=rho, seed=seed,
                              metrics=("rmse", "F"))
        except NonFiniteValue:
            assert run.result is None
            continue
        assert c != 1e308 and run.result is not None
        assert_same_bits([own.states], [run.result.states])
        assert own.estimates.tobytes() == run.result.estimates.tobytes()
        assert [(r.t, repr(r.rmse), repr(r.F), r.comm_scalars) for r in own.trace.rows] == [
            (r.t, repr(r.rmse), repr(r.F), r.comm_scalars) for r in run.result.trace.rows
        ]


def held(graph, meas, params):
    """The coefficients the solvers hold on ``meas`` at ``params``."""
    return EdgeCoefficients.held(meas, graph, meas.edge_ranges(graph), params.c, params.rho)


def coefficient_arrays(coef):
    return [a for a in (coef.d, coef.d_rho, coef.denom, coef.d_rho_scale) if a is not None]


@st.composite
def penalty_schedules(draw):
    """An instance, two penalty pairs (equal, sharing c or rho, or apart),
    and a schedule of 1-iteration calls, each naming a solver and a pair."""
    graph, meas, params, spec, seed, _ = draw(instances())
    other = draw(st.floats(0.01, 2.0))
    second = draw(st.sampled_from([
        params,
        PenaltyParams(params.c, other),
        PenaltyParams(other, params.rho),
        PenaltyParams(other, draw(st.floats(0.01, 2.0))),
    ]))
    calls = st.tuples(st.sampled_from(["full", "lite"]), st.integers(0, 1))
    return graph, meas, spec, seed, (params, second), draw(st.lists(calls, min_size=2, max_size=10))


@PROPERTY_SETTINGS
@given(penalty_schedules())
def test_held_coefficients_follow_solver_and_penalties(inst):
    # every call on the shared set equals the same call on a fresh copy of
    # it, so no call reads coefficients held for another solver or pair
    graph, meas, spec, seed, pairs, schedule = inst
    runners = {"full": run_full, "lite": run_lite}
    last = {}
    for algo, k in schedule:
        init = last.get((algo, k), spec)
        shared = runners[algo](graph, meas, pairs[k], init, 1, seed=seed)
        fresh = runners[algo](graph, MeasurementSet(graph, meas.d), pairs[k], init, 1, seed=seed)
        assert_same_bits([shared.states], [fresh.states])
        last[(algo, k)] = shared.states
    # both solvers read the one set held for the latest pair
    coef = held(graph, meas, pairs[k])
    for algo in runners:
        runners[algo](graph, meas, pairs[k], spec, 1, seed=seed)
        assert held(graph, meas, pairs[k]) is coef


COEFFICIENTS = ("d", "d_rho", "denom", "d_rho_scale", "c_e", "two_c", "c1", "scale", "c_scale")
READS = {
    "full": {"d", "d_rho", "denom", "c_e", "two_c", "c1"},
    "lite": {"d", "d_rho", "denom", "d_rho_scale", "c_e", "two_c", "scale", "c_scale"},
}


def built(coef):
    """The coefficients ``coef`` has built so far."""
    return set(vars(coef)) & set(COEFFICIENTS)


@PROPERTY_SETTINGS
@given(graphs(max_nodes=8))
def test_held_coefficients_are_read_only(inst):
    graph, meas, _ = inst
    assert {
        name for name, v in vars(EdgeCoefficients).items()
        if isinstance(v, cached_property) and not name.startswith("_")
    } == set(COEFFICIENTS)
    stacked = EdgeCoefficients(
        graph.stack(2), np.tile(meas.edge_ranges(graph), 2),
        np.array([0.3, 0.5]), np.array([0.2, 0.1]),
    )
    for coef in (held(graph, meas, PenaltyParams(0.3, 0.2)), stacked):
        arrays = [getattr(coef, name) for name in COEFFICIENTS]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert coef is not stacked or len(arrays) == len(COEFFICIENTS)
        for a in arrays:
            try:
                a[...] = 0.0
            except ValueError:
                continue
            raise AssertionError("a coefficient array took a write")


@PROPERTY_SETTINGS
@given(graphs(max_nodes=8), st.sampled_from(["full", "lite"]))
def test_solvers_build_only_the_coefficients_they_read(inst, algo):
    # the set held for both solvers builds each coefficient on first read
    graph, drawn, _ = inst
    meas, params = MeasurementSet(graph, drawn.d), PenaltyParams(0.3, 0.2)
    runners = {"full": run_full, "lite": run_lite}
    runners[algo](graph, meas, params, InitSpec(), 1)
    assert built(held(graph, meas, params)) == READS[algo]
    other = "lite" if algo == "full" else "full"
    runners[other](graph, meas, params, InitSpec(), 1)
    assert built(held(graph, meas, params)) == READS["full"] | READS["lite"]


@PROPERTY_SETTINGS
@given(graphs(max_nodes=8), st.sampled_from(["full", "lite"]))
def test_grid_batches_build_only_the_coefficients_their_solver_reads(inst, algo):
    graph, meas, _ = inst
    name = f"{algo}_steps"
    steps, seen = getattr(grid, name), []

    def spy(stacked, coef, start, views):
        seen.append(coef)
        return steps(stacked, coef, start, views)

    setattr(grid, name, spy)
    try:
        cells = [(PenaltyParams(0.3, 0.2), 0), (PenaltyParams(0.5, 0.1), 1)]
        list(grid.run_grid(algo, graph, meas, cells, InitSpec(kind="uniform"), 2))
    finally:
        setattr(grid, name, steps)
    assert len(seen) == 1 and built(seen[0]) == READS[algo]


@PROPERTY_SETTINGS
@given(graphs(max_nodes=8))
def test_held_coefficients_go_with_their_measurements(inst):
    graph, drawn, _ = inst
    meas = MeasurementSet(graph, drawn.d)
    params, spec = PenaltyParams(0.3, 0.2), InitSpec(kind="zeros", u_init="half")
    run_full(graph, meas, params, spec, 2)
    run_lite(graph, meas, params, spec, 2)
    coef = held(graph, meas, params)
    refs = [weakref.ref(x) for x in [meas, coef, *coefficient_arrays(coef)]]
    del meas, coef
    gc.collect()
    assert all(ref() is None for ref in refs)


@st.composite
def planted_fields(draw):
    """A graph's ``p`` and four edge fields, finite, some entries beyond
    1e154 so that their squares overflow, with up to three NaN or infinite
    values planted, each at a random field, row and column."""
    graph, _, rng = draw(graphs(max_nodes=8))
    n, e, dim = graph.num_nodes, graph.sum_degree, graph.dim
    fields = {
        name: rng.standard_normal((n if name == "p" else e, dim))
        for name in ("p", "u", "lam", "alpha", "beta")
    }
    if draw(st.booleans()):
        for a in fields.values():
            a[rng.random(a.shape) < 0.3] *= 1e200
    for bad in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3)):
        a = fields[draw(st.sampled_from(sorted(fields)))]
        a[draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, dim - 1))] = bad
    return graph.src, fields, draw(st.sampled_from([1, 2, 3, 300]))


def reference_finite_message(t, src, fields):
    """The per-entry scan: the lowest node holding a bad value, then its
    first bad field in argument order; ``None`` if every entry is finite."""
    first = None
    for k, (name, a) in enumerate(fields.items()):
        for row in range(a.shape[0]):
            for col in range(a.shape[1]):
                if not math.isfinite(a[row, col]):
                    node = row if name == "p" else int(src[row])
                    if first is None or (node, k) < first[:2]:
                        first = (node, k, name)
    return None if first is None else f"non-finite {first[2]} at node {first[0]}, iteration {t}"


@PROPERTY_SETTINGS
@given(planted_fields(), st.integers(1, 10**6))
def test_finite_checks_agree_with_per_entry_scan(inst, t):
    src, fields, copies = inst
    want = reference_finite_message(t, src, fields)
    if want is None:
        check_finite(t, src, **fields)
    else:
        try:
            check_finite(t, src, **fields)
        except NonFiniteValue as err:
            assert str(err) == want
        else:
            raise AssertionError(f"check_finite passed {want!r}")
    # the same fields stacked as copies, the planted values in one copy only
    holder = np.random.default_rng(t).integers(copies)
    stacked = {}
    for name, a in fields.items():
        clean = np.where(np.isfinite(a), a, 0.0)
        stacked[name] = np.concatenate([a if k == holder else clean for k in range(copies)])
    want_ok = np.ones(copies, dtype=bool)
    want_ok[holder] = want is None
    assert np.array_equal(finite_copies(copies, stacked.values()), want_ok)


@st.composite
def coefficient_tables(draw):
    """A table of coefficients, possibly stacked, with penalties and ranges
    that may make some of them NaN or infinite, and an order to read them in."""
    graph, meas, rng = draw(graphs(max_nodes=8))
    copies = draw(st.integers(1, 3))
    d = np.tile(meas.edge_ranges(graph), copies)
    if draw(st.booleans()) and d.size:
        d[draw(st.integers(0, d.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    penalty = st.sampled_from([0.1, 2.0, 1e308, 1e-300, 5e-324])
    c, rho = (np.array(draw(st.lists(penalty, min_size=copies, max_size=copies)))
              for _ in range(2))
    if copies == 1:
        c, rho = float(c[0]), float(rho[0])
    order = draw(st.permutations(COEFFICIENTS))
    return EdgeCoefficients(graph.stack(copies), d, c, rho), order


@PROPERTY_SETTINGS
@given(coefficient_tables())
def test_coefficients_know_whether_they_are_finite(inst):
    coef, order = inst
    assert coef.finite
    every = True
    for name in order:
        every = every and bool(np.isfinite(getattr(coef, name)).all())
        assert coef.finite == every


@PROPERTY_SETTINGS
@given(st.booleans(), st.lists(st.sampled_from(["clean", "flag", "silent"]), min_size=1, max_size=8))
def test_iterate_scans_the_first_iterate_and_every_one_from_a_flag(finite, plan):
    # a stand-in iteration: "flag" overflows in a ufunc, which raises under
    # the trap and gives inf when made again quietly; "silent" makes an inf
    # without a flag, which only a scan that runs anyway sees
    made = []

    def advance(k):
        made.append(k)
        x = np.array([1e308])
        if plan[k] == "flag":
            x = x * 10.0
        elif plan[k] == "silent":
            x = np.array([np.inf])
        return (k + 1,), {"x": x}, None, None

    steps = engine.iterate("start", advance, (0,), finite)
    with np.errstate(**engine.TRAP):
        assert next(steps) == (None, "start", None, False)
        got = [next(steps) for _ in plan]
    flagged = next((k for k, step in enumerate(plan) if step == "flag"), len(plan))
    assert [scan for *_, scan in got] == [k == 0 or not finite or k >= flagged for k in range(len(plan))]
    assert [fields["x"][0] for fields, *_ in got] == [
        1e308 if step == "clean" else np.inf for step in plan
    ]
    # only the iteration that raised is made twice
    assert made == sorted([*range(len(plan)), *([flagged] if finite and flagged < len(plan) else [])])


@st.composite
def resumed_near_max(draw):
    """An instance, a solver, a length and a start resumed after 1-3
    iterations with one node's rows of some fields set near the float max,
    of either sign, or to a NaN or an infinity; rho may be large enough to
    keep the directions' squares finite while those values grow."""
    graph, meas, params, spec, seed, iters = draw(instances())
    algo = draw(st.sampled_from(["full", "lite"]))
    params = PenaltyParams(params.c, draw(st.sampled_from([params.rho, 1e100, 1e300])))
    runner = run_full if algo == "full" else run_lite
    states = runner(graph, meas, params, spec, draw(st.integers(1, 3)), seed=seed).states
    node = draw(st.integers(0, graph.num_nodes - 1))
    names = ("u", "lam") + (("z_minus", "z_plus") if algo == "full" else ("alpha", "beta"))
    big = st.floats(0.05e308, 1.75e308) | st.sampled_from([np.nan, np.inf])
    values = {
        name: draw(st.sampled_from([1.0, -1.0])) * draw(big)
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    }
    start = with_rows(states, slice(*graph.offsets[node:node + 2]), values)
    return lambda: runner(graph, meas, params, start, iters)


@PROPERTY_SETTINGS
@given(resumed_near_max())
def test_flag_guard_reports_what_a_scan_of_every_iterate_reports(solve):
    with scanning_every_iterate():
        want = outcome(solve)
    assert outcome(solve) == want


@PROPERTY_SETTINGS
@given(grids(), st.lists(st.sampled_from([1e-300, 1e300, None]), min_size=5, max_size=5))
def test_flag_guard_masks_the_cells_a_scan_of_every_iterate_masks(inst, rhos):
    # cells at c = 1e308 diverge; at rho = 1e-300 every iteration raises a
    # flag, at 1e300 the directions barely move
    graph, meas, spec, algo, cells, iters, _ = inst
    cells = [(PenaltyParams(c, rho if new is None else new), seed)
             for (c, rho, seed), new in zip(cells, rhos)]

    def solve():
        runs = grid.run_grid(algo, graph, meas, cells, spec, iters)
        return [None if run.result is None else outcome(lambda: run.result) for run in runs]

    with scanning_every_iterate():
        want = solve()
    assert solve() == want
