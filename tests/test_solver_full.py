import dataclasses
import weakref

import numpy as np
import pytest

from locadmm import grid, oracle, solver_full, solver_lite
from locadmm import structured_ops as ops
from locadmm import engine
from locadmm.engine import check_finite, finite_copies
from locadmm.diagnostics import MetricPass, TraceRecorder
from locadmm.errors import (
    DisconnectedGraph,
    InvalidInit,
    InvalidInitSpec,
    InvalidParameter,
    MissingMessage,
    NonFiniteValue,
)
from locadmm.network import (
    GroundTruth,
    MeasurementSet,
    NetworkGraph,
    NoiseModel,
    generate_rgg,
    measure,
    rmse,
)
from locadmm.solver_full import (
    EdgeMessage,
    FullNodeState,
    InitSpec,
    combine_z,
    consensus_blocks,
    gather_inbox,
    init_full,
    local_halfstep,
    run_full,
    start_positions,
    update_lambda,
    update_u,
)
from locadmm.solver_lite import init_lite, run_lite
from locadmm.structured_ops import EdgeCoefficients, NodeBlockVector, PenaltyParams

from conftest import (
    exact_measurements,
    make_graph,
    outcome,
    random_connected_graph,
    scanning_every_iterate,
    with_rows,
)


def random_states(rng, graph):
    states = []
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        states.append(
            FullNodeState(
                NodeBlockVector(
                    rng.normal(size=graph.dim),
                    rng.normal(size=(k, graph.dim)),
                    rng.normal(size=(k, graph.dim)),
                ),
                ops.project_ball(rng.normal(size=(k, graph.dim))),
                rng.normal(size=(k, graph.dim)),
            )
        )
    return states


class TestInit:
    def test_zeros(self):
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        states = init_full(graph, InitSpec(kind="zeros"), seed=0)
        for st in states:
            assert np.all(st.block.to_flat() == 0.0)
            assert np.all(st.u == 0.0)
            assert np.all(st.lam == 0.0)

    def test_from_positions_feasible(self, triangle):
        graph, truth, _ = triangle
        states = init_full(
            graph, InitSpec(kind="from_positions", positions=truth.positions), seed=0
        )
        # consensus and zero self-replica residual at start
        for i, st in enumerate(states):
            assert np.all(ops.apply_A(st.block) == 0.0)
            for k, j in enumerate(graph.neighbors[i]):
                r = graph.rev_pos[i][k]
                assert np.array_equal(st.block.z_plus[k], states[j].block.z_minus[r])

    def test_uniform_bounds_and_determinism(self):
        graph = make_graph(2, [(0, 1), (1, 2), (0, 2)], {0: [0.0, 0.0]})
        spec = InitSpec(kind="uniform", lo=-1.0, hi=1.0)
        a = init_full(graph, spec, seed=9)
        b = init_full(graph, spec, seed=9)
        c = init_full(graph, spec, seed=10)
        assert np.array_equal(a.blocks.p, b.blocks.p)
        assert not np.array_equal(a.blocks.p, c.blocks.p)
        assert a.blocks.p.shape == (3, 2)
        assert a.blocks.p.min() >= -1.0 and a.blocks.p.max() <= 1.0
        # one draw per node, and the replicas are its consensus copies
        for i, st in enumerate(a):
            assert np.all(ops.apply_A(st.block) == 0.0)
            for k, j in enumerate(graph.neighbors[i]):
                assert np.array_equal(st.block.z_plus[k], a.blocks.p[j])

    def test_u_half(self):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        states = init_full(graph, InitSpec(kind="zeros", u_init="half"), seed=0)
        assert np.all(states[0].u == 0.5)

    @pytest.mark.parametrize(
        "spec",
        [
            InitSpec(kind="gaussian"),
            InitSpec(kind="from_positions"),
            InitSpec(kind="zeros", u_init="ones"),
            InitSpec(kind="uniform", lo=1.0, hi=-1.0),
        ],
    )
    def test_invalid_specs(self, spec):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        with pytest.raises(InvalidInitSpec):
            init_full(graph, spec, seed=0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "^start position of node 5 is not finite$"),
            (-np.inf, "^start position of node 5 is not finite$"),
            ("x", "^positions must be numbers$"),
        ],
    )
    def test_start_that_is_not_finite_numbers_is_refused(self, bad, message):
        # refused before any iteration, not reported as a divergence at
        # another node or a non-finite metric, nor masked as a diverged cell
        graph, truth = generate_rgg(20, 3, 0.5, seed=1)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=1)
        positions = truth.positions.astype(object if isinstance(bad, str) else float)
        positions[5, 1] = bad
        spec = InitSpec(kind="from_positions", positions=positions, u_init="directions")
        params = PenaltyParams(0.1, 0.1)
        recorder = TraceRecorder(graph, meas, params, metrics=("S", "F"))
        for runner in (run_full, run_lite):
            for hook in (None, recorder):
                with pytest.raises(InvalidInit, match=message):
                    runner(graph, meas, params, spec, 3, hook=hook)
        for algo in ("full", "lite"):
            with pytest.raises(InvalidInit, match=message):
                list(grid.run_grid(algo, graph, meas, [(params, 0)], spec, 3))
        with pytest.raises(InvalidInit, match=message):
            init_lite(graph, positions, "directions", 0.1, meas)

    def test_start_of_the_other_solver_is_refused(self, triangle):
        # each solver names the states it resumes from, stacked or per node,
        # before any iteration; the other solver's states raised
        # AttributeError from inside the stacking
        graph, _, meas = triangle
        params, spec = PenaltyParams(0.1, 0.1), InitSpec(kind="uniform", u_init="half")
        full = run_full(graph, meas, params, spec, 2).states
        lite = run_lite(graph, meas, params, spec, 2).states
        events = []
        for runner, other, message in (
            (run_full, lite, "EdgeStates or a FullNodeState per node, got LiteNodeState"),
            (run_lite, full, "LiteStates or a LiteNodeState per node, got FullNodeState"),
        ):
            for start in (other, list(other)):
                with pytest.raises(InvalidInit, match=f"^expected {message}$"):
                    runner(graph, meas, params, start, 3, hook=events.append)
        assert not events

    def test_directions_from_the_origin_are_zero(self):
        # every node starts at the origin, so no direction has a length
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        states = init_full(graph, InitSpec(kind="zeros", u_init="directions"), seed=0)
        assert states.u.shape == (4, 2) and np.all(states.u == 0.0)


class TestLocalHalfstep:
    def test_hand_value(self):
        # c=1, one neighbor, scalars: u=0, lam=0, p=0, z^-=0, z^+=2, d=1
        state = FullNodeState(
            NodeBlockVector(np.array([0.0]), np.array([[0.0]]), np.array([[2.0]])),
            np.array([[0.0]]),
            np.array([[0.0]]),
        )
        out = local_halfstep(state, np.array([1.0]), 1.0)
        assert out.p == pytest.approx([0.5])
        assert out.z_minus == pytest.approx(np.array([[0.0]]))
        assert out.z_plus == pytest.approx(np.array([[1.0]]))

    def test_anchor_override(self):
        rng = np.random.default_rng(0)
        state = FullNodeState(
            NodeBlockVector(rng.normal(size=2), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))),
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
        )
        anchor = np.array([5.0, -3.0])
        out = local_halfstep(state, np.array([1.0, 2.0]), 0.8, anchor=anchor)
        assert np.array_equal(out.p, anchor)

    def test_matches_operator_composition(self):
        # half-step == W^{-1}(Q^T D u - A^T lam + cB^T B z)
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            c = float(rng.uniform(0.05, 3.0))
            d = rng.uniform(0.1, 1.0, k)
            state = FullNodeState(
                NodeBlockVector(
                    rng.normal(size=2), rng.normal(size=(k, 2)), rng.normal(size=(k, 2))
                ),
                rng.normal(size=(k, 2)),
                rng.normal(size=(k, 2)),
            )
            lhs = local_halfstep(state, d, c)
            qtd = ops.apply_Qt_D(state.u, d)
            at = ops.apply_At(state.lam)
            bb = ops.apply_cBtB(state.block, c)
            rhs = ops.apply_W_inverse(
                NodeBlockVector(
                    qtd.p - at.p + bb.p,
                    qtd.z_minus - at.z_minus + bb.z_minus,
                    qtd.z_plus - at.z_plus + bb.z_plus,
                ),
                c,
            )
            assert np.abs(lhs.to_flat() - rhs.to_flat()).max() < 1e-12


class TestCombine:
    def test_symmetric_average(self):
        zt = NodeBlockVector(np.zeros(2), np.array([[2.0, 0.0]]), np.zeros((1, 2)))
        msg = EdgeMessage(1, 0, payload_minus=np.zeros(2), payload_plus=np.array([0.0, 2.0]))
        out = combine_z(zt, [msg], 1.0)
        assert out.z_minus == pytest.approx(np.array([[1.0, 1.0]]))

    def test_missing_message(self):
        zt = NodeBlockVector(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(MissingMessage):
            combine_z(zt, [], 1.0)

    def test_misaddressed_message(self):
        zt = NodeBlockVector(np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2)))
        msg = EdgeMessage(7, 0, np.zeros(2), np.zeros(2))
        with pytest.raises(MissingMessage):
            combine_z(zt, [msg], 1.0, node=0, neighbors=(1,))

    def test_cross_edge_bitwise_consistency(self):
        rng = np.random.default_rng(2)
        graph, truth = random_connected_graph(rng, 8, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        states = random_states(rng, graph)
        c = 0.7
        ztilde = [
            local_halfstep(states[i], d_node[i], c, graph.anchors.get(i))
            for i in range(8)
        ]
        combined = [
            combine_z(ztilde[i], gather_inbox(ztilde, graph, i), c) for i in range(8)
        ]
        for i in range(8):
            for k, j in enumerate(graph.neighbors[i]):
                r = graph.rev_pos[i][k]
                assert np.array_equal(combined[i].z_plus[k], combined[j].z_minus[r])

    def test_matches_dense_weighted_projection(self):
        rng = np.random.default_rng(3)
        for num_nodes in (2, 3, 4, 5):
            graph, truth = random_connected_graph(rng, num_nodes, num_anchors=1)
            c = float(rng.uniform(0.1, 2.0))
            for _ in range(20):
                ztilde = []
                for i in range(num_nodes):
                    k = len(graph.neighbors[i])
                    blk = NodeBlockVector(
                        rng.normal(size=2),
                        rng.normal(size=(k, 2)),
                        rng.normal(size=(k, 2)),
                    )
                    if i in graph.anchors:
                        blk.p[:] = graph.anchors[i]  # the half-step pins anchors
                    ztilde.append(blk)
                fast = [
                    combine_z(ztilde[i], gather_inbox(ztilde, graph, i), c)
                    for i in range(num_nodes)
                ]
                solved = oracle.solve_z_subproblem_dense(ztilde, c, graph, weighted=True)
                for a, b in zip(fast, solved):
                    assert np.abs(a.to_flat() - b.to_flat()).max() < 1e-10


class TestUpdates:
    def test_u_radial_projection(self):
        state = FullNodeState(
            NodeBlockVector(np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2))),
            np.zeros((1, 2)),
            np.zeros((1, 2)),
        )
        z_new = NodeBlockVector(
            np.array([3.0, 4.0]), np.zeros((1, 2)), np.zeros((1, 2))
        )
        out = update_u(state, z_new, np.array([1.0]), 1.0)
        assert out == pytest.approx(np.array([[0.6, 0.8]]))

    def test_u_fixed_point(self):
        rng = np.random.default_rng(4)
        u = ops.project_ball(rng.normal(size=(3, 2)))
        p = rng.normal(size=2)
        state = FullNodeState(
            NodeBlockVector(p, np.zeros((3, 2)), np.zeros((3, 2))), u, np.zeros((3, 2))
        )
        z_new = NodeBlockVector(p, np.zeros((3, 2)), np.tile(p, (3, 1)))
        out = update_u(state, z_new, rng.uniform(0.1, 1.0, 3), 0.5)
        assert np.abs(out - u).max() < 1e-15

    def test_u_matches_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            d = rng.uniform(0.1, 1.0, k)
            rho = float(rng.uniform(0.05, 2.0))
            state = FullNodeState(
                NodeBlockVector.zeros(k, 2),
                ops.project_ball(rng.normal(size=(k, 2))),
                np.zeros((k, 2)),
            )
            z_new = NodeBlockVector(
                rng.normal(size=2), rng.normal(size=(k, 2)), rng.normal(size=(k, 2))
            )
            got = update_u(state, z_new, d, rho)
            want = ops.project_ball(
                state.u + (d[:, None] / rho) * ops.apply_Q(z_new)
            )
            assert np.abs(got - want).max() < 1e-14

    def test_lambda_hand_value(self):
        state = FullNodeState(
            NodeBlockVector.zeros(1, 2), np.zeros((1, 2)), np.zeros((1, 2))
        )
        z_new = NodeBlockVector(
            np.array([1.0, -1.0]), np.zeros((1, 2)), np.zeros((1, 2))
        )
        out = update_lambda(state, z_new, 2.0)
        assert out == pytest.approx(np.array([[2.0, -2.0]]))

    def test_lambda_feasible_unchanged(self):
        rng = np.random.default_rng(6)
        lam = rng.normal(size=(2, 2))
        p = rng.normal(size=2)
        state = FullNodeState(NodeBlockVector.zeros(2, 2), np.zeros((2, 2)), lam)
        z_new = NodeBlockVector(p, np.tile(p, (2, 1)), np.zeros((2, 2)))
        assert np.array_equal(update_lambda(state, z_new, 1.3), lam)

    def test_lambda_telescopes(self):
        # with lam0 = 0: lam_t = c * sum_s A z_s, accumulated independently
        rng = np.random.default_rng(7)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        params = PenaltyParams(0.4, 0.3)
        spec = InitSpec(
            kind="uniform", lo=0.0, hi=1.0, u_init="zeros"
        )
        acc = [np.zeros_like(s.u) for s in init_full(graph, spec, seed=3)]
        seen = []

        def hook(event):
            if event.t == 0:
                return
            for i, st in enumerate(event.states):
                acc[i] += params.c * ops.apply_A(st.block)
            seen.append([(st.lam.copy()) for st in event.states])

        run_full(graph, meas, params, spec, 50, seed=3, hook=hook)
        for i in range(graph.num_nodes):
            assert np.abs(seen[-1][i] - acc[i]).max() < 1e-10


class TestRunFull:
    def test_zero_noise_triangle_stationary(self, triangle):
        graph, truth, meas = triangle
        spec = InitSpec(
            kind="from_positions", positions=truth.positions, u_init="directions"
        )
        feas = []

        def hook(event):
            feas.append(
                sum(float((ops.apply_A(s.block) ** 2).sum()) for s in event.states)
            )

        result = run_full(graph, meas, PenaltyParams(0.5, 0.5), spec, 50, hook=hook)
        assert max(feas) < 1e-28
        assert rmse(result.estimates, truth, graph) < 1e-12

    def test_trace_identical_across_thread_counts(self):
        rng = np.random.default_rng(8)
        graph, truth = random_connected_graph(rng, 20, num_anchors=3)
        meas = MeasurementSet.from_pairs(
            graph,
            {
                e: float(np.linalg.norm(truth.positions[e[0]] - truth.positions[e[1]]))
                for e in graph.edge_list
            },
        )
        spec = InitSpec(kind="uniform", lo=-1.0, hi=1.0, u_init="half")
        params = PenaltyParams(0.2, 0.2)
        snapshots = {}
        for threads in (1, 4, 8):
            history = []

            def hook(event):
                history.append(
                    np.concatenate(
                        [
                            np.concatenate(
                                [s.block.to_flat(), s.u.ravel(), s.lam.ravel()]
                            )
                            for s in event.states
                        ]
                    )
                )

            run_full(graph, meas, params, spec, 30, seed=5, hook=hook, threads=threads)
            snapshots[threads] = history
        for threads in (4, 8):
            for a, b in zip(snapshots[1], snapshots[threads]):
                assert np.array_equal(a, b)

    def test_ball_feasibility_every_iteration(self):
        rng = np.random.default_rng(9)
        graph, truth = random_connected_graph(rng, 10, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        worst = []

        def hook(event):
            for st in event.states:
                if st.u.size:
                    worst.append(float(np.linalg.norm(st.u, axis=1).max()))

        run_full(
            graph,
            meas,
            PenaltyParams(0.1, 0.05),
            InitSpec(kind="uniform", u_init="half"),
            100,
            seed=2,
            hook=hook,
        )
        assert max(worst) <= 1.0 + 1e-12

    def test_consensus_feasibility_after_combine(self):
        rng = np.random.default_rng(10)
        graph, truth = random_connected_graph(rng, 8, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)

        def hook(event):
            if event.t == 0:
                return
            states = event.states
            for i in range(graph.num_nodes):
                for k, j in enumerate(graph.neighbors[i]):
                    r = graph.rev_pos[i][k]
                    assert np.array_equal(
                        states[i].block.z_plus[k], states[j].block.z_minus[r]
                    )
            for a in graph.anchors:
                assert np.array_equal(states[a].block.p, graph.anchors[a])

        run_full(
            graph,
            meas,
            PenaltyParams(0.3, 0.3),
            random_states(rng, graph),  # off the consensus set
            20,
            hook=hook,
        )

    def test_subproblem_variational_inequality(self):
        # summed over nodes: <W (z_new - z~), v - z_new> >= 0 for feasible v
        rng = np.random.default_rng(11)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        c = 0.8
        states = random_states(rng, graph)
        ztilde = [
            local_halfstep(states[i], d_node[i], c, graph.anchors.get(i))
            for i in range(6)
        ]
        combined = [
            combine_z(ztilde[i], gather_inbox(ztilde, graph, i), c) for i in range(6)
        ]
        for _ in range(10):
            probe = rng.uniform(-2.0, 2.0, (6, 2))
            for a in graph.anchors:
                probe[a] = graph.anchors[a]
            feasible = consensus_blocks(probe, graph)
            total = 0.0
            for i in range(6):
                diff = NodeBlockVector(
                    combined[i].p - ztilde[i].p,
                    combined[i].z_minus - ztilde[i].z_minus,
                    combined[i].z_plus - ztilde[i].z_plus,
                )
                w_diff = ops.apply_W(diff, c)
                gap = NodeBlockVector(
                    feasible[i].p - combined[i].p,
                    feasible[i].z_minus - combined[i].z_minus,
                    feasible[i].z_plus - combined[i].z_plus,
                )
                total += float(w_diff.to_flat() @ gap.to_flat())
            assert total >= -1e-9

    def test_single_source_reduction(self):
        # one free node, all neighbors anchors, consistent state: the position
        # update collapses to the classical single-source step
        rng = np.random.default_rng(12)
        m = 4
        anchors_pos = rng.uniform(0, 1, (m, 2))
        center = rng.uniform(0, 1, 2)
        edges = [(0, j) for j in range(1, m + 1)]
        graph = make_graph(
            2, edges, {j + 1: anchors_pos[j] for j in range(m)}, num_nodes=m + 1
        )
        d = rng.uniform(0.3, 1.0, m)
        meas = MeasurementSet.from_pairs(graph, {(0, j + 1): float(d[j]) for j in range(m)})
        u = ops.project_ball(rng.normal(size=(m, 2)))
        lam = rng.normal(size=(m, 2))
        c = 0.6
        state = FullNodeState(
            NodeBlockVector(center, np.tile(center, (m, 1)), anchors_pos.copy()),
            u,
            lam,
        )
        out = local_halfstep(state, d, c)
        closed = np.zeros(2)
        for j in range(m):
            closed += anchors_pos[j] + (
                d[j] * u[j] + (2 * c + 1) * (center - anchors_pos[j]) - lam[j]
            ) / (2 * (c + 1))
        closed /= m
        assert np.abs(out.p - closed).max() < 1e-12

    def test_nonfinite_aborts(self, triangle):
        # an absurd feasibility penalty overflows within a few iterations;
        # the error names the iteration, the first bad node and its field
        graph, truth, meas = triangle
        spec = InitSpec(kind="uniform", u_init="half")
        for runner, where in (
            (run_full, "non-finite lam at node 1, iteration 1"),
            (run_lite, "non-finite u at node 0, iteration 1"),
        ):
            with pytest.raises(NonFiniteValue, match=f"^{where}$"):
                runner(graph, meas, PenaltyParams(1e308, 0.1), spec, 10, seed=0)

    @pytest.mark.parametrize("c", [0.1, 1e308], ids=["converging", "diverging"])
    @pytest.mark.parametrize(
        "state", [{}, {"over": "raise", "invalid": "raise", "divide": "raise"}, {"all": "call"}],
        ids=["default", "raising", "calling"],
    )
    def test_runs_keep_the_callers_error_state(self, monkeypatch, triangle, c, state):
        # The updates raise no NumPy warning, which pytest here turns into
        # errors, so a divergence must surface as NonFiniteValue alone;
        # the caller's error state, its error callback included, holds after
        # every run and inside hooks. A flag a hook raises is the caller's:
        # it reaches the caller's callback, and the run scans no more
        # iterates for it.
        graph, _, meas = triangle
        spec, params = InitSpec(kind="uniform", u_init="half"), PenaltyParams(c, 0.1)
        calling = state == {"all": "call"}
        in_hooks, flags, scanned = [], [], []

        def callback(kind, code):
            flags.append(kind)

        def hook(event):
            in_hooks.append((np.geterr(), np.geterrcall()))
            if calling:
                np.array([1e308]) * 10.0

        def counted(t, *args, **fields):
            scanned.append(t)
            return check_finite(t, *args, **fields)

        monkeypatch.setattr(solver_full, "check_finite", counted)
        with np.errstate(call=callback, **state):
            outer = np.geterr()
            for runner in (run_full, run_lite):
                for each in (None, hook):
                    scanned.clear()
                    try:
                        runner(graph, meas, params, spec, 10, seed=0, hook=each)
                        diverged = False
                    except NonFiniteValue:
                        diverged = True
                    assert diverged == (c == 1e308)
                    assert np.geterr() == outer and np.geterrcall() is callback
                    if not diverged:
                        assert scanned == [1]
            for algo in ("full", "lite"):
                (run,) = grid.run_grid(algo, graph, meas, [(params, 0)], spec, 10)
                assert (run.result is None) == (c == 1e308)
                assert np.geterr() == outer and np.geterrcall() is callback
        assert in_hooks and all(seen == (outer, callback) for seen in in_hooks)
        assert flags == ["overflow"] * (len(in_hooks) if calling else 0)

    def test_nonfinite_names_first_node_and_field(self):
        src = np.array([0, 1, 1, 2])
        p, u, lam = np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 2))
        check_finite(5, src, p, u=u, lam=lam)
        p[2, 1] = np.nan
        lam[1, 0] = np.inf
        with pytest.raises(NonFiniteValue, match="^non-finite lam at node 1, iteration 5$"):
            check_finite(5, src, p, u=u, lam=lam)
        u[2, 1] = -np.inf
        with pytest.raises(NonFiniteValue, match="^non-finite u at node 1, iteration 5$"):
            check_finite(5, src, p, u=u, lam=lam)

    def test_finite_values_whose_squares_overflow_pass(self):
        # finite entries whose squares overflow: a test of a field by its
        # self-dot a . a would read them as infinite
        src = np.array([0, 1, 1, 2])
        p, u, lam = np.full((3, 2), 1e200), np.full((4, 2), -1e200), np.full((4, 2), 1e200)
        check_finite(5, src, p, u=u, lam=lam)
        assert finite_copies(2, [u, lam]).all()

    def test_finite_checks_call_no_blas(self, monkeypatch):
        # a BLAS self-dot as the test of a field would spread past 10 000
        # entries over OpenBLAS threads, whose helpers spin
        calls = []

        def recording(name):
            blas = getattr(np, name)

            def called(*args, **kwargs):
                calls.append(name)
                return blas(*args, **kwargs)

            return called

        for name in ("vdot", "dot"):
            monkeypatch.setattr(np, name, recording(name))
        src = np.repeat(np.arange(1000), 17)[:16702]
        p, lam = np.ones((1000, 2)), np.ones((16702, 2))
        check_finite(1, src, p, lam=lam)
        assert finite_copies(2, [p, lam]).all()
        lam[-1, 1] = np.nan
        with pytest.raises(NonFiniteValue, match="^non-finite lam at node 982, iteration 1$"):
            check_finite(1, src, p, lam=lam)
        assert finite_copies(2, [p, lam]).tolist() == [True, False]
        assert calls == []

    def test_message_volume_per_node(self, triangle):
        graph, truth, meas = triangle
        states = init_full(
            graph, InitSpec(kind="from_positions", positions=truth.positions), 0
        )
        d_node = meas.node_ranges(graph)
        ztilde = [
            local_halfstep(states[i], d_node[i], 0.5, graph.anchors.get(i))
            for i in range(3)
        ]
        for i in range(3):
            inbox = gather_inbox(ztilde, graph, i)
            scalars = sum(m.payload_minus.size + m.payload_plus.size for m in inbox)
            assert scalars == 2 * graph.dim * len(graph.neighbors[i])

    def test_iters_validation(self, triangle):
        graph, truth, meas = triangle
        with pytest.raises(InvalidParameter):
            run_full(graph, meas, PenaltyParams(0.1, 0.1), InitSpec(kind="zeros"), 0)

    def test_state_list_rows_must_match_degrees(self, triangle):
        graph, _, meas = triangle
        states = list(init_full(graph, InitSpec(kind="zeros"), 0))
        states[1] = FullNodeState(states[1].block, states[1].u[:1], states[1].lam)
        with pytest.raises(InvalidInitSpec, match="^u rows do not match the node degrees$"):
            run_full(graph, meas, PenaltyParams(0.1, 0.1), states, 1)
        with pytest.raises(InvalidInitSpec, match="^z_minus rows"):
            run_full(graph, meas, PenaltyParams(0.1, 0.1), states[:2], 1)

    @pytest.mark.parametrize("runner", [run_full, run_lite])
    def test_stacked_states_of_another_graph_rejected(self, runner):
        # a star and a path on four nodes both have six edge rows
        star = make_graph(2, [(0, 1), (0, 2), (0, 3)], {0: [0.0, 0.0]})
        path = make_graph(2, [(0, 1), (1, 2), (2, 3)], {0: [0.0, 0.0]})
        params, spec = PenaltyParams(0.3, 0.2), InitSpec(u_init="half")
        pairs = {(0, 1): 1.0, (0, 2): 1.0, (0, 3): 1.0, (1, 2): 1.0, (2, 3): 1.0}
        states = runner(star, MeasurementSet.from_pairs(star, pairs), params, spec, 2).states
        path_ranges = MeasurementSet.from_pairs(path, pairs)
        with pytest.raises(InvalidInitSpec, match="^stacked rows do not match the node degrees$"):
            runner(path, path_ranges, params, states, 1)

    def test_resumes_from_returned_states(self, triangle):
        graph, _, meas = triangle
        params, spec = PenaltyParams(0.3, 0.2), InitSpec(kind="zeros", u_init="half")
        whole = run_full(graph, meas, params, spec, 5)
        head = run_full(graph, meas, params, spec, 2)
        tail = run_full(graph, meas, params, head.states, 3)
        assert tail.estimates.tobytes() == whole.estimates.tobytes()
        assert [s.u.tobytes() for s in tail.states] == [s.u.tobytes() for s in whole.states]


def dense_reference_admm(graph, meas, params, states0, iters):
    """Same three-step iteration with every piece done densely: diagonal
    solve for the half-step, KKT solve for the combine, explicit matrices
    for the direction and dual steps."""
    dense = oracle.build_dense(graph, meas, params.c)
    c, rho = params.c, params.rho
    dim = graph.dim
    blocks = [s.block.copy() for s in states0]
    u = [s.u.copy() for s in states0]
    lam = [s.lam.copy() for s in states0]
    trajectory = [[(b.p.copy(), a.copy(), l.copy()) for b, a, l in zip(blocks, u, lam)]]
    for _ in range(iters):
        ztilde = []
        for i in range(graph.num_nodes):
            k = len(graph.neighbors[i])
            rhs = (
                dense.Q[i].T @ dense.D[i] @ u[i].ravel()
                - dense.A[i].T @ lam[i].ravel()
                + dense.cBtB[i] @ blocks[i].to_flat()
            )
            zt = NodeBlockVector.from_flat(np.linalg.solve(dense.W[i], rhs), k, dim)
            if i in graph.anchors:
                zt.p[:] = graph.anchors[i]
            ztilde.append(zt)
        blocks = oracle.solve_z_subproblem_dense(ztilde, c, graph, weighted=True)
        new_u = []
        for i in range(graph.num_nodes):
            k = len(graph.neighbors[i])
            step = (dense.D[i] @ dense.Q[i] @ blocks[i].to_flat()).reshape(k, dim)
            new_u.append(ops.project_ball(u[i] + step / rho))
        u = new_u
        lam = [
            lam[i]
            + c * (dense.A[i] @ blocks[i].to_flat()).reshape(-1, dim)
            for i in range(graph.num_nodes)
        ]
        trajectory.append(
            [(b.p.copy(), a.copy(), l.copy()) for b, a, l in zip(blocks, u, lam)]
        )
    return trajectory


class TestOneLoop:
    """Every solve, single or a grid batch, advances in ``engine.drive``."""

    @staticmethod
    def instance():
        graph, truth = generate_rgg(20, 3, 0.5, seed=1)
        return graph, truth, measure(truth, graph, NoiseModel("additive-white", 0.01), seed=1)

    def test_every_solve_runs_one_drive(self, monkeypatch):
        graph, _, meas = self.instance()
        params, spec = PenaltyParams(0.1, 0.1), InitSpec(kind="uniform")
        calls = []

        def spy(*args):
            calls.append(args[1])
            return engine.drive(*args)

        for module in (solver_full, grid):
            monkeypatch.setattr(module, "drive", spy)
        for runner in (run_full, run_lite):
            for hook in (None, lambda event: None):
                calls.clear()
                runner(graph, meas, params, spec, 3, hook=hook)
                assert calls == [3]
        # a diverging cell is masked, not driven apart
        cells = [(params, 0), (PenaltyParams(1e308, 0.1), 1), (PenaltyParams(0.2, 0.1), 2)]
        for rows, batches in ((grid.GRID_ROWS, 1), (1, 3)):
            monkeypatch.setattr(grid, "GRID_ROWS", rows)
            for algo in ("full", "lite"):
                calls.clear()
                runs = list(grid.run_grid(algo, graph, meas, cells, spec, 3))
                assert [run.result is None for run in runs] == [False, True, False]
                assert calls == [3] * batches

    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_grid_keeps_only_the_previous_directions(self, monkeypatch, algo):
        # While the metric pass of iteration t runs, nothing of iterate t - 1
        # is alive but its directions, all that U and F read of it: holding
        # the whole previous view made sweep-108 grids 2.6-8.8% slower
        # (in-process A/B on a 2-core Xeon).
        graph, truth, meas = self.instance()
        metric_pass, seen, alive = MetricPass.__call__, [], []

        def spy(self, now, prev=None, half=None):
            if seen:
                z_minus, lam, u = seen[-1]
                alive.append((z_minus() is not None, lam() is not None, prev.u is u()))
            seen.append(tuple(map(weakref.ref, (now.blocks.z_minus, now.lam, now.u))))
            return metric_pass(self, now, prev, half)

        monkeypatch.setattr(MetricPass, "__call__", spy)
        cells = [(PenaltyParams(0.1, 0.1), 0), (PenaltyParams(0.2, 0.05), 1)]
        spec = InitSpec(kind="uniform", u_init="half")
        runs = list(grid.run_grid(algo, graph, meas, cells, spec, 5, truth=truth))
        assert all(run.result is not None for run in runs)
        assert len(seen) == 6 and alive == [(False, False, True)] * 5

    def test_every_solve_requires_an_anchor(self, triangle):
        # NetworkGraph.build refuses an empty anchor set; a connected graph
        # built by hand without anchors reaches the solvers' own check
        graph, _, meas = triangle
        bare = dataclasses.replace(
            graph, anchor_idx=np.zeros(0, dtype=np.intp), anchor_pos=np.zeros((0, 2))
        )
        assert bare.connected
        meas, params = MeasurementSet(bare, meas.d), PenaltyParams(0.1, 0.1)
        solves = [
            lambda: run_full(bare, meas, params, InitSpec(), 3),
            lambda: run_lite(bare, meas, params, InitSpec(), 3),
            lambda: grid.run_grid("lite", bare, meas, [(params, 0)], InitSpec(), 3),
        ]
        for solve in solves:
            with pytest.raises(DisconnectedGraph, match="^solver requires at least one anchor$"):
                solve()

    def test_every_solve_refuses_a_stacked_graph(self):
        # the copies a grid batch stacks are one graph, but not a connected one
        graph, _, meas = self.instance()
        stacked = graph.stack(2)
        meas, params = MeasurementSet(stacked, np.tile(meas.d, 2)), PenaltyParams(0.1, 0.1)
        solves = [
            lambda: run_full(stacked, meas, params, InitSpec(), 3),
            lambda: run_lite(stacked, meas, params, InitSpec(), 3),
            lambda: grid.run_grid("full", stacked, meas, [(params, 0)], InitSpec(), 3),
        ]
        for solve in solves:
            with pytest.raises(DisconnectedGraph, match="^solver requires a connected graph$"):
                solve()

    @pytest.mark.parametrize("algo", ["Full", "bogus", ""])
    def test_grid_refuses_an_unknown_solver(self, triangle, monkeypatch, algo):
        # it ran lite for any name but "full"
        graph, _, meas = triangle
        built = []
        monkeypatch.setattr(grid, "_run_batch", lambda *args: built.append(args) or iter(()))
        cells = [(PenaltyParams(0.1, 0.1), 0)]
        with pytest.raises(InvalidParameter, match=f"^algo must be 'full' or 'lite', got '{algo}'$"):
            grid.run_grid(algo, graph, meas, cells, InitSpec(), 3)
        assert not built

    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_grid_checks_its_arguments_when_called(self, algo):
        # run_grid was a generator function: none of these raised before
        # the first cell was drawn
        graph, _, meas = self.instance()
        cells = [(PenaltyParams(0.1, 0.1), 0), (PenaltyParams(0.2, 0.1), 1)]
        apart = make_graph(2, [(0, 1), (2, 3)], {0: np.zeros(2)})
        with pytest.raises(DisconnectedGraph, match="connected graph"):
            grid.run_grid(algo, apart, MeasurementSet(apart, [1.0, 1.0]), cells, InitSpec(), 3)
        with pytest.raises(InvalidParameter, match="iters must be >= 1, got 0"):
            grid.run_grid(algo, graph, meas, cells, InitSpec(), 0)
        other, _ = generate_rgg(20, 3, 0.5, seed=2)
        with pytest.raises(InvalidParameter, match="^measurements were taken on another graph$"):
            grid.run_grid(algo, other, meas, cells, InitSpec(), 3)
        for spec, error, message in [
            (InitSpec(kind="from_positions"), InvalidInit, "needs a positions array"),
            (InitSpec(kind="from_positions", positions=np.zeros((3, 2))), InvalidInit,
             r"positions shape \(3, 2\)"),
            (InitSpec(kind="uniform", lo=1.0, hi=1.0), InvalidInitSpec, "are empty or unbounded"),
            (InitSpec(kind="bogus"), InvalidInitSpec,
             "^init kind must be 'zeros', 'uniform' or 'from_positions', got 'bogus'$"),
            (InitSpec(u_init="bogus"), InvalidInitSpec,
             "^u_init must be 'zeros', 'half' or 'directions', got 'bogus'$"),
        ]:
            with pytest.raises(error, match=message):
                grid.run_grid(algo, graph, meas, cells, spec, 3)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (InitSpec("uniform", lo="a", hi="b"), "^lo must be a number, got 'a'$"),
            (InitSpec("uniform", lo=None), "^lo must be a number, got None$"),
            (InitSpec("uniform", hi=True), "^hi must be a number, got True$"),
            (InitSpec("uniform", lo=np.array([0.0, 1.0])), r"^lo must be a number, got array\("),
            (InitSpec(kind=np.array(["zeros", "uniform"])), r"^init kind must be .*, got array\("),
            (InitSpec(u_init=np.array(["zeros", "half"])), r"^u_init must be .*, got array\("),
        ],
        ids=["strings", "none", "true", "array-lo", "array-kind", "array-u_init"],
    )
    def test_init_spec_fields_must_be_what_they_name(self, spec, message):
        # the bounds raised raw TypeErrors or ValueErrors from their
        # comparison or the draw, an array kind or u_init a raw ValueError
        graph, _, meas = self.instance()
        params = PenaltyParams(0.1, 0.1)
        calls = [lambda r=runner: r(graph, meas, params, spec, 2) for runner in (run_full, run_lite)]
        calls += [lambda algo=algo: grid.run_grid(algo, graph, meas, [(params, 0)], spec, 2)
                  for algo in ("full", "lite")]
        for call in calls:
            with pytest.raises(InvalidInitSpec, match=message):
                call()

    @pytest.mark.parametrize("init", ["zeros", None, [InitSpec()]])
    def test_grid_init_must_be_an_init_spec(self, monkeypatch, init):
        # building the start raised a raw AttributeError on init.kind
        graph, _, meas = self.instance()
        built = []
        monkeypatch.setattr(grid, "consensus_state", lambda *args: built.append(args))
        for algo in ("full", "lite"):
            with pytest.raises(InvalidInitSpec, match="^init must be an InitSpec, got "):
                grid.run_grid(algo, graph, meas, [(PenaltyParams(0.1, 0.1), 0)], init, 2)
        assert not built

    @pytest.mark.parametrize("iters", [2.5, np.float64(3.0), None, True, "3"])
    def test_iters_must_be_an_integer(self, monkeypatch, iters):
        # range() raised a raw TypeError, run_full's after building its
        # coefficients; a boolean counted as 1
        graph, _, meas = self.instance()
        params = PenaltyParams(0.1, 0.1)
        built = []
        monkeypatch.setattr(grid, "consensus_state", lambda *args: built.append(args))
        calls = [lambda: run_full(graph, meas, params, InitSpec(), iters),
                 lambda: run_lite(graph, meas, params, InitSpec(), iters)]
        calls += [lambda algo=algo: grid.run_grid(algo, graph, meas, [(params, 0)], InitSpec(), iters)
                  for algo in ("full", "lite")]
        for call in calls:
            with pytest.raises(InvalidParameter, match="^iters must be an integer, got "):
                call()
        assert not meas._coefficients and not built
        run_full(graph, meas, params, InitSpec(), np.int64(2))  # any integer type runs

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, "1", np.array(1)])
    @pytest.mark.parametrize("kind", ["uniform", "zeros"])
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, kind, seed):
        # NumPy raised its own ValueError or TypeError for a uniform start,
        # and the other kinds ignored the seed
        graph, _, meas = self.instance()
        params, spec = PenaltyParams(0.1, 0.1), InitSpec(kind=kind)
        message = "^seed must be a non-negative integer, got "
        for runner in (run_full, run_lite):
            with pytest.raises(InvalidParameter, match=message):
                runner(graph, meas, params, spec, 3, seed=seed)
        built = []
        monkeypatch.setattr(grid, "consensus_state", lambda *args: built.append(args))
        for algo in ("full", "lite"):
            # the last cell's seed is refused before the first batch is built
            with pytest.raises(InvalidParameter, match=message):
                grid.run_grid(algo, graph, meas, [(params, 0), (params, seed)], spec, 3)
        assert not built
        for good in (0, np.int64(7), 2**70):
            run_lite(graph, meas, params, spec, 1, seed=good)

    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_grid_builds_each_batch_once_when_reached(self, monkeypatch, algo):
        graph, _, meas = self.instance()
        start, built = grid.consensus_state, []

        def spy(stacked, positions, u_init):
            built.append(positions.tobytes())
            return start(stacked, positions, u_init)

        def starts(group):
            return np.concatenate([start_positions(graph, spec, seed) for _, seed in group]).tobytes()

        monkeypatch.setattr(grid, "consensus_state", spy)
        monkeypatch.setattr(grid, "GRID_ROWS", 2 * graph.sum_degree)  # two cells a batch
        cells = [(PenaltyParams(0.1 * (k + 1), 0.1), k) for k in range(5)]
        spec = InitSpec(kind="uniform", u_init="directions")
        runs = grid.run_grid(algo, graph, meas, cells, spec, 3)
        assert built == []  # the call builds one cell's start, and no batch
        drawn = [next(runs), next(runs)]
        assert built == [starts(cells[:2])]
        drawn.append(next(runs))
        assert built == [starts(cells[:2]), starts(cells[2:4])]
        drawn += runs
        assert built == [starts(cells[:2]), starts(cells[2:4]), starts(cells[4:])]
        runner = run_full if algo == "full" else run_lite
        for (params, seed), run in zip(cells, drawn, strict=True):
            own = runner(graph, meas, params, spec, 3, seed=seed)
            assert (run.params, run.seed) == (params, seed)
            assert run.result.estimates.tobytes() == own.estimates.tobytes()


def reference_instance():
    """Criterion 6's instance, as ``solve-108`` of the benchmark runs it."""
    graph, truth = generate_rgg(108, 8, 0.23, seed=28)
    meas = measure(truth, graph, NoiseModel("additive-white", 0.02), seed=1)
    return graph, meas, PenaltyParams(0.0265, 0.0265), InitSpec(u_init="half")


# Resumed starts with one node's rows near the float max, made of the state
# after 3 iterations of a 16-node network at c = 0.1 and rho = 1e300 (which
# keeps the directions' squares from overflowing): (solver, dim, layout
# seed, node, rows planted, the divergence, whether it starts as a sum of
# finite rows that np.bincount overflows without a flag)
LATE = {
    "lite-2-node_sum": ("lite", 2, 0, 8, {"alpha": 0.85e308, "beta": -0.85e308},
                        "non-finite p at node 8, iteration 2", True),
    "lite-3-node_sum": ("lite", 3, 0, 2, {"alpha": 0.85e308, "beta": -0.85e308},
                        "non-finite p at node 2, iteration 2", True),
    "lite-3-ufunc": ("lite", 3, 1, 0, {"lam": 0.85e308},
                     "non-finite p at node 0, iteration 3", False),
    "full-2-node_sum": ("full", 2, 0, 8, {"lam": 3e307, "z_plus": 3e307},
                        "non-finite p at node 8, iteration 3", True),
    "full-3-node_sum": ("full", 3, 1, 15, {"lam": 3e307, "z_plus": 3e307},
                        "non-finite p at node 15, iteration 2", True),
}
RUNNERS = {"full": run_full, "lite": run_lite}


class TestFlagGuard:
    """The iterations run with floating-point flags calling back, and an
    iterate is scanned only when it is a call's first, a coefficient is not
    finite, or its call has raised a flag; every divergence is reported as
    a run that scans every iterate reports it, and no iteration is made
    twice."""

    @staticmethod
    def late(case):
        algo, dim, seed, node, values, want, _ = LATE[case]
        graph, truth = generate_rgg(16, 3, 0.6, dim=dim, seed=seed)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=seed)
        params, runner = PenaltyParams(0.1, 1e300), RUNNERS[algo]
        states = runner(graph, meas, params, InitSpec(u_init="half"), 3).states
        start = with_rows(states, slice(*graph.offsets[node:node + 2]), values)
        return lambda: runner(graph, meas, params, start, 10), graph, want

    @staticmethod
    def recording(monkeypatch):
        """Per iteration the solvers make: whether it raised a flag, seen by
        the error callback it is made under, and whether node_sum summed
        finite rows to a non-finite value in it."""
        calls, node_sum = [], NetworkGraph.node_sum

        def spied_sum(self, x):
            out = node_sum(self, x)
            if np.isfinite(x).all() and not np.isfinite(out).all():
                calls[-1]["silent"] = True
            return out

        def watched(steps):
            yield next(steps)
            while True:
                call, callback = {"raised": False, "silent": False}, np.geterrcall()
                calls.append(call)

                def seen(kind, code):
                    call["raised"] = True
                    callback(kind, code)

                with np.errstate(call=seen):
                    made = next(steps)
                yield made

        def spied_drive(steps, *args):
            return engine.drive(watched(steps), *args)

        monkeypatch.setattr(NetworkGraph, "node_sum", spied_sum)
        monkeypatch.setattr(solver_full, "drive", spied_drive)
        return calls

    @staticmethod
    def making(monkeypatch):
        """How many iterations the solvers make: each makes one ball
        projection, and an iteration made twice would make two."""
        made = []

        def spy(module):
            project = module.project_ball

            def counted(f):
                made.append(module.__name__)
                return project(f)

            monkeypatch.setattr(module, "project_ball", counted)

        for module in (solver_full, solver_lite):
            spy(module)
        return made

    @staticmethod
    def counting(monkeypatch):
        """The iterations the solvers scan, in order."""
        scanned = []

        def spy(t, *args, **fields):
            scanned.append(t)
            return check_finite(t, *args, **fields)

        monkeypatch.setattr(solver_full, "check_finite", spy)
        return scanned

    @pytest.mark.parametrize("case", LATE)
    def test_late_overflow_caught_by_its_flag(self, monkeypatch, case):
        # the first flag fires in the divergence's own iteration, and the scan
        # of that iterate, made once, names what a scan of every iterate names
        solve, graph, want = self.late(case)
        with scanning_every_iterate():
            assert outcome(solve) == want
        calls, made = self.recording(monkeypatch), self.making(monkeypatch)
        assert outcome(solve) == want
        t = int(want.rsplit(" ", 1)[1])
        assert [call["raised"] for call in calls] == [False] * (t - 1) + [True]
        assert len(made) == t
        # np.bincount raises no flag: the sum's own overflow reaches the
        # ball projection, which raises, in the same iteration
        assert calls[t - 1]["silent"] == LATE[case][-1]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_nonfinite_coefficients_scan_every_iterate(self, monkeypatch, algo, dim):
        # c = 1e308 makes 2 c infinite: every iterate is scanned, and the
        # divergence is the reference's
        graph, truth = generate_rgg(30, 4, 0.4, dim=dim, seed=5)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=5)
        params = PenaltyParams(1e308, 0.1)
        solve = lambda: RUNNERS[algo](graph, meas, params, InitSpec("uniform", u_init="half"), 10)
        with scanning_every_iterate():
            want = outcome(solve)
        assert isinstance(want, str)
        scanned = self.counting(monkeypatch)
        assert outcome(solve) == want
        assert scanned == list(range(1, int(want.rsplit(" ", 1)[1]) + 1))
        coef = EdgeCoefficients.held(meas, graph, 1e308, 0.1)
        assert not coef.finite

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("algo", ["full", "lite"])
    def test_grid_masks_the_reference_cells(self, monkeypatch, algo, dim):
        # one batch of cells that converge, diverge (c = 1e308), and raise
        # flags on every iteration without diverging (rho = 1e-300)
        graph, truth = generate_rgg(30, 4, 0.4, dim=dim, seed=5)
        meas = measure(truth, graph, NoiseModel("additive-white", 0.01), seed=5)
        cells = [(PenaltyParams(c, rho), k) for k, (c, rho) in enumerate(
            [(0.1, 0.1), (1e308, 0.1), (0.1, 1e-300), (0.05, 1e300)])]
        spec = InitSpec("uniform", u_init="half")

        def solve():
            return [None if run.result is None else outcome(lambda: run.result)
                    for run in grid.run_grid(algo, graph, meas, cells, spec, 10, truth=truth)]

        with scanning_every_iterate():
            want = solve()
        assert [cell is None for cell in want] == [False, True, False, False]
        made = self.making(monkeypatch)
        assert solve() == want
        assert made == [f"locadmm.solver_{algo}"] * 10

    def test_scans_once_per_call(self, monkeypatch):
        # the guard's gain: 300 iterations as 60 calls of 5 scan 60 iterates,
        # one call of 1000 scans 1
        graph, meas, params, spec = reference_instance()
        scanned = self.counting(monkeypatch)
        for runner in (run_full, run_lite):
            result = None
            scanned.clear()
            for _ in range(60):
                result = runner(graph, meas, params, spec if result is None else result.states, 5)
            assert scanned == [1] * 60
            scanned.clear()
            runner(graph, meas, params, spec, 1000)
            assert scanned == [1]

    def test_flags_without_divergence_scan_from_the_first(self, monkeypatch):
        # at rho = 1e-300 the ball projection's squares overflow on every
        # iteration: each iterate is made once and scanned, none is refused
        graph, meas, _, spec = reference_instance()
        scanned, made = self.counting(monkeypatch), self.making(monkeypatch)
        for runner in (run_full, run_lite):
            scanned.clear()
            made.clear()
            runner(graph, meas, PenaltyParams(0.0265, 1e-300), spec, 20)
            assert scanned == list(range(1, 21))
            assert len(made) == 20


class TestAgainstDenseReference:
    def test_trajectory_matches_dense_admm(self):
        rng = np.random.default_rng(13)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        params = PenaltyParams(0.35, 0.25)
        x0 = rng.uniform(-1.0, 1.0, (6, 2))
        spec = InitSpec(kind="from_positions", positions=x0, u_init="half")
        states0 = init_full(graph, spec, 0)

        fast = []

        def hook(event):
            fast.append(
                [
                    (s.block.p.copy(), s.u.copy(), s.lam.copy())
                    for s in event.states
                ]
            )

        run_full(graph, meas, params, spec, 100, hook=hook)
        slow = dense_reference_admm(graph, meas, params, states0, 100)
        worst = 0.0
        for snap_f, snap_s in zip(fast, slow):
            for (pf, uf, lf), (ps, us, ls) in zip(snap_f, snap_s):
                scale = 1.0 + max(np.abs(pf).max(), np.abs(lf).max(initial=0.0))
                worst = max(
                    worst,
                    max(
                        np.abs(pf - ps).max(initial=0.0),
                        np.abs(uf - us).max(initial=0.0),
                        np.abs(lf - ls).max(initial=0.0),
                    )
                    / scale,
                )
        assert worst < 1e-9

    def test_zero_noise_recovery_near_truth(self):
        # N=20, 4 anchors, exact ranges, start near truth: the solver walks
        # back to the ground truth well below 1e-3 within 2000 iterations
        comm_range = 0.45
        graph, truth = generate_rgg(20, 4, comm_range, seed=5)
        meas = exact_measurements(graph, truth.positions)
        rng = np.random.default_rng(2)
        start = truth.positions.copy()
        for i in range(graph.num_nodes):
            if i not in graph.anchors:
                start[i] += rng.normal(0.0, 0.05 * comm_range, 2)
        spec = InitSpec(kind="from_positions", positions=start, u_init="directions")
        result = run_full(graph, meas, PenaltyParams(0.1, 0.1), spec, 2000)
        assert rmse(result.estimates, truth, graph) < 1e-3
