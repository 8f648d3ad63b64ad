import numpy as np
import pytest

from locadmm import oracle
from locadmm import structured_ops as ops
from locadmm.engine import check_finite
from locadmm.errors import (
    InvalidInitSpec,
    InvalidParameter,
    MissingMessage,
    NonFiniteValue,
)
from locadmm.network import (
    GroundTruth,
    MeasurementSet,
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
    update_lambda,
    update_u,
)
from locadmm.solver_lite import run_lite
from locadmm.structured_ops import NodeBlockVector, PenaltyParams

from conftest import exact_measurements, make_graph, random_connected_graph


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
        flat_a = np.concatenate([s.block.to_flat() for s in a])
        flat_b = np.concatenate([s.block.to_flat() for s in b])
        flat_c = np.concatenate([s.block.to_flat() for s in c])
        assert np.array_equal(flat_a, flat_b)
        assert not np.array_equal(flat_a, flat_c)
        assert flat_a.min() >= -1.0 and flat_a.max() <= 1.0
        # one draw per block coordinate: n * (N + 4|E|) in total
        assert flat_a.size == 2 * (3 + 4 * 3)

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
            InitSpec(kind="zeros", u_init="directions"),
        ],
    )
    def test_invalid_specs(self, spec):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        with pytest.raises(InvalidInitSpec):
            init_full(graph, spec, seed=0)


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
        meas = MeasurementSet(
            {
                e: float(np.linalg.norm(truth.positions[e[0]] - truth.positions[e[1]]))
                for e in graph.edge_list
            }
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
            InitSpec(kind="uniform"),
            20,
            seed=1,
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
        meas = MeasurementSet({(0, j + 1): float(d[j]) for j in range(m)})
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
            (run_full, "non-finite lam at node 1, iteration 4"),
            (run_lite, "non-finite u at node 0, iteration 1"),
        ):
            with pytest.raises(NonFiniteValue, match=f"^{where}$"):
                runner(graph, meas, PenaltyParams(1e308, 0.1), spec, 10, seed=0)

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
