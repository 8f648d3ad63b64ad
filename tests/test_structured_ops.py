import numpy as np
import pytest

from locadmm import diagnostics, oracle, structured_ops as ops
from locadmm.network import MeasurementSet
from locadmm.structured_ops import NodeBlockVector, PenaltyParams
from locadmm.errors import InvalidParameter, MissingNode

from conftest import exact_measurements, make_graph, random_connected_graph
from network_reference import loop_objective_original


def random_block(rng, degree, dim=2):
    return NodeBlockVector(
        rng.normal(size=dim),
        rng.normal(size=(degree, dim)),
        rng.normal(size=(degree, dim)),
    )


class TestBlockVector:
    def test_shape_validation(self):
        with pytest.raises(InvalidParameter):
            NodeBlockVector(np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2)))

    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        v = random_block(rng, 3)
        w = NodeBlockVector.from_flat(v.to_flat(), 3, 2)
        assert np.array_equal(v.p, w.p)
        assert np.array_equal(v.z_minus, w.z_minus)
        assert np.array_equal(v.z_plus, w.z_plus)


class TestPenaltyParams:
    @pytest.mark.parametrize("c,rho", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (np.inf, 1.0)])
    def test_rejects_nonpositive(self, c, rho):
        with pytest.raises(InvalidParameter):
            PenaltyParams(c, rho)

    @pytest.mark.parametrize(
        "value", [np.array(0.1), np.array([0.1, 0.2]), "0.1", None, True, 1 + 0j]
    )
    def test_rejects_what_is_not_a_real_number(self, value):
        # a 0-d array passed and crashed both solvers on the coefficient
        # memo's key; a string or a length-2 array raised a raw error
        for c, rho, name in ((value, 0.2, "c"), (0.2, value, "rho")):
            with pytest.raises(InvalidParameter, match=f"^{name} must be a number, got "):
                PenaltyParams(c, rho)
        graph = make_graph(2, [(0, 1)], {0: np.zeros(2)})
        with pytest.raises(InvalidParameter, match="^c must be a number, got "):
            diagnostics.parameter_bounds(graph, MeasurementSet(graph, [1.0]), value)

    def test_accepts_any_real_number(self):
        for c in (1, np.float64(0.1), np.float32(0.5), np.int64(2)):
            assert PenaltyParams(c, 0.2).c == c
        for value in (0, -1.0, np.inf, np.nan):  # the messages the CLI prints
            with pytest.raises(InvalidParameter, match=f"^c must be positive and finite, got {value}$"):
                PenaltyParams(value, 0.2)


class TestApplyQandA:
    def test_apply_Q_single_neighbor(self):
        v = NodeBlockVector(np.array([1.0, 0.0]), np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(ops.apply_Q(v), [[1.0, 0.0]])

    def test_apply_Q_kernel(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=2)
        v = NodeBlockVector(p, rng.normal(size=(3, 2)), np.tile(p, (3, 1)))
        assert np.all(ops.apply_Q(v) == 0.0)

    def test_apply_A_values(self):
        v = NodeBlockVector(np.array([2.0]), np.array([[1.0], [0.0]]), np.zeros((2, 1)))
        assert np.array_equal(ops.apply_A(v), [[1.0], [2.0]])

    def test_apply_A_feasible_point(self):
        p = np.array([0.3, -0.7])
        v = NodeBlockVector(p, np.tile(p, (4, 1)), np.zeros((4, 2)))
        assert np.all(ops.apply_A(v) == 0.0)

    def test_kernel_characterization(self):
        # apply_A(v) = 0 and apply_Q(v) = 0 force every replica equal to p
        rng = np.random.default_rng(2)
        p = rng.normal(size=3)
        v = NodeBlockVector(p, np.tile(p, (2, 1)), np.tile(p, (2, 1)))
        assert np.all(ops.apply_A(v) == 0.0) and np.all(ops.apply_Q(v) == 0.0)
        assert np.array_equal(v.z_minus, np.tile(p, (2, 1)))
        assert np.array_equal(v.z_plus, np.tile(p, (2, 1)))


class TestAdjoints:
    def test_apply_At_zero(self):
        out = ops.apply_At(np.zeros((3, 2)))
        assert np.all(out.to_flat() == 0.0)

    def test_apply_At_single(self):
        out = ops.apply_At(np.array([[1.0, 2.0]]))
        assert np.array_equal(out.p, [1.0, 2.0])
        assert np.array_equal(out.z_minus, [[-1.0, -2.0]])
        assert np.all(out.z_plus == 0.0)

    def test_apply_Qt_D_zero(self):
        out = ops.apply_Qt_D(np.zeros((2, 2)), np.array([1.0, 2.0]))
        assert np.all(out.to_flat() == 0.0)

    def test_apply_Qt_D_single(self):
        out = ops.apply_Qt_D(np.array([[1.0, 2.0]]), np.array([0.5]))
        assert np.array_equal(out.p, [0.5, 1.0])
        assert np.all(out.z_minus == 0.0)
        assert np.array_equal(out.z_plus, [[-0.5, -1.0]])


class TestScaledOperators:
    def test_cBtB_zero(self):
        v = NodeBlockVector.zeros(3, 2)
        assert np.all(ops.apply_cBtB(v, 0.7).to_flat() == 0.0)

    def test_cBtB_hand_value(self):
        # c=1, one neighbor, p=1, z^-=1, z^+=1:
        # p-block (c+1)*1*1 + 1 + 1 = 4, z^- block 2, z^+ block 2
        v = NodeBlockVector(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        out = ops.apply_cBtB(v, 1.0)
        assert out.p == pytest.approx([4.0])
        assert out.z_minus == pytest.approx(np.array([[2.0]]))
        assert out.z_plus == pytest.approx(np.array([[2.0]]))

    def test_W_inverse_hand_value(self):
        v = NodeBlockVector(
            np.array([12.0]), np.array([[4.0], [4.0]]), np.array([[6.0], [6.0]])
        )
        out = ops.apply_W_inverse(v, 1.0)
        assert out.p == pytest.approx([1.5])
        assert out.z_minus == pytest.approx(np.array([[2.0], [2.0]]))
        assert out.z_plus == pytest.approx(np.array([[3.0], [3.0]]))

    def test_W_round_trip(self):
        rng = np.random.default_rng(3)
        v = random_block(rng, 4)
        back = ops.apply_W_inverse(ops.apply_W(v, 0.37), 0.37)
        assert np.abs(back.to_flat() - v.to_flat()).max() < 1e-14


class TestObjectiveAndGradient:
    def test_gradient_stationary_feasible(self):
        p = np.array([0.2, 0.9])
        v = NodeBlockVector(p, np.zeros((2, 2)), np.tile(p, (2, 1)))
        out = ops.grad_F_z(v, np.zeros((2, 2)), np.ones(2))
        assert np.all(out.to_flat() == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.1, 1.0, 3)
        u = rng.normal(size=(3, 2))
        v = random_block(rng, 3)

        def fn(flat):
            return ops.objective_F(NodeBlockVector.from_flat(flat, 3, 2), u, d)

        approx = oracle.finite_diff_grad(fn, v.to_flat(), step=1e-6)
        exact = ops.grad_F_z(v, u, d).to_flat()
        assert np.abs(approx - exact).max() < 1e-5

    def test_objective_original_perfect_fit(self):
        est = np.array([[0.0, 0.0], [1.0, 0.0]])
        meas = MeasurementSet.from_pairs(make_graph(2, [(0, 1)], {0: est[0]}), {(0, 1): 1.0})
        assert ops.objective_original(est, meas) == 0.0

    def test_objective_original_double_count(self):
        est = np.array([[0.0, 0.0], [1.0, 0.0]])
        meas = MeasurementSet.from_pairs(make_graph(2, [(0, 1)], {0: est[0]}), {(0, 1): 2.0})
        # each unordered edge enters twice: 2 * 0.5 * (1-2)^2 = 1.0
        assert ops.objective_original(est, meas) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_objective_original_matches_per_edge_loop(self, seed):
        rng = np.random.default_rng(seed)
        graph, truth = random_connected_graph(
            rng, int(rng.integers(2, 40)), dim=2 + seed % 2, extra_edges=1.5
        )
        noisy = truth.positions + rng.normal(0.0, 0.1, truth.positions.shape)
        meas = exact_measurements(graph, noisy)
        est = rng.uniform(-1.0, 2.0, truth.positions.shape)
        want = loop_objective_original(est, meas)
        assert want > 0.0
        assert ops.objective_original(est, meas) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_objective_F_with_zero_u(self):
        rng = np.random.default_rng(5)
        v = random_block(rng, 3)
        d = rng.uniform(0.1, 1.0, 3)
        qv = ops.apply_Q(v)
        assert ops.objective_F(v, np.zeros((3, 2)), d) == pytest.approx(
            0.5 * float((qv * qv).sum())
        )


class TestProjectBall:
    def test_interior_point_unchanged(self):
        f = np.array([[0.3, 0.4]])
        assert np.array_equal(ops.project_ball(f), f)

    def test_radial_scaling(self):
        out = ops.project_ball(np.array([[3.0, 4.0]]))
        assert out == pytest.approx(np.array([[0.6, 0.8]]))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(5, 3)) * 3.0
        once = ops.project_ball(f)
        assert np.array_equal(ops.project_ball(once), once)

    def test_norm_bound(self):
        rng = np.random.default_rng(7)
        out = ops.project_ball(rng.normal(size=(50, 2)) * 10)
        assert np.linalg.norm(out, axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equal_to_row_sum_of_squares(self, dim):
        rng = np.random.default_rng(dim)
        # zero rows, rows on the sphere, and rows whose squares overflow
        # (they project to zero)
        edge = np.zeros((9, dim))
        edge[[2, 3], [0, dim - 1]] = [1.0, -1.0]
        edge[4, :2], edge[5, :2] = [0.6, 0.8], [-3.0 / 5.0, 4.0 / 5.0]
        edge[6], edge[7, 0], edge[8, -1] = 1e200, -1e300, 1e155
        fields = [rng.normal(size=(20_000, dim)) * scale for scale in (1e-3, 1.0, 1e3)]
        for f in [*fields, edge, np.zeros((0, dim))]:
            given = f.copy()
            with np.errstate(over="ignore"):
                want = f / np.maximum(1.0, np.sqrt((f * f).sum(axis=1)))[:, None]
                out = ops.project_ball(f)
            assert out.shape == f.shape and out.tobytes() == want.tobytes()
            assert f.tobytes() == given.tobytes()
        with np.errstate(over="ignore"):
            assert not ops.project_ball(edge[6:]).any()


class TestProjectConsensus:
    def test_pairwise_average(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        graph = make_graph(2, [(0, 1)], {0: positions[0]})
        blocks = [
            NodeBlockVector(positions[0], np.zeros((1, 2)), np.array([[1.0, 1.0]])),
            NodeBlockVector(positions[1], np.array([[3.0, 3.0]]), np.zeros((1, 2))),
        ]
        out = ops.project_consensus(blocks, graph)
        assert out[0].z_plus == pytest.approx(np.array([[2.0, 2.0]]))
        assert out[1].z_minus == pytest.approx(np.array([[2.0, 2.0]]))

    def test_idempotent_on_feasible_input(self):
        rng = np.random.default_rng(8)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        from locadmm.solver_full import consensus_blocks

        blocks = consensus_blocks(truth.positions, graph)
        out = ops.project_consensus(blocks, graph)
        for a, b in zip(out, blocks):
            assert np.abs(a.to_flat() - b.to_flat()).max() == 0.0

    def test_idempotent_general(self):
        rng = np.random.default_rng(9)
        graph, _ = random_connected_graph(rng, 7, num_anchors=2)
        blocks = [
            random_block(rng, len(graph.neighbors[i])) for i in range(graph.num_nodes)
        ]
        once = ops.project_consensus(blocks, graph)
        twice = ops.project_consensus(once, graph)
        for a, b in zip(once, twice):
            assert np.abs(a.to_flat() - b.to_flat()).max() < 1e-15

    def test_nonexpansive(self):
        rng = np.random.default_rng(10)
        graph, _ = random_connected_graph(rng, 6, num_anchors=1)
        for _ in range(20):
            x = [random_block(rng, len(graph.neighbors[i])) for i in range(6)]
            y = [random_block(rng, len(graph.neighbors[i])) for i in range(6)]
            px = ops.project_consensus(x, graph)
            py = ops.project_consensus(y, graph)
            before = np.concatenate([a.to_flat() - b.to_flat() for a, b in zip(x, y)])
            after = np.concatenate([a.to_flat() - b.to_flat() for a, b in zip(px, py)])
            assert np.linalg.norm(after) <= np.linalg.norm(before) + 1e-12

    def test_missing_node_rejected(self):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        with pytest.raises(MissingNode):
            ops.project_consensus([NodeBlockVector.zeros(1, 2)], graph)


class TestDenseAgreement:
    """Every closed form against its literal dense construction."""

    @pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 6])
    def test_operators_match_dense(self, num_nodes):
        rng = np.random.default_rng(100 + num_nodes)
        graph, truth = random_connected_graph(rng, num_nodes, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        c = float(rng.uniform(0.05, 2.0))
        dense = oracle.build_dense(graph, meas, c)
        d_node = meas.node_ranges(graph)
        for _ in range(100):
            i = int(rng.integers(0, num_nodes))
            k = len(graph.neighbors[i])
            v = random_block(rng, k)
            flat = v.to_flat()
            u = rng.normal(size=(k, 2))
            lam = rng.normal(size=(k, 2))
            checks = [
                (ops.apply_Q(v).ravel(), dense.Q[i] @ flat),
                (ops.apply_A(v).ravel(), dense.A[i] @ flat),
                (ops.apply_At(lam).to_flat(), dense.A[i].T @ lam.ravel()),
                (
                    ops.apply_Qt_D(u, d_node[i]).to_flat(),
                    dense.Q[i].T @ dense.D[i] @ u.ravel(),
                ),
                (ops.apply_cBtB(v, c).to_flat(), dense.cBtB[i] @ flat),
                (ops.apply_W(v, c).to_flat(), dense.W[i] @ flat),
                (
                    ops.grad_F_z(v, u, d_node[i]).to_flat(),
                    dense.Q[i].T @ dense.Q[i] @ flat
                    - dense.Q[i].T @ dense.D[i] @ u.ravel(),
                ),
            ]
            for got, want in checks:
                assert np.abs(got - want).max() < 1e-12
