import math

import numpy as np
import pytest

from locadmm import oracle
from locadmm import structured_ops as ops
from locadmm.errors import InvalidParameter
from locadmm.network import MeasurementSet
from locadmm.solver_full import consensus_blocks
from locadmm.structured_ops import NodeBlockVector

from conftest import exact_measurements, make_graph, random_connected_graph


class TestBuildDense:
    def test_W_is_the_stated_diagonal(self):
        rng = np.random.default_rng(0)
        graph, truth = random_connected_graph(rng, 5, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        c = 0.7
        dense = oracle.build_dense(graph, meas, c)
        for i in range(graph.num_nodes):
            k = len(graph.neighbors[i])
            weights = np.concatenate(
                [
                    np.full(graph.dim, 2.0 * (c + 1.0) * k),
                    np.full(graph.dim * k, 2.0 * c),
                    np.full(graph.dim * k, 2.0),
                ]
            )
            assert np.abs(dense.W[i] - np.diag(weights)).max() < 1e-12

    def test_AtA_block_form_two_neighbors(self):
        graph = make_graph(2, [(0, 1), (0, 2)], {1: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (0, 2): 1.0})
        dense = oracle.build_dense(graph, meas, 1.0)
        # node 0 has two neighbors: [[2, -1, -1, 0, 0], [-1, 1, 0, ...], ...] x I_2
        core = np.array(
            [
                [2, -1, -1, 0, 0],
                [-1, 1, 0, 0, 0],
                [-1, 0, 1, 0, 0],
                [0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        want = np.kron(core, np.eye(2))
        assert np.abs(dense.A[0].T @ dense.A[0] - want).max() == 0.0

    def test_cBtB_is_absolute_combination(self):
        rng = np.random.default_rng(1)
        graph, truth = random_connected_graph(rng, 4, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        c = 1.3
        dense = oracle.build_dense(graph, meas, c)
        for i in range(graph.num_nodes):
            want = c * np.abs(dense.A[i].T @ dense.A[i]) + np.abs(
                dense.Q[i].T @ dense.Q[i]
            )
            assert np.abs(dense.cBtB[i] - want).max() == 0.0


class TestDenseProjection:
    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(2)
        graph, truth = random_connected_graph(rng, 5, num_anchors=2)
        blocks = consensus_blocks(truth.positions, graph)
        out = oracle.solve_z_subproblem_dense(blocks, 0.8, graph, weighted=True)
        for a, b in zip(out, blocks):
            assert np.abs(a.to_flat() - b.to_flat()).max() < 1e-12

    def test_two_node_hand_formula(self):
        # single edge, c=1: both replicas land on the midpoint of the
        # crossed half-step entries
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        zt0 = NodeBlockVector(np.zeros(2), np.array([[2.0, 0.0]]), np.array([[5.0, 1.0]]))
        zt1 = NodeBlockVector(np.ones(2), np.array([[4.0, 2.0]]), np.array([[0.0, 2.0]]))
        out = oracle.solve_z_subproblem_dense([zt0, zt1], 1.0, graph, weighted=True)
        assert out[0].z_minus == pytest.approx(np.array([[1.0, 1.0]]))  # (2+0)/2, (0+2)/2
        assert out[0].z_plus == pytest.approx(np.array([[4.5, 1.5]]))   # (5+4)/2, (1+2)/2
        assert out[1].z_minus == pytest.approx(np.array([[4.5, 1.5]]))
        assert out[1].z_plus == pytest.approx(np.array([[1.0, 1.0]]))
        assert out[0].p == pytest.approx([0.0, 0.0])  # anchor pinned
        assert out[1].p == pytest.approx([1.0, 1.0])  # free p untouched

    def test_kkt_and_substitution_agree(self):
        rng = np.random.default_rng(3)
        for num_nodes in (2, 3, 4, 5):
            graph, _ = random_connected_graph(rng, num_nodes, num_anchors=1)
            for weighted in (True, False):
                blocks = [
                    NodeBlockVector(
                        rng.normal(size=2),
                        rng.normal(size=(len(graph.neighbors[i]), 2)),
                        rng.normal(size=(len(graph.neighbors[i]), 2)),
                    )
                    for i in range(num_nodes)
                ]
                a = oracle.solve_z_subproblem_dense(blocks, 0.6, graph, weighted=weighted)
                b = oracle.solve_z_subproblem_substitution(
                    blocks, 0.6, graph, weighted=weighted
                )
                for x, y in zip(a, b):
                    assert np.abs(x.to_flat() - y.to_flat()).max() < 1e-10

    def test_unweighted_matches_fast_projection(self):
        rng = np.random.default_rng(4)
        graph, _ = random_connected_graph(rng, 5, num_anchors=2)
        for _ in range(25):
            blocks = [
                NodeBlockVector(
                    rng.normal(size=2),
                    rng.normal(size=(len(graph.neighbors[i]), 2)),
                    rng.normal(size=(len(graph.neighbors[i]), 2)),
                )
                for i in range(5)
            ]
            fast = ops.project_consensus(blocks, graph)
            slow = oracle.solve_z_subproblem_dense(blocks, 1.0, graph, weighted=False)
            for a, b in zip(fast, slow):
                assert np.abs(a.to_flat() - b.to_flat()).max() < 1e-10

    def test_size_guard(self):
        rng = np.random.default_rng(5)
        graph, truth = random_connected_graph(rng, 60, num_anchors=2, extra_edges=1.0)
        blocks = consensus_blocks(truth.positions, graph)
        with pytest.raises(InvalidParameter):
            oracle.solve_z_subproblem_dense(blocks, 1.0, graph)


class TestFiniteDifferences:
    def test_quadratic_is_near_exact(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(5, 5))
        H = H @ H.T
        point = rng.normal(size=5)

        grad = oracle.finite_diff_grad(lambda x: 0.5 * float(x @ H @ x), point, 1e-6)
        assert np.abs(grad - H @ point).max() < 1e-8

    def test_step_halving_shrinks_error(self):
        point = np.array([0.7])

        def fn(x):
            return float(np.sin(3.0 * x[0]))

        exact = 3.0 * np.cos(3.0 * 0.7)
        err_big = abs(oracle.finite_diff_grad(fn, point, 1e-3)[0] - exact)
        err_small = abs(oracle.finite_diff_grad(fn, point, 5e-4)[0] - exact)
        assert err_small < err_big / 3.0  # central differences: ~4x per halving


class TestOracleCheck:
    def test_passes_on_valid_instance(self):
        rng = np.random.default_rng(7)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        report = oracle.oracle_check(graph, meas, c=0.9, seed=1, trials=10)
        assert report.passed
        assert report.max_operator_error <= report.OPERATOR_TOL
        assert report.max_combine_error <= report.COMBINE_TOL
        assert report.max_projection_error <= report.PROJECTION_TOL

    def test_refuses_large_instance(self):
        rng = np.random.default_rng(8)
        graph, truth = random_connected_graph(rng, 12, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        with pytest.raises(InvalidParameter):
            oracle.oracle_check(graph, meas)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_refuses_no_trials(self, trials):
        rng = np.random.default_rng(7)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        with pytest.raises(InvalidParameter, match=f"trials must be >= 1, got {trials}"):
            oracle.oracle_check(graph, meas, trials=trials)

    def test_refuses_a_node_without_a_neighbor(self):
        # free node 3 has no edge, so its dense W is all zero
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]}, num_nodes=4)
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (1, 2): 1.0})
        want = "^oracle check needs every node to have a neighbor; node 3 has none$"
        with pytest.raises(InvalidParameter, match=want):
            oracle.oracle_check(graph, meas, trials=1)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_refuses_non_finite_c(self, c):
        rng = np.random.default_rng(7)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        want = f"^c must be positive and finite, got {c}$"
        with pytest.raises(InvalidParameter, match=want):
            oracle.build_dense(graph, meas, c)
        with pytest.raises(InvalidParameter, match=want):
            oracle.oracle_check(graph, meas, c=c, trials=1)
