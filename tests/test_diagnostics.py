import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from locadmm import diagnostics as dg
from locadmm import network
from locadmm import oracle
from locadmm import structured_ops as ops
from locadmm.errors import InvalidParameter, NonFiniteValue
from locadmm.network import MeasurementSet, NetworkGraph
from locadmm.solver_full import (
    FullNodeState,
    InitSpec,
    consensus_blocks,
    init_full,
    run_full,
)
from locadmm.solver_lite import run_lite
from locadmm.structured_ops import NodeBlockVector, PenaltyParams

from conftest import exact_measurements, make_graph, random_connected_graph


def kkt_states(graph, truth, meas):
    """Zero-noise truth with measurement-consistent directions and zero duals
    is a point where every gap vanishes."""
    spec = InitSpec(kind="from_positions", positions=truth.positions, u_init="directions")
    return list(init_full(graph, spec))


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


def dense_stationarity(states, graph, meas, c=1.0):
    dense = oracle.build_dense(graph, meas, c)
    total = 0.0
    for i, st in enumerate(states):
        flat = st.block.to_flat()
        vec = (
            dense.Q[i].T @ dense.Q[i] @ flat
            - dense.Q[i].T @ dense.D[i] @ st.u.ravel()
            + dense.A[i].T @ st.lam.ravel()
        )
        total += float(vec @ vec)
    return total


class TestStationarityGap:
    def test_zero_at_kkt_triple(self, triangle):
        graph, truth, meas = triangle
        states = kkt_states(graph, truth, meas)
        d_node = meas.node_ranges(graph)
        assert dg.stationarity_gap(states, graph, d_node) < 1e-16

    def test_matches_dense(self):
        rng = np.random.default_rng(0)
        graph, truth = random_connected_graph(rng, 5, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        for _ in range(20):
            states = random_states(rng, graph)
            got = dg.stationarity_gap(states, graph, d_node)
            want = dense_stationarity(states, graph, meas)
            assert abs(got - want) < 1e-10 * (1.0 + want)

    def test_dual_doubling_recomputation(self):
        rng = np.random.default_rng(1)
        graph, truth = random_connected_graph(rng, 4, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        states = random_states(rng, graph)
        doubled = [
            FullNodeState(st.block, st.u, 2.0 * st.lam) for st in states
        ]
        got = dg.stationarity_gap(doubled, graph, d_node)
        want = dense_stationarity(doubled, graph, meas)
        assert abs(got - want) < 1e-10 * (1.0 + want)


class TestSimpleGaps:
    def test_u_diff_zero(self):
        rng = np.random.default_rng(2)
        u = [rng.normal(size=(3, 2)), rng.normal(size=(2, 2))]
        assert dg.primal_diff_gap(u, [a.copy() for a in u]) == 0.0

    def test_u_diff_value(self):
        now = [np.array([[1.0, 0.0]])]
        prev = [np.array([[0.0, 0.0]])]
        assert dg.primal_diff_gap(now, prev) == pytest.approx(1.0)

    def test_feasibility_zero_on_consensus(self, triangle):
        graph, truth, meas = triangle
        states = kkt_states(graph, truth, meas)
        assert dg.feasibility_gap(states) == 0.0

    def test_feasibility_matches_dense(self):
        rng = np.random.default_rng(3)
        graph, truth = random_connected_graph(rng, 5, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        dense = oracle.build_dense(graph, meas, 1.0)
        states = random_states(rng, graph)
        want = sum(
            float(np.linalg.norm(dense.A[i] @ st.block.to_flat()) ** 2)
            for i, st in enumerate(states)
        )
        assert abs(dg.feasibility_gap(states) - want) < 1e-12 * (1.0 + want)


class TestOptimalityGap:
    def test_zero_at_kkt(self, triangle):
        graph, truth, meas = triangle
        states = kkt_states(graph, truth, meas)
        d_node = meas.node_ranges(graph)
        u_prev = [st.u.copy() for st in states]
        assert dg.optimality_gap(states, u_prev, graph, d_node) < 1e-16

    def test_zero_on_degenerate_network(self):
        # all-zero state with zero ranges: every term vanishes
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 0.0, (1, 2): 0.0})
        d_node = meas.node_ranges(graph)
        states = [
            FullNodeState(
                NodeBlockVector.zeros(len(graph.neighbors[i]), 2),
                np.zeros((len(graph.neighbors[i]), 2)),
                np.zeros((len(graph.neighbors[i]), 2)),
            )
            for i in range(3)
        ]
        u_prev = [st.u.copy() for st in states]
        assert dg.optimality_gap(states, u_prev, graph, d_node) == 0.0

    def test_matches_dense_projection(self):
        rng = np.random.default_rng(4)
        for num_nodes in (3, 4, 5):
            graph, truth = random_connected_graph(rng, num_nodes, num_anchors=1)
            meas = exact_measurements(graph, truth.positions)
            d_node = meas.node_ranges(graph)
            dense = oracle.build_dense(graph, meas, 1.0)
            for _ in range(10):
                states = random_states(rng, graph)
                u_prev = [ops.project_ball(rng.normal(size=st.u.shape)) for st in states]
                got = dg.optimality_gap(states, u_prev, graph, d_node)

                shifted = []
                for i, st in enumerate(states):
                    flat = st.block.to_flat()
                    grad = (
                        dense.Q[i].T @ dense.Q[i] @ flat
                        - dense.Q[i].T @ dense.D[i] @ st.u.ravel()
                        + dense.A[i].T @ st.lam.ravel()
                    )
                    shifted.append(
                        NodeBlockVector.from_flat(
                            flat - grad, len(graph.neighbors[i]), graph.dim
                        )
                    )
                projected = oracle.solve_z_subproblem_dense(
                    shifted, 1.0, graph, weighted=False
                )
                want = 0.0
                for i, st in enumerate(states):
                    diff = st.block.to_flat() - projected[i].to_flat()
                    want += float(diff @ diff)
                    az = dense.A[i] @ st.block.to_flat()
                    want += float(az @ az)
                    du = (st.u - u_prev[i]).ravel()
                    want += float(du @ du)
                assert abs(got - want) < 1e-9 * (1.0 + want)


class TestAugmentedLagrangian:
    def test_feasible_zero_dual_reduces_to_loss(self, triangle):
        graph, truth, meas = triangle
        states = kkt_states(graph, truth, meas)
        d_node = meas.node_ranges(graph)
        want = sum(
            ops.objective_F(st.block, st.u, d_node[i]) for i, st in enumerate(states)
        )
        got = dg.augmented_lagrangian(states, d_node, 0.7)
        assert got == pytest.approx(want, abs=1e-14)

    def test_zero_u_reduces_to_quadratic(self):
        rng = np.random.default_rng(5)
        graph, truth = random_connected_graph(rng, 5, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        blocks = consensus_blocks(truth.positions, graph)
        states = [
            FullNodeState(blocks[i], np.zeros_like(blocks[i].z_minus), np.zeros_like(blocks[i].z_minus))
            for i in range(5)
        ]
        want = sum(
            0.5 * float((ops.apply_Q(st.block) ** 2).sum()) for st in states
        )
        assert dg.augmented_lagrangian(states, d_node, 1.0) == pytest.approx(want)

    def test_matches_dense(self):
        rng = np.random.default_rng(6)
        graph, truth = random_connected_graph(rng, 5, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        dense = oracle.build_dense(graph, meas, 0.9)
        states = random_states(rng, graph)
        want = 0.0
        for i, st in enumerate(states):
            flat = st.block.to_flat()
            qz = dense.Q[i] @ flat
            az = dense.A[i] @ flat
            want += 0.5 * float(qz @ qz)
            want -= float(st.u.ravel() @ (dense.D[i] @ qz))
            want += float(st.lam.ravel() @ az)
            want += 0.45 * float(az @ az)
        got = dg.augmented_lagrangian(states, d_node, 0.9)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))


class TestPotential:
    def test_reduces_to_lagrangian_at_rest(self, triangle):
        graph, truth, meas = triangle
        states = kkt_states(graph, truth, meas)
        d_node = meas.node_ranges(graph)
        ztilde = consensus_blocks(truth.positions, graph)
        got = dg.potential(states, states, ztilde, d_node, 12.0, 300.0, 0.5, 2.0)
        want = dg.augmented_lagrangian(states, d_node, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_dense_quadratic_forms(self):
        rng = np.random.default_rng(7)
        graph, truth = random_connected_graph(rng, 4, num_anchors=1)
        meas = exact_measurements(graph, truth.positions)
        d_node = meas.node_ranges(graph)
        c, rho, k1, k2 = 0.8, 3.0, 11.0, 70.0
        dense = oracle.build_dense(graph, meas, c)
        states_t = random_states(rng, graph)
        states_p = random_states(rng, graph)
        ztilde = [st.block for st in random_states(rng, graph)]

        want = 0.0
        for i in range(graph.num_nodes):
            flat_t = states_t[i].block.to_flat()
            qz = dense.Q[i] @ flat_t
            az = dense.A[i] @ flat_t
            want += 0.5 * float(qz @ qz)
            want -= float(states_t[i].u.ravel() @ (dense.D[i] @ qz))
            want += float(states_t[i].lam.ravel() @ az)
            want += 0.5 * c * float(az @ az)
            azt = dense.A[i] @ ztilde[i].to_flat()
            du = (states_t[i].u - states_p[i].u).ravel()
            dz = flat_t - states_p[i].block.to_flat()
            btb = dense.cBtB[i] / c
            want += 0.5 * c * (
                k1 * float(azt @ azt)
                + k2 * float(az @ az)
                + (rho / (2.0 * c)) * float(du @ du)
                + (k1 + k2) * float(dz @ (btb @ dz))
            )
        got = dg.potential(states_t, states_p, ztilde, d_node, k1, k2, c, rho)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))

    def test_monotone_under_bounds(self):
        rng = np.random.default_rng(8)
        graph, truth = random_connected_graph(rng, 6, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        c = 1.0
        bounds = dg.parameter_bounds(graph, meas, c)
        params = PenaltyParams(c, bounds.rho_min)
        x0 = rng.uniform(0.0, 1.0, (6, 2))
        for a in graph.anchors:
            x0[a] = graph.anchors[a]
        spec = InitSpec(kind="from_positions", positions=x0, u_init="zeros")
        rec = dg.TraceRecorder(
            graph,
            meas,
            params,
            metrics=("potential",),
            potential_coeffs=(bounds.kappa1_min, bounds.kappa2_min),
        )
        run_full(graph, meas, params, spec, 150, hook=rec)
        values = [r.potential for r in rec.trace.rows if r.potential is not None]
        assert len(values) == 150
        diffs = np.diff(values)
        assert (diffs <= 1e-12).all()


class TestParameterBounds:
    def test_kappa1_hand_value(self):
        # c=1, N_max=2: kappa1 = 6 * 3 * 2 = 36
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (1, 2): 0.5})
        bounds = dg.parameter_bounds(graph, meas, 1.0)
        assert bounds.kappa1_min == pytest.approx(36.0)

    def test_kappa2_hand_value(self):
        # 3-node path, degrees [1, 2, 1], n=2, c=1:
        # N_sum=4, tau_min=6, kappa2 = 4*2*4*3*36/6 = 576
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (1, 2): 0.5})
        bounds = dg.parameter_bounds(graph, meas, 1.0)
        assert bounds.n_sum == 4
        assert bounds.tau_tilde_min == pytest.approx(6.0)
        assert bounds.kappa2_min == pytest.approx(576.0)

    def test_rho_hand_value(self):
        # same instance, d_max=1: rho = 4 * (36 + 576) = 2448
        graph = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0, (1, 2): 0.5})
        bounds = dg.parameter_bounds(graph, meas, 1.0)
        assert bounds.d_max == 1.0
        assert bounds.rho_min == pytest.approx(2448.0)

    def test_tau_equals_per_node_loop(self):
        rng = np.random.default_rng(11)
        for num_nodes in (2, 7, 15, 40):
            graph, truth = random_connected_graph(rng, num_nodes, extra_edges=1.5)
            meas = exact_measurements(graph, truth.positions)
            for c in (1e-6, 0.0265, 0.3, 1.0, 7.5, 1e6):
                c1_sq = (c + 1.0) ** 2
                want = float(min(c1_sq * k * k + c * c * k + k for k in graph.degrees))
                assert dg.parameter_bounds(graph, meas, c).tau_tilde_min == want

    def test_invalid_c(self):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0})
        with pytest.raises(InvalidParameter):
            dg.parameter_bounds(graph, meas, 0.0)

    @pytest.mark.parametrize(
        "graph, node",
        [
            (NetworkGraph.build(2, 1, {0: [0.3, 0.4]}, []), 0),
            (NetworkGraph.build(2, 4, {0: [0.0, 0.0]}, [(0, 1), (1, 3)]), 2),
        ],
        ids=["one-node", "isolated-node"],
    )
    def test_node_without_neighbor_named(self, graph, node):
        # tau_min is 0 there, and kappa2 would divide by it
        meas = MeasurementSet(graph, [1.0] * graph.forward.size)
        want = f"parameter bounds need every node to have a neighbor; node {node} has none"
        with pytest.raises(InvalidParameter, match=f"^{want}$"):
            dg.parameter_bounds(graph, meas, 1.0)

    def test_measurements_of_another_graph_refused(self):
        # they were read unchecked: g2's degrees with the path's ranges
        path = make_graph(2, [(0, 1), (1, 2)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(path, {(0, 1): 1.0, (1, 2): 0.5})
        triangle = make_graph(2, [(0, 1), (0, 2), (1, 2)], {0: [0.0, 0.0]})
        with pytest.raises(InvalidParameter, match="^measurements were taken on another graph$"):
            dg.parameter_bounds(triangle, meas, 0.1)

    @pytest.mark.parametrize("c", [1e152, 1e154, 1e300, 1e-320])
    def test_overflowing_c_named(self, c):
        # (c + 1)^2 stays finite at 1e152 and 1e154, but tau, kappa2 or
        # rho_min do not; 1 / c overflows at 1e-320
        graph, truth = random_connected_graph(np.random.default_rng(3), 12, extra_edges=1.5)
        meas = exact_measurements(graph, truth.positions)
        with pytest.raises(InvalidParameter, match=re.escape(f"c = {c} overflows the parameter bounds")):
            dg.parameter_bounds(graph, meas, c)


class TestEnvelope:
    def test_one_over_t_is_bounded(self):
        gaps = [1.0 / t for t in range(1, 301)]
        report = dg.sublinear_envelope_check(gaps)
        assert report.bounded
        assert abs(report.epsilon2 - 1.0) <= 0.01

    def test_constant_gap_fails(self):
        report = dg.sublinear_envelope_check([0.5] * 300)
        assert not report.bounded

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParameter):
            dg.sublinear_envelope_check([1.0, 0.5])

    @pytest.mark.parametrize(
        "gaps, message",
        [
            # a NaN gap gave epsilon2 = nan and growth_ratio = nan, silently
            ([1.0, 0.5, math.nan, 0.2, 0.1, 0.05], "gap_values[2] must be finite and non-negative, got nan"),
            ([1.0, 0.5, 0.3, 0.2, 0.1, math.inf], "gap_values[5] must be finite and non-negative, got inf"),
            ([-math.inf, 0.5, 0.3, 0.2], "gap_values[0] must be finite and non-negative, got -inf"),
            ([1.0, -1e-300, math.nan, 0.2], "gap_values[1] must be finite and non-negative, got -1e-300"),
        ],
    )
    def test_gaps_that_are_not_finite_or_negative_rejected(self, gaps, message):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            dg.sublinear_envelope_check(gaps)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -0.1])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # tol = inf passed a constant, non-vanishing gap as bounded, and
        # tol = nan failed every gap
        with pytest.raises(InvalidParameter, match=f"^tol must be finite and >= 0, got {tol}$"):
            dg.sublinear_envelope_check([0.5] * 300, tol=tol)

    def test_zero_gap_in_the_first_half_is_bounded(self):
        # a zero among the first two gaps holds the running minimum, and
        # with it the whole envelope, at zero
        report = dg.sublinear_envelope_check([1.0, 0.0, 3.0, 2.0])
        assert report.bounded and report.growth_ratio == 1.0 and report.epsilon2 == 0.0

    def test_zero_and_negative_zero_gaps_accepted(self):
        report = dg.sublinear_envelope_check([1.0, 0.5, -0.0, 0.0, 0.0])
        assert report.bounded and report.epsilon2 == 0.5


class TestTrace:
    def test_row_count_and_lagged_fields(self, triangle):
        graph, truth, meas = triangle
        params = PenaltyParams(0.4, 0.4)
        rec = dg.TraceRecorder(graph, meas, params, truth=truth)
        run_full(graph, meas, params, InitSpec(kind="zeros", u_init="half"), 7, hook=rec)
        trace = rec.trace
        assert len(trace.rows) == 8
        first, later = trace.rows[0], trace.rows[3]
        assert first.U is None and first.F is None
        assert first.S is not None and first.P is not None and first.L is not None
        assert later.U is not None and later.F is not None
        assert first.comm_scalars == 0
        assert later.comm_scalars == 2 * graph.dim * graph.sum_degree

    def test_csv_layout(self, triangle, tmp_path):
        graph, truth, meas = triangle
        params = PenaltyParams(0.4, 0.4)
        rec = dg.TraceRecorder(
            graph, meas, params, truth=truth, metadata={"algorithm": "full", "seed": 0}
        )
        run_full(graph, meas, params, InitSpec(kind="zeros"), 3, hook=rec)
        path = tmp_path / "trace.csv"
        rec.trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# algorithm=full"
        assert lines[1] == "# seed=0"
        assert lines[2] == "t,rmse,S,U,P,F,L,potential,comm_scalars,wall_ms"
        # t=0 row has empty lagged fields and an empty potential field
        cells = lines[3].split(",")
        assert cells[0] == "0"
        assert cells[3] == "" and cells[5] == "" and cells[7] == ""
        assert len(lines) == 3 + 4

    def test_non_finite_metric_rejected(self):
        trace = dg.IterationTrace()
        with pytest.raises(NonFiniteValue):
            trace.append(dg.TraceRow(t=0, S=float("inf")))

    def test_unknown_metric_rejected(self, triangle):
        graph, truth, meas = triangle
        with pytest.raises(InvalidParameter):
            dg.TraceRecorder(graph, meas, PenaltyParams(1, 1), metrics=("bogus",))

    def test_rmse_needs_truth(self, triangle):
        graph, _, meas = triangle
        with pytest.raises(InvalidParameter):
            dg.TraceRecorder(graph, meas, PenaltyParams(1, 1), metrics=("rmse",))

    def test_potential_needs_coefficients(self, triangle):
        graph, _, meas = triangle
        with pytest.raises(InvalidParameter, match="^potential metric needs potential_coeffs$"):
            dg.TraceRecorder(graph, meas, PenaltyParams(1, 1), metrics=["potential"])

    def test_metrics_read_once(self, triangle):
        # set(metrics) used up a generator, which then recorded nothing
        graph, truth, meas = triangle
        recorder = dg.TraceRecorder(graph, meas, PenaltyParams(1, 1), truth=truth,
                                    metrics=(name for name in ["rmse", "F"]))
        assert recorder.metrics == ("rmse", "F")

    @pytest.mark.parametrize("metrics", [3, [["rmse"]]], ids=["number", "unhashable-entry"])
    def test_metrics_must_be_names(self, triangle, metrics):
        # set(metrics) raised a raw TypeError
        graph, _, meas = triangle
        with pytest.raises(InvalidParameter, match="^metrics must be names, got "):
            dg.TraceRecorder(graph, meas, PenaltyParams(1, 1), metrics=metrics)

    @pytest.mark.parametrize("runner", [run_full, run_lite])
    @pytest.mark.parametrize("metrics", [dg.DEFAULT_METRICS, dg.TRACE_COLUMNS[1:8]])
    def test_recording_builds_no_per_node_views(self, runner, metrics, monkeypatch):
        # the recorder reads the solvers' edge arrays; no per-node block or
        # state is constructed anywhere in a recorded run
        built = []
        for cls in (NodeBlockVector, FullNodeState):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        graph, truth = random_connected_graph(np.random.default_rng(4), 12, num_anchors=3)
        meas = exact_measurements(graph, truth.positions)
        params = PenaltyParams(0.3, 0.2)
        rec = dg.TraceRecorder(
            graph, meas, params, truth=truth, metrics=metrics, potential_coeffs=(2.0, 3.0)
        )
        spec = InitSpec(kind="from_positions", positions=truth.positions, u_init="half")
        runner(graph, meas, params, spec, 6, hook=rec)
        assert len(rec.trace.rows) == 7
        assert built == []
        NodeBlockVector.zeros(1, 2)
        assert built == ["NodeBlockVector"]

    @pytest.mark.parametrize("second", ["run_full", "run_lite", "TraceRecorder"])
    def test_second_use_builds_no_ranges(self, second, monkeypatch):
        # a measurement set spreads its ranges over the edge rows once, and
        # the solvers and the recorder share that array
        graph, truth = random_connected_graph(np.random.default_rng(5), 12, num_anchors=3)
        meas = exact_measurements(graph, truth.positions)
        params, spec = PenaltyParams(0.3, 0.2), InitSpec(kind="zeros", u_init="half")
        run_full(graph, meas, params, spec, 2)
        built = []
        spread = MeasurementSet._edge_field.func

        def counting(self):
            built.append(self.graph)
            return spread(self)

        counted = functools.cached_property(counting)
        counted.__set_name__(MeasurementSet, "_edge_field")
        monkeypatch.setattr(MeasurementSet, "_edge_field", counted)
        if second == "TraceRecorder":
            rec = dg.TraceRecorder(graph, meas, params, truth=truth)
            run_lite(graph, meas, params, spec, 2, hook=rec)
        else:
            {"run_full": run_full, "run_lite": run_lite}[second](graph, meas, params, spec, 2)
        # an equal graph that is another object reads the same array
        twin = NetworkGraph.build(graph.dim, graph.num_nodes, graph.anchors, graph.edge_list)
        assert meas.edge_ranges(twin) is meas.edge_ranges(graph)
        assert built == []
        # a new set spreads its own ranges, once
        again = MeasurementSet(graph, meas.d)
        run_lite(graph, again, params, spec, 1)
        dg.TraceRecorder(graph, again, params, truth=truth)
        assert built == [graph]

    @pytest.mark.parametrize("runner", [run_full, run_lite])
    def test_stationarity_and_optimality_share_one_gradient(self, runner, monkeypatch):
        # S and F read one gradient: one per-node sum per recorded row
        calls = []
        node_sum = NetworkGraph.node_sum

        def counting(graph, x):
            calls.append(1)
            return node_sum(graph, x)

        monkeypatch.setattr(NetworkGraph, "node_sum", counting)
        graph, truth = random_connected_graph(np.random.default_rng(6), 10, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        params = PenaltyParams(0.3, 0.2)
        rec = dg.TraceRecorder(graph, meas, params, truth=truth, metrics=("S", "F"))
        per_row = []

        def hook(event):
            before = len(calls)
            rec(event)
            per_row.append(len(calls) - before)

        runner(graph, meas, params, InitSpec(kind="zeros", u_init="half"), 5, hook=hook)
        assert all(row.S is not None for row in rec.trace.rows)
        assert all(row.F is not None for row in rec.trace.rows[1:])
        assert per_row == [1] * 6


class TestResumedTrace:
    """A run resumed from returned states records, at its iteration 0, the
    row the uninterrupted run records at the iteration it stopped."""

    @staticmethod
    def instance():
        graph, truth = network.generate_rgg(108, 8, 0.23, seed=28)
        meas = network.measure(truth, graph, network.NoiseModel(sigma_add=0.02), 1028)
        return graph, meas

    @pytest.mark.parametrize("runner", [run_full, run_lite])
    @pytest.mark.parametrize("c", [0.0265, 1.0])
    @pytest.mark.parametrize("head_iters", [5, 200])
    def test_first_row_continues_the_run(self, runner, c, head_iters):
        graph, meas = self.instance()
        params, spec = PenaltyParams(c, 0.0265), InitSpec(kind="zeros", u_init="half")

        def recorder():
            return dg.TraceRecorder(graph, meas, params, metrics=("S", "P", "L"))

        whole = recorder()
        runner(graph, meas, params, spec, head_iters + 2, hook=whole)
        head = runner(graph, meas, params, spec, head_iters).states
        for start in (head, list(head)):
            tail = recorder()
            runner(graph, meas, params, start, 2, hook=tail)
            first, want = tail.trace.rows[0], whole.trace.rows[head_iters]
            for name in ("S", "P", "L"):
                a, b = getattr(first, name), getattr(want, name)
                assert abs(a - b) <= 1e-9 * abs(b), (name, a, b)
            assert tail.trace.rows[1:] == [
                replace(row, t=row.t - head_iters) for row in whole.trace.rows[head_iters + 1:]
            ]
