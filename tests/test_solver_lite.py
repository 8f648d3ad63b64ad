import numpy as np
import pytest

from locadmm import diagnostics as dg
from locadmm import structured_ops as ops
from locadmm.errors import InvalidInit, InvalidParameter, MissingMessage
from locadmm.network import MeasurementSet, rmse
from locadmm.solver_full import InitSpec, init_full, run_full
from locadmm.solver_lite import (
    LiteNodeState,
    LiteStates,
    full_view,
    init_lite,
    run_lite,
    serialize_state,
    step_lite,
)
from locadmm.structured_ops import PenaltyParams

from conftest import exact_measurements, make_graph, random_connected_graph


def trajectory_hook(store):
    def hook(event):
        store.append(
            [
                (s.block.p.copy(), s.u.copy(), s.lam.copy())
                for s in event.states
            ]
        )

    return hook


def max_rel_gap(traj_a, traj_b):
    worst = 0.0
    for snap_a, snap_b in zip(traj_a, traj_b):
        for (pa, ua, la), (pb, ub, lb) in zip(snap_a, snap_b):
            scale = 1.0 + max(
                np.abs(pa).max(initial=0.0),
                np.abs(ua).max(initial=0.0),
                np.abs(la).max(initial=0.0),
            )
            gap = max(
                np.abs(pa - pb).max(initial=0.0),
                np.abs(ua - ub).max(initial=0.0),
                np.abs(la - lb).max(initial=0.0),
            )
            worst = max(worst, gap / scale)
    return worst


class TestInitLite:
    def test_alpha_hand_value(self):
        # lam=0, c=1, x_i=1 with one neighbor: alpha0 = c(x_i + x_i) = 2
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        pos = np.array([[1.0, 1.0], [3.0, 3.0]])
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0})
        states = init_lite(graph, pos, "zeros", 1.0, meas)
        assert states[0].alpha == pytest.approx(np.array([[2.0, 2.0]]))

    def test_beta_hand_value(self):
        # d=1, u0=0, x_i=1, x_j=3: beta0 = -d u + x_i + x_j = 4
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        pos = np.array([[1.0, 1.0], [3.0, 3.0]])
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0})
        states = init_lite(graph, pos, "zeros", 1.0, meas)
        assert states[0].beta == pytest.approx(np.array([[4.0, 4.0]]))

    def test_matches_full_init(self):
        rng = np.random.default_rng(0)
        graph, truth = random_connected_graph(rng, 7, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        c = 0.8
        lite = init_lite(graph, truth.positions, "half", c, meas)
        full = init_full(
            graph,
            InitSpec(kind="from_positions", positions=truth.positions, u_init="half"),
            0,
        )
        d_node = meas.node_ranges(graph)
        for i in range(graph.num_nodes):
            assert np.abs(lite[i].p - full[i].block.p).max() < 1e-14
            assert np.abs(lite[i].u - full[i].u).max() < 1e-14
            assert np.abs(lite[i].lam - full[i].lam).max() < 1e-14
            want_alpha = full[i].lam + c * (
                full[i].block.p[None, :] + full[i].block.z_minus
            )
            want_beta = (
                -d_node[i][:, None] * full[i].u
                + full[i].block.p[None, :]
                + full[i].block.z_plus
            )
            assert np.abs(lite[i].alpha - want_alpha).max() < 1e-14
            assert np.abs(lite[i].beta - want_beta).max() < 1e-14

    def test_missing_positions(self):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0})
        with pytest.raises(InvalidInit):
            init_lite(graph, np.zeros((1, 2)), "zeros", 1.0, meas)

    @pytest.mark.parametrize(
        "c, message",
        [("x", "c must be a number, got 'x'"), (-1.0, "c must be positive and finite, got -1.0"),
         (np.inf, "c must be positive and finite, got inf")],
    )
    def test_c_must_be_a_penalty(self, c, message):
        # "x" raised a raw UFuncTypeError, and -1.0 built accumulators with a
        # negative penalty
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        meas = MeasurementSet.from_pairs(graph, {(0, 1): 1.0})
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            init_lite(graph, np.zeros((2, 2)), "zeros", c, meas)


class TestStepLite:
    def test_position_hand_value(self):
        # c=1, one neighbor, scalars: u=0, lam=0, alpha=2, beta=4
        # p_new = (0 - 0 + 2 + 4) / (2 * 2 * 1) = 1.5
        graph = make_graph(2, [(0, 1)], {1: [9.0, 9.0]})
        states = [
            LiteNodeState(
                p=np.zeros(2),
                u=np.zeros((1, 2)),
                lam=np.zeros((1, 2)),
                alpha=np.full((1, 2), 2.0),
                beta=np.full((1, 2), 4.0),
                d=np.array([1.0]),
            ),
            LiteNodeState(
                p=np.zeros(2),
                u=np.zeros((1, 2)),
                lam=np.zeros((1, 2)),
                alpha=np.zeros((1, 2)),
                beta=np.zeros((1, 2)),
                d=np.array([1.0]),
            ),
        ]
        out = step_lite(states, graph, 1.0, 1.0)
        assert out[0].p == pytest.approx([1.5, 1.5])

    def test_anchor_pinned(self):
        graph = make_graph(2, [(0, 1)], {1: [9.0, -9.0]})
        rng = np.random.default_rng(1)
        states = [
            LiteNodeState(
                p=rng.normal(size=2),
                u=rng.normal(size=(1, 2)),
                lam=rng.normal(size=(1, 2)),
                alpha=rng.normal(size=(1, 2)),
                beta=rng.normal(size=(1, 2)),
                d=np.array([0.5]),
            )
            for _ in range(2)
        ]
        out = step_lite(states, graph, 0.7, 0.4)
        assert np.array_equal(out[1].p, [9.0, -9.0])

    def test_wrong_state_count(self):
        graph = make_graph(2, [(0, 1)], {0: [0.0, 0.0]})
        with pytest.raises(MissingMessage):
            step_lite([], graph, 1.0, 1.0)


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trajectories_match_full_solver(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(6, 16))
        graph, truth = random_connected_graph(rng, n_nodes, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        x0 = rng.uniform(-1.0, 1.0, (n_nodes, 2))
        spec = InitSpec(kind="from_positions", positions=x0, u_init="half")
        params = PenaltyParams(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))

        traj_full, traj_lite = [], []
        run_full(graph, meas, params, spec, 200, hook=trajectory_hook(traj_full))
        run_lite(graph, meas, params, spec, 200, hook=trajectory_hook(traj_lite))
        assert len(traj_full) == len(traj_lite) == 201
        assert max_rel_gap(traj_full, traj_lite) < 1e-9

    def test_reconstructed_replicas_match_full_blocks(self):
        rng = np.random.default_rng(3)
        graph, truth = random_connected_graph(rng, 8, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        x0 = rng.uniform(0.0, 1.0, (8, 2))
        spec = InitSpec(kind="from_positions", positions=x0, u_init="zeros")
        params = PenaltyParams(0.4, 0.3)

        blocks_full, blocks_lite = [], []
        run_full(
            graph, meas, params, spec, 60,
            hook=lambda e: blocks_full.append([s.block for s in e.states]),
        )
        run_lite(
            graph, meas, params, spec, 60,
            hook=lambda e: blocks_lite.append([s.block for s in e.states]),
        )
        worst = 0.0
        for snap_a, snap_b in zip(blocks_full, blocks_lite):
            for a, b in zip(snap_a, snap_b):
                worst = max(worst, np.abs(a.to_flat() - b.to_flat()).max())
        assert worst < 1e-9

    def test_zero_noise_triangle_stationary(self, triangle):
        graph, truth, meas = triangle
        spec = InitSpec(
            kind="from_positions", positions=truth.positions, u_init="directions"
        )
        result = run_lite(graph, meas, PenaltyParams(0.5, 0.5), spec, 50)
        assert rmse(result.estimates, truth, graph) < 1e-12

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(4)
        graph, truth = random_connected_graph(rng, 15, num_anchors=3)
        meas = exact_measurements(graph, truth.positions)
        spec = InitSpec(kind="zeros", u_init="half")
        params = PenaltyParams(0.2, 0.2)
        outs = {}
        for threads in (1, 4, 8):
            traj = []
            run_lite(graph, meas, params, spec, 25, hook=trajectory_hook(traj), threads=threads)
            outs[threads] = traj
        for threads in (4, 8):
            for snap_a, snap_b in zip(outs[1], outs[threads]):
                for (pa, ua, la), (pb, ub, lb) in zip(snap_a, snap_b):
                    assert np.array_equal(pa, pb)
                    assert np.array_equal(ua, ub)
                    assert np.array_equal(la, lb)


class TestLiteStates:
    def setup_instance(self):
        graph, truth = random_connected_graph(np.random.default_rng(7), 9, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        spec = InitSpec(kind="from_positions", positions=truth.positions, u_init="half")
        return graph, meas, PenaltyParams(0.3, 0.2), spec

    def test_resume_builds_no_node_states(self, monkeypatch):
        # results are stacked, and resuming reads their arrays as they are
        built = []

        def counting(self, *args, _init=LiteNodeState.__init__, **kwargs):
            built.append(1)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(LiteNodeState, "__init__", counting)
        graph, meas, params, spec = self.setup_instance()
        head = run_lite(graph, meas, params, spec, 3)
        assert isinstance(head.states, LiteStates)
        rec = dg.TraceRecorder(graph, meas, params, metrics=("S", "U", "P", "F", "L"))
        tail = run_lite(graph, meas, params, head.states, 4, hook=rec)
        assert isinstance(tail.states, LiteStates)
        assert rec.trace.rows[0].S is not None
        assert built == []
        assert tail.states[0].p is not None
        assert built == [1]

    def test_resume_from_any_sequence(self):
        graph, meas, params, spec = self.setup_instance()
        whole = run_lite(graph, meas, params, spec, 5).states
        head = run_lite(graph, meas, params, spec, 2).states
        for start in (head, list(head), tuple(head)):
            tail = run_lite(graph, meas, params, start, 3).states
            for f in ("p", "u", "lam", "alpha", "beta", "d"):
                assert getattr(tail, f).tobytes() == getattr(whole, f).tobytes(), f

    def test_views_of_the_stacked_arrays(self):
        graph, meas, params, spec = self.setup_instance()
        states = run_lite(graph, meas, params, spec, 2).states
        assert len(states) == graph.num_nodes
        assert states[-1].p is not None and states[-1].u.base is states.u
        for i, st in enumerate(states):
            rows = slice(graph.offsets[i], graph.offsets[i + 1])
            assert st.alpha.tobytes() == states.alpha[rows].tobytes()
            assert st.p.tobytes() == states.p[i].tobytes()
        with pytest.raises(IndexError):
            states[graph.num_nodes]
        assert LiteStates.of(states, graph) is states

    def test_state_rows_must_match_degrees(self):
        graph, meas, params, spec = self.setup_instance()
        states = list(init_lite(graph, spec.positions, "half", params.c, meas))
        k = graph.degrees.argmax()
        states[k] = LiteNodeState(**{**vars(states[k]), "lam": states[k].lam[:1]})
        with pytest.raises(InvalidInit, match="^lam rows do not match the node degrees$"):
            run_lite(graph, meas, params, states, 1)
        with pytest.raises(InvalidInit, match="^u rows"):
            run_lite(graph, meas, params, states[:-1], 1)


    def test_resume_with_other_ranges_is_rejected(self):
        graph, meas, params, spec = self.setup_instance()
        other = MeasurementSet(graph, meas.d * 1.5)
        head = run_lite(graph, meas, params, spec, 2).states
        for start in (head, list(head)):
            with pytest.raises(InvalidInit, match="^start ranges do not match"):
                run_lite(graph, other, params, start, 3)
        # equal ranges in another array are accepted
        same = MeasurementSet(graph, meas.d.copy())
        tail = run_lite(graph, same, params, list(head), 3).states
        whole = run_lite(graph, meas, params, spec, 5).states
        assert tail.p.tobytes() == whole.p.tobytes()


class TestStorage:
    def test_serialized_size_exact(self):
        rng = np.random.default_rng(5)
        for num_nodes in (4, 7, 10):
            graph, truth = random_connected_graph(rng, num_nodes, num_anchors=1)
            meas = exact_measurements(graph, truth.positions)
            states = init_lite(graph, truth.positions, "zeros", 0.9, meas)
            for i, st in enumerate(states):
                degree = len(graph.neighbors[i])
                expected = 4 * graph.dim * degree + degree + 3
                assert serialize_state(st, 0.9, 0.7).size == expected

    def test_ball_feasibility(self):
        rng = np.random.default_rng(6)
        graph, truth = random_connected_graph(rng, 10, num_anchors=2)
        meas = exact_measurements(graph, truth.positions)
        worst = []
        run_lite(
            graph,
            meas,
            PenaltyParams(0.1, 0.08),
            InitSpec(kind="zeros", u_init="half"),
            80,
            hook=lambda e: worst.append(
                max(
                    float(np.linalg.norm(s.u, axis=1).max(initial=0.0))
                    for s in e.states
                )
            ),
        )
        assert max(worst) <= 1.0 + 1e-12
