"""Low-storage distributed solver.

Rewrites the full-state iteration into two running per-edge accumulators
(alpha, beta) so a node keeps only ``4 * dim * degree + degree + 3`` scalars
between iterations, yet produces the same (p, u, lam) trajectory as
:mod:`locadmm.solver_full` from a matched start (duals at zero, replicas
built from positions). Communication swaps the accumulators instead of the
replica rows, with identical volume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunResult, check_finite, drive, hook_record, iterate, quiet_fp
from .errors import InvalidInit, MissingMessage, check_penalty, check_type
from .network import MeasurementSet, NetworkGraph
from .solver_full import (
    InitSpec,
    as_positions,
    check_run,
    consensus_blocks,
    consensus_state,
    init_full,
)
from .structured_ops import (
    EdgeBlocks,
    EdgeCoefficients,
    EdgeStates,
    FullNodeState,
    NodeBlockVector,
    PenaltyParams,
    check_kind,
    check_layout,
    edge_rows,
    project_ball,
    spread,
)


@dataclass(frozen=True)
class LiteNodeState:
    """Per-node state of the low-storage recursion.

    ``alpha`` accumulates the dual plus the scaled own-replica sum, ``beta``
    the measurement-adjusted plus-replica sum; ``p`` is the current estimate
    (recomputed every iteration, not part of the persistent storage claim).
    """

    p: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    d: np.ndarray


@dataclass(frozen=True, eq=False)
class LiteStates(Sequence):
    """Every node's :class:`LiteNodeState` stacked: ``p`` has a row per node,
    the other fields a row per directed edge, node ``i`` owning rows
    ``offsets[i]:offsets[i+1]`` (:class:`~locadmm.network.NetworkGraph`
    order). ``states[i]`` builds node ``i``'s state of views."""

    offsets: np.ndarray
    p: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    d: np.ndarray

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, i) -> LiteNodeState:
        i = range(len(self))[i]
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return LiteNodeState(
            self.p[i], self.u[rows], self.lam[rows], self.alpha[rows], self.beta[rows], self.d[rows]
        )

    @classmethod
    def of(cls, states, graph: NetworkGraph) -> "LiteStates":
        """``states`` if stacked, else its :class:`LiteNodeState` entries
        stacked; either way with ``graph.degrees[i]`` rows of every edge
        field at node ``i`` (:class:`~locadmm.errors.InvalidInit` otherwise)."""
        if isinstance(states, cls):
            return check_layout(states, states.offsets, graph)
        check_kind(states, cls, LiteNodeState)
        u, lam, alpha, beta, d = (
            edge_rows([getattr(s, f) for s in states], graph.offsets, f)
            for f in ("u", "lam", "alpha", "beta", "d")
        )
        return cls(graph.offsets, np.stack([s.p for s in states]), u, lam, alpha, beta, d)


def serialize_state(state: LiteNodeState, c: float, rho: float) -> np.ndarray:
    """Flatten exactly the scalars a node must keep between iterations:
    the four per-edge fields, the ranges, and ``(c, rho, degree)``."""
    k = state.d.shape[0]
    return np.concatenate(
        [
            state.u.ravel(),
            state.lam.ravel(),
            state.alpha.ravel(),
            state.beta.ravel(),
            state.d,
            np.array([c, rho, float(k)]),
        ]
    )


def init_lite(
    graph: NetworkGraph,
    positions: np.ndarray,
    u_init: str,
    c: float,
    measurements: MeasurementSet,
) -> LiteStates:
    """Iteration-zero accumulators (:func:`lite_start`) of the
    :func:`~locadmm.solver_full.consensus_state` at ``positions``.
    ``u_init`` is an init-spec keyword (``"zeros"``/``"half"``/
    ``"directions"``, the last along ``positions``)."""
    check_penalty("c", c)
    check_type("measurements", measurements, MeasurementSet)
    view = consensus_state(graph, as_positions(positions, graph), u_init)
    return lite_start(graph, view, measurements.edge_ranges(graph), c)


def lite_start(graph: NetworkGraph, view: EdgeStates, d: np.ndarray, c) -> LiteStates:
    """The accumulators of a consensus state ``view`` with zero duals:
    ``alpha0 = c (x_i + x_i)`` and ``beta0 = -d u0 + x_i + x_j``, with
    ``x_i`` and ``x_j`` its z^- and z^+ rows. ``graph`` may be a
    :meth:`~locadmm.network.NetworkGraph.stack` graph, ``c`` one per copy."""
    x_i, x_j = view.blocks.z_minus, view.blocks.z_plus
    c_e = spread(graph.edge_column(c), graph.dim)
    with quiet_fp():
        alpha, beta = c_e * (x_i + x_i), -(d[:, None] * view.u) + x_i + x_j
    return LiteStates(graph.offsets, view.blocks.p, view.u, view.lam, alpha, beta, d)


def step_lite(
    states: list[LiteNodeState],
    graph: NetworkGraph,
    c: float,
    rho: float,
) -> list[LiteNodeState]:
    """One exchange-then-update round over all nodes.

    Every update reads the iteration-t snapshot only (in particular the dual
    step reads the pre-update dual and the accumulators as exchanged), which
    the functional update below guarantees without explicit copies.
    """
    if len(states) != graph.num_nodes:
        raise MissingMessage(
            f"expected {graph.num_nodes} node states, got {len(states)}"
        )
    return [_advance_node(states, graph, c, rho, i) for i in range(graph.num_nodes)]


def _inbox(states, graph: NetworkGraph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The one exchange of a round: the rows ``alpha_{j,i}`` and
    ``beta_{j,i}`` that each neighbor ``j`` of node ``i`` holds toward it,
    in ``graph.neighbors[i]`` order."""
    pairs = list(zip(graph.neighbors[i], graph.rev_pos[i]))
    if not pairs:
        return np.zeros((0, graph.dim)), np.zeros((0, graph.dim))
    alpha_in = np.stack([states[j].alpha[r] for j, r in pairs])
    beta_in = np.stack([states[j].beta[r] for j, r in pairs])
    return alpha_in, beta_in


def _advance_node(
    states: list[LiteNodeState],
    graph: NetworkGraph,
    c: float,
    rho: float,
    i: int,
) -> LiteNodeState:
    st = states[i]
    alpha_in, beta_in = _inbox(states, graph, i)

    du = st.d[:, None] * st.u
    anchor = graph.anchors.get(i)
    if anchor is not None:
        p_new = anchor.copy()
    else:
        p_new = (2.0 * du - 2.0 * st.lam + st.alpha + st.beta).sum(axis=0) / (
            2.0 * (c + 1.0) * len(alpha_in)
        )

    scale = 2.0 * (c + 1.0)
    u_tilde = st.u + (st.d / rho)[:, None] * p_new[None, :] - (
        st.d / (rho * scale)
    )[:, None] * (st.beta + alpha_in)
    u_new = project_ball(u_tilde)

    beta_new = -st.d[:, None] * u_new + p_new[None, :] + (st.beta + alpha_in) / scale
    alpha_new = st.lam + 2.0 * c * p_new[None, :]
    lam_new = st.lam + c * p_new[None, :] - (c / scale) * (st.alpha + beta_in)

    return LiteNodeState(
        p=p_new, u=u_new, lam=lam_new, alpha=alpha_new, beta=beta_new, d=st.d
    )


def full_view(
    states: list[LiteNodeState],
    states_prev: Optional[list[LiteNodeState]],
    graph: NetworkGraph,
    c: float,
) -> list[FullNodeState]:
    """Present lite states through the full-state interface for diagnostics,
    with the replica blocks the full solver would carry.

    At iteration zero (``states_prev is None``) the replicas follow from the
    positional start; afterwards they are linear in the previous iteration's
    exchanged accumulators:
    ``z^-_{i,j} = (alpha_{i,j} + beta_{j,i}) / (2 (c+1))`` and
    ``z^+_{i,j} = (beta_{i,j} + alpha_{j,i}) / (2 (c+1))``.
    """
    if states_prev is None:
        blocks = consensus_blocks(np.stack([s.p for s in states]), graph)
        return [FullNodeState(b, s.u, s.lam) for b, s in zip(blocks, states)]
    scale = 2.0 * (c + 1.0)
    view = []
    for i in range(graph.num_nodes):
        st, prev = states[i], states_prev[i]
        alpha_in, beta_in = _inbox(states_prev, graph, i)
        z_minus, z_plus = (prev.alpha + beta_in) / scale, (prev.beta + alpha_in) / scale
        view.append(FullNodeState(NodeBlockVector(st.p.copy(), z_minus, z_plus), st.u, st.lam))
    return view


def run_lite(
    graph: NetworkGraph,
    measurements: MeasurementSet,
    params: PenaltyParams,
    init: InitSpec | Sequence[LiteNodeState],
    iters: int,
    *,
    seed: int = 0,
    hook=None,
    threads: int = 1,
) -> RunResult:
    """Run the low-storage solver for a fixed number of iterations.

    ``init`` is an :class:`~locadmm.solver_full.InitSpec`, a
    :class:`LiteStates` (such as ``RunResult.states``, to resume a run; its
    arrays are read, not copied) or a per-node state sequence, whose ranges
    must be those of ``measurements`` (:class:`~locadmm.errors.InvalidInit`
    otherwise). An ``InitSpec`` starts, as in
    :func:`~locadmm.solver_full.run_full`, from
    :func:`~locadmm.solver_full.init_full`'s consensus state; either start
    goes to :func:`lite_steps`, which hands the hook its iteration-0 view.
    Hooks receive reconstructed full-state views; the half-step
    scratch is not reconstructed, so potential-function recording is
    unavailable here.
    Every node advances at once on edge arrays (:func:`lite_steps`),
    bit-identical to :func:`step_lite` and :func:`full_view`; ``threads`` is
    accepted for compatibility and ignored. The per-edge coefficients are
    built once per ``(measurements, c, rho)`` and held on ``measurements``
    (:meth:`~locadmm.structured_ops.EdgeCoefficients.held`), so a run made
    of short calls builds them once.
    """
    check_run(graph, measurements, iters)
    check_type("params", params, PenaltyParams)
    c, rho = params.c, params.rho
    d = measurements.edge_ranges(graph)
    if isinstance(init, InitSpec):
        start = init_full(graph, init, seed)
    else:
        start = LiteStates.of(init, graph)
        if start.d is not d and not np.array_equal(start.d, d):
            raise InvalidInit("start ranges do not match the measurements")
    coef = EdgeCoefficients.held(measurements, graph, d, c, rho)
    steps = lite_steps(graph, coef, start, views=hook is not None)
    record = None if hook is None else hook_record(hook, 2 * graph.dim * graph.sum_degree)
    last = drive(steps, iters, lambda t, fields: check_finite(t, graph.src, **fields), record)
    return RunResult(states=LiteStates(graph.offsets, d=d, **last), estimates=last["p"].copy())


def start_view(graph: NetworkGraph, start: LiteStates, c) -> EdgeStates:
    """The full-state view of a resumed start: the replicas its accumulators
    hold, inverting ``alpha = lam + c (p + z^-)`` and
    ``beta = -d u + p + z^+``."""
    p_src = np.take(start.p, graph.src, axis=0)
    with quiet_fp():
        z_minus = (start.alpha - start.lam) / c - p_src
        z_plus = start.beta + start.d[:, None] * start.u - p_src
    return EdgeStates(EdgeBlocks(graph.offsets, start.p, z_minus, z_plus), start.u, start.lam)


def lite_steps(graph: NetworkGraph, coef: EdgeCoefficients, start, views: bool):
    """Iterate the low-storage recursion from ``start``, a fresh consensus
    ``EdgeStates`` (:func:`lite_start` forms its accumulators) or a resumed
    :class:`LiteStates`, yielded first as its view, the consensus state or
    :func:`start_view`; then one yield per iteration: the new fields by
    name, in that order; when ``views``, their full-state ``EdgeStates``
    view, whose ``p_src`` is the iteration's gathered ``p``, else ``None``
    (the start's too); ``None`` for the half-step blocks, which this
    solver does not form; and whether to scan the fields
    (:func:`~locadmm.engine.iterate`).

    ``graph`` may be a :meth:`~locadmm.network.NetworkGraph.stack` graph, with
    ``coef`` and ``start`` stacked to match: every copy then advances as it
    would alone. The iterates never write an array of ``start``, of
    ``coef`` or one they have yielded, so :func:`~locadmm.engine.iterate`
    can make an iteration that raised a floating-point flag again from its
    inputs; as :func:`~locadmm.solver_full.full_steps`, it reads ``coef``
    when called.
    """
    if isinstance(start, EdgeStates):
        first, start = (start if views else None), lite_start(graph, start, coef.ranges, coef.c)
    else:
        first = start_view(graph, start, coef.c) if views else None
    src, rev = graph.src, graph.rev
    d_u, d_rho, d_rho_scale, denom = coef.d, coef.d_rho, coef.d_rho_scale, coef.denom
    c_e, two_c, scale, c_scale = coef.c_e, coef.two_c, coef.scale, coef.c_scale

    du_next = None  # d u of the last iterate, formed by its beta step

    def advance(u, lam, alpha, beta):
        # _advance_node on every node, its exchange included, in place on
        # arrays made this iteration and not yet handed out; d u is read,
        # never written, and formed from u where no beta step left it: on a
        # call's first iteration, and on an iteration made again
        nonlocal du_next
        du, du_next = du_next, None
        if du is None:
            du = d_u * u
        # p = node_sum(2 d u - 2 lam + alpha + beta) / (scale k)
        acc = du * 2.0
        tmp = 2.0 * lam
        acc -= tmp
        acc += alpha
        acc += beta
        p = graph.node_sum(acc)
        p /= denom
        p[graph.anchor_idx] = graph.anchor_pos
        p_src = p.take(src, axis=0)
        # plus_sum = alpha_in + beta, and minus_sum = alpha + beta_in is its
        # mirror row: row rev e of plus_sum adds the same two operands
        plus_sum = alpha.take(rev, axis=0)
        plus_sum += beta
        minus_sum = plus_sum.take(rev, axis=0)
        # u = proj(u + (d / rho) p - (d / (rho scale)) (beta + alpha_in))
        u_t = np.multiply(d_rho, p_src, out=acc)
        u_t += u
        u_t -= np.multiply(d_rho_scale, plus_sum, out=tmp)
        u = project_ball(u_t)
        # the replicas of the full-state view, as full_view forms them:
        # z^+ = (beta + alpha_in) / scale, z^- = (alpha + beta_in) / scale
        z_plus = plus_sum
        z_plus /= scale
        if views:
            z_minus = minus_sum / scale
        # beta = -d u + p + z^+ (as p - d u + z^+, the same bits),
        # alpha = lam + 2 c p, and
        # lam = lam + c p - (c / scale) (alpha + beta_in), with the old alpha
        du = np.multiply(d_u, u, out=tmp)
        beta = p_src - du
        beta += z_plus
        alpha = p_src * two_c
        alpha += lam
        if views:
            # the view keeps p_src, so lam cannot take its buffer
            lam_new = p_src * c_e
        else:
            lam_new = p_src
            lam_new *= c_e
        lam_new += lam
        minus_sum *= c_scale
        lam_new -= minus_sum
        lam = lam_new
        fields = {"p": p, "u": u, "lam": lam, "alpha": alpha, "beta": beta}
        view = None
        if views:
            view = EdgeStates(EdgeBlocks(graph.offsets, p, z_minus, z_plus, p_src), u, lam)
        du_next = du
        return (u, lam, alpha, beta), fields, view, None

    return iterate(first, advance, (start.u, start.lam, start.alpha, start.beta), coef.finite)
