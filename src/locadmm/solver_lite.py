"""Low-storage distributed solver.

Rewrites the full-state iteration into two running per-edge accumulators
(alpha, beta) so a node keeps only ``4 * dim * degree + degree + 3`` scalars
between iterations, yet produces the same (p, u, lam) trajectory as
:mod:`locadmm.solver_full` from a matched start (duals at zero, replicas
built from positions). Communication swaps the accumulators instead of the
replica rows, with identical volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import IterationEvent, RunResult, check_finite, quiet_fp
from .errors import InvalidInit, InvalidParameter, MissingMessage
from .network import EdgeLayout, MeasurementSet, NetworkGraph
from .solver_full import (
    FullNodeState,
    InitSpec,
    as_positions,
    consensus_blocks,
    full_states,
    initial_fields,
    initial_u,
    require_solvable,
    stack_edge_rows,
)
from .structured_ops import NodeBlockVector, PenaltyParams, project_ball


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
    u_init,
    c: float,
    measurements: MeasurementSet,
) -> list[LiteNodeState]:
    """Build iteration-zero accumulators from a position map.

    With duals at zero and replicas built from positions, the accumulators
    start as ``alpha0 = c (x_i + x_i)`` and ``beta0 = -d u0 + x_i + x_j``.
    ``u_init`` is an init-spec keyword (``"zeros"``/``"half"``/
    ``"directions"``) or an explicit per-node list of ``(degree, dim)``
    arrays.
    """
    lay = graph.layout
    pos = as_positions(positions, graph)
    if isinstance(u_init, str):
        u = initial_u(u_init, pos, graph)
    else:
        if len(u_init) != graph.num_nodes:
            raise InvalidInit("u_init must cover every node")
        u = stack_edge_rows([np.asarray(x, dtype=float) for x in u_init], lay, "u_init")
    d = measurements.edge_ranges(graph)
    alpha, beta = start_accumulators(lay, pos, u, d, c)
    return lite_states(lay, pos, u, np.zeros_like(u), alpha, beta, d)


def start_accumulators(
    layout: EdgeLayout, pos: np.ndarray, u: np.ndarray, d: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """``alpha0`` and ``beta0`` as edge fields, for duals at zero."""
    x_i = np.take(pos, layout.src, axis=0)
    x_j = np.take(pos, layout.dst, axis=0)
    with quiet_fp():
        return c * (x_i + x_i), -(d[:, None] * u) + x_i + x_j


def lite_states(
    layout: EdgeLayout,
    p: np.ndarray,
    u: np.ndarray,
    lam: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    d: np.ndarray,
) -> list[LiteNodeState]:
    """Per-node states viewing rows of the stacked arrays."""
    split = layout.split
    return [
        LiteNodeState(p=p[i], u=u_i, lam=lam_i, alpha=a_i, beta=b_i, d=d_i)
        for i, (u_i, lam_i, a_i, b_i, d_i) in enumerate(
            zip(split(u), split(lam), split(alpha), split(beta), split(d))
        )
    ]


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
    out: list[Optional[LiteNodeState]] = [None] * graph.num_nodes
    for i in range(graph.num_nodes):
        out[i] = _advance_node(states, graph, c, rho, i)
    return out


def _advance_node(
    states: list[LiteNodeState],
    graph: NetworkGraph,
    c: float,
    rho: float,
    i: int,
) -> LiteNodeState:
    st = states[i]
    nbrs = graph.neighbors[i]
    k = len(nbrs)
    dim = graph.dim
    if k:
        alpha_in = np.stack([states[j].alpha[r] for j, r in zip(nbrs, graph.rev_pos[i])])
        beta_in = np.stack([states[j].beta[r] for j, r in zip(nbrs, graph.rev_pos[i])])
    else:
        alpha_in = np.zeros((0, dim))
        beta_in = np.zeros((0, dim))

    du = st.d[:, None] * st.u
    anchor = graph.anchors.get(i)
    if anchor is not None:
        p_new = anchor.copy()
    else:
        p_new = (2.0 * du - 2.0 * st.lam + st.alpha + st.beta).sum(axis=0) / (
            2.0 * (c + 1.0) * k
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


def reconstruct_blocks(
    states: list[LiteNodeState],
    states_prev: Optional[list[LiteNodeState]],
    graph: NetworkGraph,
    c: float,
) -> list[NodeBlockVector]:
    """Recover the replica blocks the full solver would carry.

    At iteration zero (``states_prev is None``) the replicas follow from the
    positional start; afterwards they are linear in the previous iteration's
    exchanged accumulators:
    ``z^-_{i,j} = (alpha_{i,j} + beta_{j,i}) / (2 (c+1))`` and
    ``z^+_{i,j} = (beta_{i,j} + alpha_{j,i}) / (2 (c+1))``.
    """
    if states_prev is None:
        return consensus_blocks(np.stack([s.p for s in states]), graph)
    scale = 2.0 * (c + 1.0)
    blocks = []
    for i in range(graph.num_nodes):
        nbrs = graph.neighbors[i]
        prev = states_prev[i]
        if nbrs:
            alpha_in = np.stack(
                [states_prev[j].alpha[r] for j, r in zip(nbrs, graph.rev_pos[i])]
            )
            beta_in = np.stack(
                [states_prev[j].beta[r] for j, r in zip(nbrs, graph.rev_pos[i])]
            )
        else:
            alpha_in = np.zeros((0, graph.dim))
            beta_in = np.zeros((0, graph.dim))
        blocks.append(
            NodeBlockVector(
                states[i].p.copy(),
                (prev.alpha + beta_in) / scale,
                (prev.beta + alpha_in) / scale,
            )
        )
    return blocks


def full_view(
    states: list[LiteNodeState],
    states_prev: Optional[list[LiteNodeState]],
    graph: NetworkGraph,
    c: float,
) -> list[FullNodeState]:
    """Present lite states through the full-state interface for diagnostics."""
    blocks = reconstruct_blocks(states, states_prev, graph, c)
    return [
        FullNodeState(blocks[i], states[i].u, states[i].lam)
        for i in range(graph.num_nodes)
    ]


def run_lite(
    graph: NetworkGraph,
    measurements: MeasurementSet,
    params: PenaltyParams,
    init: InitSpec | list,
    iters: int,
    *,
    seed: int = 0,
    hook=None,
    threads: int = 1,
) -> RunResult:
    """Run the low-storage solver for a fixed number of iterations.

    The recursion needs consensus-feasible replicas at start, so positional
    initialization is mandatory: ``from_positions`` uses the given map,
    ``zeros`` starts every position at the origin, and ``uniform`` draws one
    position per node (unlike the full solver's per-coordinate block draw).
    Hooks receive reconstructed full-state views; the half-step scratch is
    not reconstructed, so potential-function recording is unavailable here.
    Every node advances at once on edge arrays, bit-identical to
    :func:`step_lite` and :func:`full_view`; ``threads`` is accepted for
    compatibility and ignored.
    """
    require_solvable(graph)
    if iters < 1:
        raise InvalidParameter(f"iters must be >= 1, got {iters}")
    c, rho = params.c, params.rho
    lay = graph.layout

    if isinstance(init, list):
        if len(init) != graph.num_nodes:
            raise InvalidInit(f"expected {graph.num_nodes} node states, got {len(init)}")
        p = np.stack([s.p for s in init])
        u = stack_edge_rows([s.u for s in init], lay, "u")
        lam = stack_edge_rows([s.lam for s in init], lay, "lam")
        alpha = stack_edge_rows([s.alpha for s in init], lay, "alpha")
        beta = stack_edge_rows([s.beta for s in init], lay, "beta")
        d = stack_edge_rows([s.d for s in init], lay, "d")
    else:
        p, _, _, u = initial_fields(graph, init, seed, positional=True)
        d = measurements.edge_ranges(graph)
        alpha, beta = start_accumulators(lay, p, u, d, c)
        lam = np.zeros_like(u)

    src, rev = lay.src, lay.rev
    scale = 2.0 * (c + 1.0)
    neg_d = -d[:, None]
    with quiet_fp():
        d_rho = (d / rho)[:, None]
        d_rho_scale = (d / (rho * scale))[:, None]
    denom = (scale * lay.degrees)[:, None]
    comm_per_iter = 2 * graph.dim * lay.num_edges

    view = None
    if hook is not None:
        x_i, x_j = np.take(p, src, axis=0), np.take(p, lay.dst, axis=0)
        view = full_states(lay, p, x_i, x_j, u, lam)
        hook(IterationEvent(0, view, None, None, 0))
    for t in range(1, iters + 1):
        with quiet_fp():
            # exchange, then _advance_node on every node
            alpha_in = np.take(alpha, rev, axis=0)
            beta_in = np.take(beta, rev, axis=0)
            du = d[:, None] * u
            p = lay.node_sum(2.0 * du - 2.0 * lam + alpha + beta) / denom
            p[lay.anchor_idx] = lay.anchor_pos
            p_src = np.take(p, src, axis=0)
            plus_sum = beta + alpha_in
            u = project_ball(u + d_rho * p_src - d_rho_scale * plus_sum)
            # z^+ of the full-state view, by reconstruct_blocks
            z_plus = plus_sum / scale
            alpha_prev = alpha
            beta = neg_d * u + p_src + z_plus
            alpha = lam + 2.0 * c * p_src
            lam = lam + c * p_src - (c / scale) * (alpha_prev + beta_in)
            if hook is not None:
                z_minus = (alpha_prev + beta_in) / scale
        check_finite(t, src, p, u=u, lam=lam, alpha=alpha, beta=beta)
        if hook is not None:
            view_prev = view
            view = full_states(lay, p, z_minus, z_plus, u, lam)
            hook(IterationEvent(t, view, view_prev, None, comm_per_iter))

    return RunResult(
        states=lite_states(lay, p, u, lam, alpha, beta, d), estimates=p.copy()
    )
