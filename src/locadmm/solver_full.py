"""Full-state distributed solver.

One iteration per node: a diagonal half-step on the stacked block
``(p, z^-, z^+)``, a broadcast of the two replica rows per neighbor, the
closed-form combine that lands the replicas back on the consensus set, the
ball-projected direction update, and the dual ascent step. The per-node
functions below are the specification; :func:`run_full` applies them to
every node at once on edge arrays (see :mod:`locadmm.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import IterationEvent, RunResult, check_finite, quiet_fp
from .errors import (
    DisconnectedGraph,
    InvalidInit,
    InvalidInitSpec,
    InvalidParameter,
    MissingMessage,
)
from .network import EdgeLayout, MeasurementSet, NetworkGraph
from .structured_ops import NodeBlockVector, PenaltyParams, node_blocks, project_ball


@dataclass(frozen=True)
class FullNodeState:
    """Per-node state between iterations: block ``(p, z^-, z^+)``, ball-
    feasible direction rows ``u``, and dual rows ``lam``. The half-step
    scratch block lives outside the state, produced and consumed within one
    iteration."""

    block: NodeBlockVector
    u: np.ndarray
    lam: np.ndarray


@dataclass(frozen=True)
class EdgeMessage:
    """Replica payload sent from ``src`` to ``dst`` along one graph edge."""

    src: int
    dst: int
    payload_minus: np.ndarray
    payload_plus: np.ndarray


@dataclass(frozen=True)
class InitSpec:
    """How to build iteration-zero state.

    kind
        ``"zeros"``, ``"uniform"`` (every block coordinate i.i.d. on
        ``[lo, hi]``), or ``"from_positions"`` (consensus-feasible blocks
        built from ``positions``: own replicas at own position, plus-replicas
        at the neighbor's).
    u_init
        ``"zeros"``, ``"half"`` (all coordinates 0.5), or ``"directions"``
        (unit vectors along ``x_i - x_j``; needs positions).

    Duals always start at zero.
    """

    kind: str = "zeros"
    lo: float = -1.0
    hi: float = 1.0
    positions: Optional[np.ndarray] = None
    u_init: str = "zeros"

    KINDS = ("zeros", "uniform", "from_positions")
    U_KINDS = ("zeros", "half", "directions")


def consensus_blocks(positions: np.ndarray, graph: NetworkGraph) -> list[NodeBlockVector]:
    """Consensus-feasible blocks from a position map: ``p_i = x_i``,
    ``z^-_{i,j} = x_i``, ``z^+_{i,j} = x_j``."""
    blocks = []
    for i in range(graph.num_nodes):
        nbrs = graph.neighbors[i]
        x_i = np.asarray(positions[i], dtype=float)
        blocks.append(
            NodeBlockVector(
                x_i.copy(),
                np.tile(x_i, (len(nbrs), 1)),
                np.stack([np.asarray(positions[j], dtype=float) for j in nbrs])
                if nbrs
                else np.zeros((0, graph.dim)),
            )
        )
    return blocks


def edge_directions(positions: np.ndarray, layout: EdgeLayout) -> np.ndarray:
    """Unit direction rows ``(x_i - x_j)/||x_i - x_j||`` per directed edge
    ``(i, j)``; zero rows where the two positions coincide."""
    diff = np.take(positions, layout.src, axis=0) - np.take(positions, layout.dst, axis=0)
    # Each row's matmul with itself is the dot product np.linalg.norm takes of
    # one row; (diff * diff).sum(axis=1) rounds differently.
    norm = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    rows = np.zeros_like(diff)
    moved = norm > 0.0
    rows[moved] = diff[moved] / norm[moved, None]
    return rows


def initial_directions(positions: np.ndarray, graph: NetworkGraph) -> list[np.ndarray]:
    """Per node, the rows of :func:`edge_directions`."""
    return graph.layout.split(edge_directions(as_positions(positions, graph), graph.layout))


def as_positions(positions, graph: NetworkGraph) -> np.ndarray:
    """A float copy of a ``(num_nodes, dim)`` position map."""
    if positions is None:
        raise InvalidInit("positional initialization needs a positions array")
    pos = np.array(positions, dtype=float)
    if pos.shape != (graph.num_nodes, graph.dim):
        raise InvalidInit(f"positions shape {pos.shape} does not match the graph")
    return pos


def initial_fields(
    graph: NetworkGraph, spec: InitSpec, seed: int = 0, *, positional: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iteration-zero ``(p, z^-, z^+, u)``: positions ``(num_nodes, dim)`` and
    edge fields ``(E, dim)`` in the graph's edge-layout order.

    ``positional`` builds the replicas from a position map, as the
    low-storage solver needs: ``uniform`` draws one position per node, and
    ``directions`` points along those start positions. Otherwise ``uniform``
    draws every block coordinate, node by node (p, then the z^- rows, then
    the z^+ rows) from one seeded generator, and ``directions`` points along
    ``spec.positions``.
    """
    if spec.kind not in InitSpec.KINDS:
        raise InvalidInitSpec(f"unknown init kind {spec.kind!r}")
    if spec.u_init not in InitSpec.U_KINDS:
        raise InvalidInitSpec(f"unknown u_init {spec.u_init!r}")
    lay = graph.layout
    n, dim, num_edges = graph.num_nodes, graph.dim, lay.num_edges

    if spec.kind == "from_positions":
        pos = as_positions(spec.positions, graph)
    elif spec.kind == "zeros":
        pos = np.zeros((n, dim))
    else:
        if not (spec.lo < spec.hi):
            raise InvalidInitSpec(f"uniform bounds [{spec.lo}, {spec.hi}) are empty")
        rng = np.random.default_rng(seed)
        pos = rng.uniform(spec.lo, spec.hi, (n, dim)) if positional else None

    if pos is not None:
        p = pos
        z_minus = np.take(pos, lay.src, axis=0)
        z_plus = np.take(pos, lay.dst, axis=0)
    else:
        # Node i's draws start at row i + 2 offsets[i]: its p row, then its
        # z^- rows, then its z^+ rows.
        rows = rng.uniform(spec.lo, spec.hi, (n + 2 * num_edges, dim))
        minus_rows = lay.src + lay.offsets[lay.src] + 1 + np.arange(num_edges)
        p = np.take(rows, np.arange(n) + 2 * lay.offsets[:-1], axis=0)
        z_minus = np.take(rows, minus_rows, axis=0)
        z_plus = np.take(rows, minus_rows + lay.degrees[lay.src], axis=0)

    u = initial_u(spec.u_init, pos if positional else spec.positions, graph)
    return p, z_minus, z_plus, u


def initial_u(u_init: str, positions, graph: NetworkGraph) -> np.ndarray:
    """Iteration-zero direction rows as one edge field: ``zeros``, ``half``
    (all coordinates 0.5), or ``directions`` along ``positions``."""
    shape = (graph.layout.num_edges, graph.dim)
    if u_init == "zeros":
        return np.zeros(shape)
    if u_init == "half":
        return np.full(shape, 0.5)
    if u_init != "directions":
        raise InvalidInitSpec(f"unknown u_init {u_init!r}")
    if positions is None:
        raise InvalidInitSpec("u_init 'directions' needs positions")
    return edge_directions(as_positions(positions, graph), graph.layout)


def full_states(
    layout: EdgeLayout,
    p: np.ndarray,
    z_minus: np.ndarray,
    z_plus: np.ndarray,
    u: np.ndarray,
    lam: np.ndarray,
) -> list[FullNodeState]:
    """Per-node states viewing rows of the stacked arrays."""
    return [
        FullNodeState(blk, u_i, lam_i)
        for blk, u_i, lam_i in zip(
            node_blocks(layout, p, z_minus, z_plus), layout.split(u), layout.split(lam)
        )
    ]


def stack_edge_rows(rows: Sequence[np.ndarray], layout: EdgeLayout, what: str) -> np.ndarray:
    """Concatenate per-node ``(degree, ...)`` arrays into one edge field."""
    if [len(r) for r in rows] != layout.degrees.tolist():
        raise InvalidInit(f"{what} rows do not match the node degrees")
    return np.concatenate(rows)


def init_full(graph: NetworkGraph, config: InitSpec, seed: int = 0) -> list[FullNodeState]:
    """Build iteration-zero states for :func:`run_full`.

    Uniform draws walk the nodes in order (p, then z^- rows, then z^+ rows)
    from one seeded generator, so identical arguments give identical state.
    """
    p, z_minus, z_plus, u = initial_fields(graph, config, seed)
    return full_states(graph.layout, p, z_minus, z_plus, u, np.zeros_like(u))


def local_halfstep(
    state: FullNodeState,
    d_i: np.ndarray,
    c: float,
    anchor: Optional[np.ndarray] = None,
) -> NodeBlockVector:
    """Diagonal half-step producing the pre-projection block.

    Closed form, per neighbor j with range d and degree k:

    * ``p~   = sum_j [d u_j - lam_j + c (p + z^-_j) + p + z^+_j] / (2 (c+1) k)``
      (overridden to the anchor position for anchor nodes),
    * ``z~^-_j = lam_j / (2 c) + (p + z^-_j) / 2``,
    * ``z~^+_j = -d u_j / 2 + (p + z^+_j) / 2``.
    """
    blk = state.block
    base_minus = blk.p[None, :] + blk.z_minus
    base_plus = blk.p[None, :] + blk.z_plus
    du = np.asarray(d_i, dtype=float)[:, None] * state.u
    k = blk.degree
    p_t = (du - state.lam + c * base_minus + base_plus).sum(axis=0) / (2.0 * (c + 1.0) * k)
    if anchor is not None:
        p_t = np.asarray(anchor, dtype=float).copy()
    zm_t = state.lam / (2.0 * c) + base_minus / 2.0
    zp_t = -du / 2.0 + base_plus / 2.0
    return NodeBlockVector(p_t, zm_t, zp_t)


def gather_inbox(ztilde: Sequence[NodeBlockVector], graph: NetworkGraph, i: int) -> list[EdgeMessage]:
    """Collect the replica rows every neighbor of ``i`` broadcast this round."""
    inbox = []
    for k, j in enumerate(graph.neighbors[i]):
        r = graph.rev_pos[i][k]
        inbox.append(
            EdgeMessage(
                src=j,
                dst=i,
                payload_minus=ztilde[j].z_minus[r],
                payload_plus=ztilde[j].z_plus[r],
            )
        )
    return inbox


def combine_z(
    ztilde_i: NodeBlockVector,
    incoming: Sequence[EdgeMessage],
    c: float,
    node: Optional[int] = None,
    neighbors: Optional[Sequence[int]] = None,
    anchor: Optional[np.ndarray] = None,
) -> NodeBlockVector:
    """Closed-form combine of own and received half-step replicas.

    ``z^-_j = (c z~^-_j + z~^+ received) / (c+1)`` and symmetrically for
    ``z^+``; both endpoints of an edge evaluate the same expression in the
    same operand order, so the consensus constraint holds bitwise. The
    p-block passes through (anchors were pinned in the half-step).

    When ``node``/``neighbors`` are given, each message's addressing is
    checked and a wrong or missing payload raises :class:`MissingMessage`.
    """
    k = ztilde_i.degree
    if len(incoming) != k:
        raise MissingMessage(f"expected {k} messages, got {len(incoming)}")
    if neighbors is not None:
        for pos, msg in enumerate(incoming):
            if msg.src != neighbors[pos] or (node is not None and msg.dst != node):
                raise MissingMessage(
                    f"message {pos} addressed ({msg.src}->{msg.dst}), "
                    f"expected ({neighbors[pos]}->{node})"
                )
    recv_minus = np.stack([m.payload_minus for m in incoming]) if k else np.zeros((0, ztilde_i.dim))
    recv_plus = np.stack([m.payload_plus for m in incoming]) if k else np.zeros((0, ztilde_i.dim))
    p_new = np.asarray(anchor, dtype=float).copy() if anchor is not None else ztilde_i.p.copy()
    zm_new = (c * ztilde_i.z_minus + recv_plus) / (c + 1.0)
    zp_new = (ztilde_i.z_plus + c * recv_minus) / (c + 1.0)
    return NodeBlockVector(p_new, zm_new, zp_new)


def update_u(
    state: FullNodeState, z_new: NodeBlockVector, d_i: np.ndarray, rho: float
) -> np.ndarray:
    """Proximal direction step followed by the unit-ball projection:
    ``u_j <- proj( u_j + (d_j / rho) (p - z^+_j) )``."""
    step = (np.asarray(d_i, dtype=float) / rho)[:, None] * (z_new.p[None, :] - z_new.z_plus)
    return project_ball(state.u + step)


def update_lambda(state: FullNodeState, z_new: NodeBlockVector, c: float) -> np.ndarray:
    """Dual ascent on the self-replica constraint:
    ``lam_j <- lam_j + c (p - z^-_j)``."""
    return state.lam + c * (z_new.p[None, :] - z_new.z_minus)


def require_solvable(graph: NetworkGraph) -> None:
    if not graph.connected:
        raise DisconnectedGraph("solver requires a connected graph")
    if not graph.anchors:
        raise DisconnectedGraph("solver requires at least one anchor")


def run_full(
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
    """Run the full-state solver for a fixed number of iterations.

    ``init`` is an :class:`InitSpec` or an explicit state list. ``hook`` is
    invoked after every iteration with an
    :class:`~locadmm.engine.IterationEvent`; iteration 0 fires before any
    update. Every node advances at once on edge arrays, bit-identical to
    :func:`local_halfstep`, :func:`gather_inbox`, :func:`combine_z`,
    :func:`update_u` and :func:`update_lambda` applied node by node.
    Deterministic for fixed inputs; ``threads`` is accepted for
    compatibility and ignored.

    Raises
    ------
    NonFiniteValue
        As soon as any state coordinate diverges to NaN/inf, naming the
        iteration, node and field.
    """
    require_solvable(graph)
    if iters < 1:
        raise InvalidParameter(f"iters must be >= 1, got {iters}")
    lay = graph.layout
    if isinstance(init, list):
        if len(init) != graph.num_nodes:
            raise InvalidInit(f"expected {graph.num_nodes} node states, got {len(init)}")
        p = np.stack([s.block.p for s in init])
        z_minus = stack_edge_rows([s.block.z_minus for s in init], lay, "z_minus")
        z_plus = stack_edge_rows([s.block.z_plus for s in init], lay, "z_plus")
        u = stack_edge_rows([s.u for s in init], lay, "u")
        lam = stack_edge_rows([s.lam for s in init], lay, "lam")
    else:
        p, z_minus, z_plus, u = initial_fields(graph, init, seed)
        lam = np.zeros_like(u)
    c, rho = params.c, params.rho
    src, rev = lay.src, lay.rev
    d = measurements.edge_ranges(graph)[:, None]
    with quiet_fp():
        d_rho = d / rho
    denom = (2.0 * (c + 1.0) * lay.degrees)[:, None]
    comm_per_iter = 2 * graph.dim * lay.num_edges

    states = None
    if hook is not None:
        states = init if isinstance(init, list) else full_states(lay, p, z_minus, z_plus, u, lam)
        hook(IterationEvent(0, states, None, None, 0))
    for t in range(1, iters + 1):
        with quiet_fp():
            # half-step (local_halfstep)
            p_src = np.take(p, src, axis=0)
            base_minus = p_src + z_minus
            base_plus = p_src + z_plus
            du = d * u
            p = lay.node_sum(du - lam + c * base_minus + base_plus) / denom
            p[lay.anchor_idx] = lay.anchor_pos
            zm_t = lam / (2.0 * c) + base_minus / 2.0
            zp_t = -du / 2.0 + base_plus / 2.0
            # exchange and combine (gather_inbox, combine_z)
            z_minus = (c * zm_t + np.take(zp_t, rev, axis=0)) / (c + 1.0)
            z_plus = (zp_t + c * np.take(zm_t, rev, axis=0)) / (c + 1.0)
            # direction and dual steps (update_u, update_lambda)
            p_src = np.take(p, src, axis=0)
            u = project_ball(u + d_rho * (p_src - z_plus))
            lam = lam + c * (p_src - z_minus)
        check_finite(t, src, p, z_minus=z_minus, z_plus=z_plus, u=u, lam=lam)
        if hook is not None:
            states_prev = states
            states = full_states(lay, p, z_minus, z_plus, u, lam)
            ztilde = node_blocks(lay, p, zm_t, zp_t)
            hook(IterationEvent(t, states, states_prev, ztilde, comm_per_iter))

    return RunResult(
        states=full_states(lay, p, z_minus, z_plus, u, lam), estimates=p.copy()
    )
