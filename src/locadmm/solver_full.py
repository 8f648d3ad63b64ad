"""Full-state distributed solver.

One iteration per node: a diagonal half-step on the stacked block
``(p, z^-, z^+)``, a broadcast of the two replica rows per neighbor, the
closed-form combine that lands the replicas back on the consensus set, the
ball-projected direction update, and the dual ascent step. The per-node
functions below are the specification; :func:`run_full` applies them to
every node at once on edge arrays (see :mod:`locadmm.engine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import RunResult, check_finite, drive, hook_record
from .errors import DisconnectedGraph, InvalidInit, InvalidInitSpec, MissingMessage
from .errors import check_choice, check_integer, check_numbers, check_real, check_seed, check_type
from .network import MeasurementSet, NetworkGraph, row_norms
from .structured_ops import (
    EdgeBlocks,
    EdgeCoefficients,
    EdgeStates,
    FullNodeState,
    NodeBlockVector,
    PenaltyParams,
    project_ball,
)


@dataclass(frozen=True)
class EdgeMessage:
    """Replica payload sent from ``src`` to ``dst`` along one graph edge."""

    src: int
    dst: int
    payload_minus: np.ndarray
    payload_plus: np.ndarray


@dataclass(frozen=True)
class InitSpec:
    """How to build iteration-zero state: both solvers start from the
    consensus-feasible state at :func:`start_positions` (see
    :func:`consensus_state`).

    kind
        ``"zeros"`` (every node at the origin), ``"uniform"`` (one position
        per node, each coordinate i.i.d. on ``[lo, hi)``), or
        ``"from_positions"`` (``positions``).
    u_init
        ``"zeros"``, ``"half"`` (all coordinates 0.5), or ``"directions"``
        (unit vectors along ``x_i - x_j`` of the start positions).

    Duals always start at zero.
    """

    kind: str = "zeros"
    lo: float = -1.0
    hi: float = 1.0
    positions: Optional[np.ndarray] = None
    u_init: str = "zeros"


def consensus_blocks(positions: np.ndarray, graph: NetworkGraph) -> list[NodeBlockVector]:
    """Consensus-feasible blocks from a position map: ``p_i = x_i``,
    ``z^-_{i,j} = x_i``, ``z^+_{i,j} = x_j``."""
    pos = np.asarray(positions, dtype=float)
    return [
        NodeBlockVector(pos[i].copy(), np.tile(pos[i], (len(nbrs), 1)), pos[list(nbrs)])
        for i, nbrs in enumerate(graph.neighbors)
    ]


def as_positions(positions, graph: NetworkGraph) -> np.ndarray:
    """A float copy of a ``(num_nodes, dim)`` map of finite positions."""
    if positions is None:
        raise InvalidInit("positional initialization needs a positions array")
    pos = check_numbers("positions", positions, InvalidInit)
    if pos.shape != (graph.num_nodes, graph.dim):
        raise InvalidInit(f"positions shape {pos.shape} does not match the graph")
    bad = np.flatnonzero(~np.isfinite(pos).all(axis=1))
    if bad.size:
        raise InvalidInit(f"start position of node {bad[0]} is not finite")
    return pos


def start_positions(graph: NetworkGraph, spec: InitSpec, seed: int = 0) -> np.ndarray:
    """One start position per node, ``(num_nodes, dim)``: ``spec.positions``
    (``from_positions``), the origin (``zeros``), or one uniform draw per
    node from a generator seeded with ``seed`` (``uniform``)."""
    check_seed(seed)
    kind = check_choice("init kind", spec.kind, ("zeros", "uniform", "from_positions"), InvalidInitSpec)
    if kind == "from_positions":
        return as_positions(spec.positions, graph)
    if kind == "zeros":
        return np.zeros((graph.num_nodes, graph.dim))
    lo, hi = (check_real(name, getattr(spec, name), InvalidInitSpec) for name in ("lo", "hi"))
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidInitSpec(f"uniform bounds [{lo}, {hi}) are empty or unbounded")
    return np.random.default_rng(seed).uniform(lo, hi, (graph.num_nodes, graph.dim))


def consensus_state(graph: NetworkGraph, positions: np.ndarray, u_init: str) -> EdgeStates:
    """The consensus-feasible state at ``positions``, held as ``p``: each z^-
    row at its owner's position, each z^+ row at its neighbor's, directions
    by the init-spec keyword ``u_init`` (``zeros``, ``half``: all
    coordinates 0.5, or ``directions``: the unit rows along z^- - z^+, zero
    where the two coincide), and zero duals. ``graph`` may be a
    :meth:`~locadmm.network.NetworkGraph.stack` graph."""
    u_init = check_choice("u_init", u_init, ("zeros", "half", "directions"), InvalidInitSpec)
    shape = (graph.sum_degree, graph.dim)
    z_minus = np.take(positions, graph.src, axis=0)
    z_plus = np.take(positions, graph.dst, axis=0)
    if u_init == "zeros":
        u = np.zeros(shape)
    elif u_init == "half":
        u = np.full(shape, 0.5)
    else:
        diff = z_minus - z_plus
        norm = row_norms(diff)
        u = np.zeros_like(diff)
        moved = norm > 0.0
        u[moved] = diff[moved] / norm[moved, None]
    return EdgeStates(EdgeBlocks(graph.offsets, positions, z_minus, z_plus), u, np.zeros_like(u))


def init_full(graph: NetworkGraph, config: InitSpec, seed: int = 0) -> EdgeStates:
    """Iteration-zero states for :func:`run_full`: the :func:`consensus_state`
    at :func:`start_positions`, as :func:`~locadmm.solver_lite.run_lite`
    starts from the same arguments."""
    check_type("graph", graph, NetworkGraph)
    check_type("config", config, InitSpec)
    return consensus_state(graph, start_positions(graph, config, seed), config.u_init)


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
    if anchor is not None:
        p_t = np.asarray(anchor, dtype=float).copy()
    else:
        p_t = (du - state.lam + c * base_minus + base_plus).sum(axis=0) / (
            2.0 * (c + 1.0) * blk.degree
        )
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
    p_new = ztilde_i.p.copy()
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


def check_run(graph: NetworkGraph, measurements: MeasurementSet, iters: int) -> None:
    """What every run needs, whatever its start: a connected graph with at
    least one anchor, a measurement set, and at least one iteration."""
    check_type("graph", graph, NetworkGraph)
    check_type("measurements", measurements, MeasurementSet)
    if not graph.connected:
        raise DisconnectedGraph("solver requires a connected graph")
    if not graph.num_anchors:
        raise DisconnectedGraph("solver requires at least one anchor")
    check_integer("iters", iters, 1)


def run_full(
    graph: NetworkGraph,
    measurements: MeasurementSet,
    params: PenaltyParams,
    init: InitSpec | Sequence[FullNodeState],
    iters: int,
    *,
    seed: int = 0,
    hook=None,
    threads: int = 1,
) -> RunResult:
    """Run the full-state solver for a fixed number of iterations.

    ``init`` is an :class:`InitSpec`, an :class:`EdgeStates` (such as
    ``RunResult.states``, to resume a run) or a per-node state list.
    ``hook`` is invoked after every iteration with an
    :class:`~locadmm.engine.IterationEvent`; iteration 0 fires before any
    update. Every node advances at once on edge arrays (:func:`full_steps`),
    bit-identical to :func:`local_halfstep`, :func:`gather_inbox`,
    :func:`combine_z`, :func:`update_u` and :func:`update_lambda` applied
    node by node, as :func:`run_steps` runs them. Deterministic for fixed
    inputs; ``threads`` is accepted for compatibility and ignored.

    Raises
    ------
    NonFiniteValue
        As soon as any state coordinate diverges to NaN/inf, naming the
        iteration, node and field.
    """
    check_run(graph, measurements, iters)
    check_type("params", params, PenaltyParams)
    start = EdgeStates.of(init_full(graph, init, seed) if isinstance(init, InitSpec) else init, graph)
    last = run_steps(full_steps, graph, measurements, params, start, iters, hook)
    return RunResult(states=full_states(graph.offsets, last), estimates=last["p"].copy())


def run_steps(
    steps, graph: NetworkGraph, measurements: MeasurementSet, params: PenaltyParams, start, iters, hook
) -> dict:
    """The last fields of ``iters`` iterations of a solver's ``steps``
    (:func:`full_steps` or :func:`~locadmm.solver_lite.lite_steps`) from
    ``start``, driven by :func:`~locadmm.engine.drive`, which hands every
    iterate to ``hook`` (through :func:`~locadmm.engine.hook_record`) and
    the ones the floating-point flags cannot vouch for to
    :func:`~locadmm.engine.check_finite`. The per-edge coefficients are
    built once per ``(measurements, c, rho)`` and held on ``measurements``
    (:meth:`~locadmm.structured_ops.EdgeCoefficients.held`), so a run made
    of short calls builds them once."""
    coef = EdgeCoefficients.held(measurements, graph, params.c, params.rho)
    record = None if hook is None else hook_record(hook, 2 * graph.dim * graph.sum_degree)
    return drive(
        steps(graph, coef, start, views=hook is not None), iters,
        lambda t, fields: check_finite(t, graph.src, **fields), record, coef.finite,
    )


def full_states(offsets: np.ndarray, fields: dict, p_src=None) -> EdgeStates:
    """The :class:`EdgeStates` of the fields :func:`full_steps` yields, with
    ``p_src`` as its blocks' ``gathered`` ``p``."""
    blocks = EdgeBlocks(offsets, fields["p"], fields["z_minus"], fields["z_plus"], p_src)
    return EdgeStates(blocks, fields["u"], fields["lam"])


def full_steps(graph: NetworkGraph, coef: EdgeCoefficients, start: EdgeStates, views: bool):
    """Iterate the full-state solver from ``start``, yielded first as its
    own view, then one yield per iteration: the new ``p``, ``z_minus``,
    ``z_plus``, ``u`` and ``lam`` by name, in that order; then, when
    ``views``, their ``EdgeStates`` and the half-step ``EdgeBlocks``, else
    ``None`` twice (the start's view too). Both views share the new ``p``,
    and their ``p_src`` is the iteration's gathered ``p``, which the
    iterates read but never write.

    ``graph`` may be a :meth:`~locadmm.network.NetworkGraph.stack` graph, with
    ``coef`` and ``start`` stacked to match: every copy then advances as it
    would alone. The iterates never write an array of ``start``, of
    ``coef`` or one they have yielded. It reads ``coef`` when called: a
    solve builds its coefficients as set-up, before its iteration-0 hook.
    """
    src, rev, offsets = graph.src, graph.rev, graph.offsets
    d_u, d_rho, denom = coef.d, coef.d_rho, coef.denom
    c_e, two_c, c1 = coef.c_e, coef.two_c, coef.c1

    def iterates(first, p, z_minus, z_plus, u, lam):
        yield first
        del first  # held no longer than any later view
        # p gathered to its edges; each iteration's dual step gathers the next one
        p_src = p.take(src, axis=0)
        while True:
            # half-step (local_halfstep), in place on arrays made this iteration
            # and not yet handed out; p_src is read, never written
            base_minus = p_src + z_minus
            base_plus = p_src + z_plus
            # p = node_sum(d u - lam + c base_minus + base_plus) / (2 (c+1) k)
            du = d_u * u
            acc = du - lam
            tmp = base_minus * c_e
            acc += tmp
            acc += base_plus
            p = graph.node_sum(acc)
            p /= denom
            p[graph.anchor_idx] = graph.anchor_pos
            # zm_t = lam / (2 c) + base_minus / 2, zp_t = -d u / 2 + base_plus / 2
            # (-d u * 0.5 rounds the same real number as -d u / 2)
            zm_t = np.divide(lam, two_c, out=tmp)
            base_minus /= 2.0
            zm_t += base_minus
            zp_t = du * -0.5
            base_plus /= 2.0
            zp_t += base_plus
            # exchange and combine (gather_inbox, combine_z):
            # z^-_e = (c zm_t[e] + zp_t[rev e]) / (c+1), and z^+_e is the mirror
            # row z^-_{rev e} = (c zm_t[rev e] + zp_t[e]) / (c+1): the same
            # operands, as combine_z forms z^+ at the edge's other end, and c
            # is one number per copy, which rev never leaves
            z_minus = np.multiply(zm_t, c_e, out=acc)
            z_minus += zp_t.take(rev, axis=0)
            z_minus /= c1
            z_plus = z_minus.take(rev, axis=0)
            # direction and dual steps (update_u, update_lambda):
            # u = proj(u + (d / rho) (p - z^+)), lam = lam + c (p - z^-)
            p_src = p.take(src, axis=0)
            u_t = np.subtract(p_src, z_plus, out=base_minus)
            u_t *= d_rho
            u_t += u
            u = project_ball(u_t)
            lam_new = p_src - z_minus
            lam_new *= c_e
            lam_new += lam
            lam = lam_new
            fields = {"p": p, "z_minus": z_minus, "z_plus": z_plus, "u": u, "lam": lam}
            if views:
                now = full_states(offsets, fields, p_src)
                yield fields, now, EdgeBlocks(offsets, p, zm_t, zp_t, p_src)
            else:
                yield fields, None, None

    b = start.blocks
    return iterates(start if views else None, b.p, b.z_minus, b.z_plus, start.u, start.lam)
