"""Dense brute-force reference implementations.

Everything here materializes the structured operators from their literal
Kronecker definitions and solves the constrained projections as explicit
KKT linear systems. These paths exist to validate the matrix-free closed
forms, never to scale: they are single-threaded, dense, and refuse large
instances in the bundled self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, SingularSystem, check_integer, check_penalty, check_seed
from .network import MeasurementSet, NetworkGraph
from .structured_ops import NodeBlockVector


@dataclass
class DenseInstance:
    """Per-node dense matrices built from the Kronecker definitions.

    Indexed by node id; every matrix acts on the flat block layout
    ``[p, z^- rows, z^+ rows]``.
    """

    Q: list[np.ndarray]
    A: list[np.ndarray]
    D: list[np.ndarray]
    W: list[np.ndarray]
    cBtB: list[np.ndarray]


def build_dense(graph: NetworkGraph, measurements: MeasurementSet, c: float) -> DenseInstance:
    """Materialize every structured operator by its defining formula."""
    check_penalty("c", c)
    d_node = measurements.node_ranges(graph)
    eye_n = np.eye(graph.dim)
    Q, A, D, W, cBtB = [], [], [], [], []
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        ones = np.ones((k, 1))
        zeros = np.zeros((k, k))
        eye_k = np.eye(k)
        q = np.kron(np.hstack([ones, zeros, -eye_k]), eye_n)
        a = np.kron(np.hstack([ones, -eye_k, zeros]), eye_n)
        dmat = np.kron(np.diag(d_node[i]), eye_n)
        cbtb = c * np.abs(a.T @ a) + np.abs(q.T @ q)
        w = q.T @ q + c * (a.T @ a) + cbtb
        Q.append(q)
        A.append(a)
        D.append(dmat)
        W.append(w)
        cBtB.append(cbtb)
    return DenseInstance(Q=Q, A=A, D=D, W=W, cBtB=cBtB)


def _layout(graph: NetworkGraph):
    """Flat offsets of each node's block in the stacked global vector."""
    offsets = []
    total = 0
    for i in range(graph.num_nodes):
        offsets.append(total)
        total += (2 * len(graph.neighbors[i]) + 1) * graph.dim
    return offsets, total


def _stack(blocks) -> np.ndarray:
    return np.concatenate([b.to_flat() for b in blocks])


def _unstack(flat: np.ndarray, graph: NetworkGraph) -> list[NodeBlockVector]:
    offsets, _ = _layout(graph)
    out = []
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        size = (2 * k + 1) * graph.dim
        out.append(NodeBlockVector.from_flat(flat[offsets[i] : offsets[i] + size], k, graph.dim))
    return out


def _constraints(graph: NetworkGraph):
    """Rows of ``C x = b`` for the consensus pairs and anchor pins."""
    offsets, total = _layout(graph)
    n = graph.dim
    rows = []
    rhs = []
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        for pos, j in enumerate(graph.neighbors[i]):
            r = graph.rev_pos[i][pos]
            plus_off = offsets[i] + n * (1 + k + pos)
            minus_off = offsets[j] + n * (1 + r)
            for axis in range(n):
                row = np.zeros(total)
                row[plus_off + axis] = 1.0
                row[minus_off + axis] = -1.0
                rows.append(row)
                rhs.append(0.0)
    for i in sorted(graph.anchors):
        for axis in range(n):
            row = np.zeros(total)
            row[offsets[i] + axis] = 1.0
            rows.append(row)
            rhs.append(float(graph.anchors[i][axis]))
    return np.stack(rows), np.array(rhs)


def _weight_diagonal(graph: NetworkGraph, c: float, weighted: bool) -> np.ndarray:
    _, total = _layout(graph)
    if not weighted:
        return np.ones(total)
    w = np.empty(total)
    pos = 0
    n = graph.dim
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        w[pos : pos + n] = 2.0 * (c + 1.0) * k
        pos += n
        w[pos : pos + n * k] = 2.0 * c
        pos += n * k
        w[pos : pos + n * k] = 2.0
        pos += n * k
    return w


def solve_z_subproblem_dense(
    ztilde_blocks,
    c: float,
    graph: NetworkGraph,
    weighted: bool = True,
) -> list[NodeBlockVector]:
    """Projection onto the consensus-and-anchor set via the KKT system.

    With ``weighted=True`` the metric is the solvers' diagonal half-step
    Hessian (this is the problem the distributed combine solves in closed
    form); with ``weighted=False`` it is the Euclidean projection used by
    the optimality gap. Generic pivoted solve; no performance goals.
    """
    offsets, total = _layout(graph)
    if total > 200 * graph.dim:
        raise InvalidParameter("dense solve is restricted to toy instances")
    target = _stack(ztilde_blocks)
    weights = _weight_diagonal(graph, c, weighted)
    C, b = _constraints(graph)
    m = C.shape[0]
    kkt = np.zeros((total + m, total + m))
    kkt[:total, :total] = np.diag(weights)
    kkt[:total, total:] = C.T
    kkt[total:, :total] = C
    rhs = np.concatenate([weights * target, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return _unstack(sol[:total], graph)


def solve_z_subproblem_substitution(
    ztilde_blocks,
    c: float,
    graph: NetworkGraph,
    weighted: bool = True,
) -> list[NodeBlockVector]:
    """Same projection by eliminating the constraints.

    Substitutes one shared variable per consensus pair and drops anchored
    p-blocks, then solves the reduced normal equations. Exists purely to
    cross-check the KKT route.
    """
    offsets, total = _layout(graph)
    n = graph.dim
    weights = _weight_diagonal(graph, c, weighted)
    target = _stack(ztilde_blocks)

    free_cols: list[np.ndarray] = []
    fixed = np.zeros(total)

    def basis(col_off: int) -> np.ndarray:
        col = np.zeros(total)
        col[col_off] = 1.0
        return col

    for i in range(graph.num_nodes):
        if i in graph.anchors:
            fixed[offsets[i] : offsets[i] + n] = graph.anchors[i]
        else:
            for axis in range(n):
                free_cols.append(basis(offsets[i] + axis))
    for i in range(graph.num_nodes):
        k = len(graph.neighbors[i])
        for pos, j in enumerate(graph.neighbors[i]):
            r = graph.rev_pos[i][pos]
            plus_off = offsets[i] + n * (1 + k + pos)
            minus_off = offsets[j] + n * (1 + r)
            for axis in range(n):
                col = np.zeros(total)
                col[plus_off + axis] = 1.0
                col[minus_off + axis] = 1.0
                free_cols.append(col)

    S = np.stack(free_cols, axis=1)
    WS = weights[:, None] * S
    try:
        reduced = np.linalg.solve(S.T @ WS, WS.T @ (target - fixed))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    return _unstack(S @ reduced + fixed, graph)


def finite_diff_grad(fn, point: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for idx in range(point.size):
        bump = np.zeros_like(point)
        bump[idx] = step
        grad[idx] = (fn(point + bump) - fn(point - bump)) / (2.0 * step)
    return grad


@dataclass
class OracleReport:
    """Outcome of the closed-form-versus-dense self-check."""

    max_operator_error: float
    max_combine_error: float
    max_projection_error: float
    trials: int
    passed: bool

    OPERATOR_TOL = 1e-12
    COMBINE_TOL = 1e-10
    PROJECTION_TOL = 1e-10


def oracle_check(
    graph: NetworkGraph,
    measurements: MeasurementSet,
    c: float = 1.0,
    seed: int = 0,
    trials: int = 20,
) -> OracleReport:
    """Run the full closed-form-versus-dense battery on a small instance.

    Compares every structured operator, the distributed combine, and the
    unweighted consensus projection against their dense counterparts on
    random inputs. Refuses instances with more than 8 nodes, fewer than
    one trial, which would check nothing, and a node without a neighbor,
    whose dense ``W`` is singular.
    """
    from . import structured_ops as ops
    from .solver_full import combine_z, gather_inbox, local_halfstep, FullNodeState

    if graph.num_nodes > 8:
        raise InvalidParameter(
            f"oracle check is for toy instances (N <= 8), got N={graph.num_nodes}"
        )
    trials = check_integer("trials", trials, 1)
    check_seed(seed)
    if not graph.degrees.all():
        node = int(np.argmin(graph.degrees))
        raise InvalidParameter(
            f"oracle check needs every node to have a neighbor; node {node} has none"
        )
    dense = build_dense(graph, measurements, c)
    d_node = measurements.node_ranges(graph)
    rng = np.random.default_rng(seed)
    n = graph.dim

    op_err = 0.0
    combine_err = 0.0
    proj_err = 0.0
    for _ in range(trials):
        blocks = []
        us, lams = [], []
        for i in range(graph.num_nodes):
            k = len(graph.neighbors[i])
            blocks.append(
                NodeBlockVector(
                    rng.normal(size=n),
                    rng.normal(size=(k, n)),
                    rng.normal(size=(k, n)),
                )
            )
            us.append(rng.normal(size=(k, n)))
            lams.append(rng.normal(size=(k, n)))

        for i in range(graph.num_nodes):
            flat = blocks[i].to_flat()
            pairs = [
                (ops.apply_Q(blocks[i]).ravel(), dense.Q[i] @ flat),
                (ops.apply_A(blocks[i]).ravel(), dense.A[i] @ flat),
                (ops.apply_At(lams[i]).to_flat(), dense.A[i].T @ lams[i].ravel()),
                (
                    ops.apply_Qt_D(us[i], d_node[i]).to_flat(),
                    dense.Q[i].T @ dense.D[i] @ us[i].ravel(),
                ),
                (ops.apply_cBtB(blocks[i], c).to_flat(), dense.cBtB[i] @ flat),
                (ops.apply_W(blocks[i], c).to_flat(), dense.W[i] @ flat),
                (
                    ops.apply_W_inverse(blocks[i], c).to_flat(),
                    np.linalg.solve(dense.W[i], flat),
                ),
                (
                    ops.grad_F_z(blocks[i], us[i], d_node[i]).to_flat(),
                    dense.Q[i].T @ (dense.Q[i] @ flat)
                    - dense.Q[i].T @ dense.D[i] @ us[i].ravel(),
                ),
            ]
            for got, want in pairs:
                op_err = max(op_err, float(np.abs(got - want).max(initial=0.0)))

        # combine versus the weighted dense projection
        states = [
            FullNodeState(blocks[i], us[i], lams[i]) for i in range(graph.num_nodes)
        ]
        ztilde = [
            local_halfstep(states[i], d_node[i], c, graph.anchors.get(i))
            for i in range(graph.num_nodes)
        ]
        combined = [
            combine_z(ztilde[i], gather_inbox(ztilde, graph, i), c)
            for i in range(graph.num_nodes)
        ]
        solved = solve_z_subproblem_dense(ztilde, c, graph, weighted=True)
        for got, want in zip(combined, solved):
            combine_err = max(
                combine_err, float(np.abs(got.to_flat() - want.to_flat()).max(initial=0.0))
            )

        projected = ops.project_consensus(blocks, graph)
        solved_eu = solve_z_subproblem_dense(blocks, c, graph, weighted=False)
        for got, want in zip(projected, solved_eu):
            proj_err = max(
                proj_err, float(np.abs(got.to_flat() - want.to_flat()).max(initial=0.0))
            )

    passed = (
        op_err <= OracleReport.OPERATOR_TOL
        and combine_err <= OracleReport.COMBINE_TOL
        and proj_err <= OracleReport.PROJECTION_TOL
    )
    return OracleReport(
        max_operator_error=op_err,
        max_combine_error=combine_err,
        max_projection_error=proj_err,
        trials=trials,
        passed=passed,
    )
