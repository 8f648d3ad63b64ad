"""Matrix-free applications of the per-node structured operators.

Every operator here acts on one node's block of variables ``(p, z^-, z^+)``
or on a per-edge field, and reduces to O(dim * degree) closed-form loops; no
matrix is ever materialized. Per-edge fields are ``(degree, dim)`` arrays
aligned with the graph's sorted neighbor lists. These closed forms are the
specification the dense oracle and the tests check; the diagnostics and
:func:`project_consensus` evaluate them on ``(E, dim)`` edge arrays, which
:class:`EdgeBlocks` and :class:`EdgeStates` hold for solvers, hooks and
diagnostics alike.

Block-vector conventions, for a node with degree ``k`` in dimension ``n``:

* ``Q v  = p - z_plus[j]`` per neighbor (measurement differences),
* ``A v  = p - z_minus[j]`` per neighbor (self-replica residual),
* the scaled diagonal ``W`` has weights ``2(c+1)k`` on the ``p`` block,
  ``2c`` on each ``z^-`` row and ``2`` on each ``z^+`` row.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .engine import quiet_fp
from .errors import InvalidInit, InvalidParameter, MissingNode, check_penalty
from .network import NetworkGraph, edge_lengths


@dataclass
class NodeBlockVector:
    """One node's stacked variables ``(p, z^-, z^+)``.

    ``p`` has shape ``(dim,)``; ``z_minus`` and ``z_plus`` have shape
    ``(degree, dim)`` with rows in sorted-neighbor order.
    """

    p: np.ndarray
    z_minus: np.ndarray
    z_plus: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.z_minus = np.asarray(self.z_minus, dtype=float)
        self.z_plus = np.asarray(self.z_plus, dtype=float)
        if self.p.ndim != 1:
            raise InvalidParameter(f"p must be a vector, got shape {self.p.shape}")
        want = (self.z_minus.shape[0], self.p.shape[0])
        if self.z_minus.shape != want or self.z_plus.shape != want:
            raise InvalidParameter(
                f"replica blocks must both have shape {want}, got "
                f"{self.z_minus.shape} and {self.z_plus.shape}"
            )

    @property
    def degree(self) -> int:
        return self.z_minus.shape[0]

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def copy(self) -> "NodeBlockVector":
        return NodeBlockVector(self.p.copy(), self.z_minus.copy(), self.z_plus.copy())

    def to_flat(self) -> np.ndarray:
        """Stack as ``[p, z^- rows, z^+ rows]``, the dense operators' layout."""
        return np.concatenate([self.p, self.z_minus.ravel(), self.z_plus.ravel()])

    @classmethod
    def from_flat(cls, flat: np.ndarray, degree: int, dim: int) -> "NodeBlockVector":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != ((2 * degree + 1) * dim,):
            raise InvalidParameter(f"flat block has wrong length {flat.shape}")
        p = flat[:dim]
        zm = flat[dim : dim * (degree + 1)].reshape(degree, dim)
        zp = flat[dim * (degree + 1) :].reshape(degree, dim)
        return cls(p.copy(), zm.copy(), zp.copy())

    @classmethod
    def zeros(cls, degree: int, dim: int) -> "NodeBlockVector":
        return cls(np.zeros(dim), np.zeros((degree, dim)), np.zeros((degree, dim)))


@dataclass(frozen=True)
class FullNodeState:
    """Per-node state between iterations: block ``(p, z^-, z^+)``, ball-
    feasible direction rows ``u``, and dual rows ``lam``. The half-step
    scratch block lives outside the state, produced and consumed within one
    iteration."""

    block: NodeBlockVector
    u: np.ndarray
    lam: np.ndarray


def edge_rows(rows, offsets=None, what: str = "rows") -> np.ndarray:
    """``rows`` if it is one edge field, else its per-node ``(degree, ...)``
    arrays stacked; node ``i`` must have ``offsets[i+1] - offsets[i]`` rows."""
    if isinstance(rows, np.ndarray):
        return rows
    if offsets is not None and [len(r) for r in rows] != np.diff(offsets).tolist():
        raise InvalidInit(f"{what} rows do not match the node degrees")
    return np.concatenate(rows)


def check_layout(stacked, offsets: np.ndarray, graph: Optional[NetworkGraph]):
    """``stacked``, whose node ``i`` owns rows ``offsets[i]:offsets[i+1]``,
    if those are the rows ``graph`` gives node ``i`` (or no graph is given)."""
    if graph is None or offsets is graph.offsets or np.array_equal(offsets, graph.offsets):
        return stacked
    raise InvalidInit("stacked rows do not match the node degrees")


def check_kind(states, stacked: type, kind: type) -> None:
    """Raise :class:`~locadmm.errors.InvalidInit` unless every entry of
    ``states`` is a ``kind``, naming the forms expected (``stacked``, or a
    ``kind`` per node): so the other solver's states are refused."""
    for s in states:
        if not isinstance(s, kind):
            raise InvalidInit(f"expected {stacked.__name__} or a {kind.__name__} per node, "
                              f"got {type(s).__name__}")


@dataclass(frozen=True, eq=False)
class EdgeBlocks(Sequence):
    """Every node's block stacked: ``p`` has a row per node, ``z_minus`` and
    ``z_plus`` a row per directed edge, node ``i`` owning rows
    ``offsets[i]:offsets[i+1]`` (:class:`~locadmm.network.NetworkGraph` order).
    ``blocks[i]`` builds node ``i``'s :class:`NodeBlockVector` of views.

    ``gathered``, when given, is taken as :attr:`p_src`: the solvers pass
    the ``p`` their iteration has already gathered to the edges
    (``p.take(src)``, bit-equal to ``p`` repeated by degree), and nothing
    writes it afterwards."""

    offsets: np.ndarray
    p: np.ndarray
    z_minus: np.ndarray
    z_plus: np.ndarray
    gathered: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, gathered):
        if gathered is not None:
            # the slot cached_property fills on first read, and reads first
            self.__dict__["p_src"] = gathered

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, i) -> NodeBlockVector:
        rows = self.rows(i)
        return NodeBlockVector(self.p[i], self.z_minus[rows], self.z_plus[rows])

    def rows(self, i) -> slice:
        """Node ``i``'s rows of every edge field."""
        i = range(len(self))[i]
        return slice(self.offsets[i], self.offsets[i + 1])

    @cached_property
    def p_src(self) -> np.ndarray:
        """Row ``e`` is the ``p`` of the node owning edge row ``e``."""
        return np.repeat(self.p, np.diff(self.offsets), axis=0)

    @classmethod
    def of(cls, blocks, graph: Optional[NetworkGraph] = None) -> "EdgeBlocks":
        """``blocks`` if stacked, else its per-node blocks stacked, with the
        row counts checked against ``graph`` when given."""
        if isinstance(blocks, cls):
            return check_layout(blocks, blocks.offsets, graph)
        offsets = np.cumsum([0] + [b.degree for b in blocks]) if graph is None else graph.offsets
        z_minus, z_plus = (edge_rows([getattr(b, f) for b in blocks], offsets, f)
                           for f in ("z_minus", "z_plus"))
        return cls(offsets, np.stack([b.p for b in blocks]), z_minus, z_plus)


@dataclass(frozen=True, eq=False)
class EdgeStates(Sequence):
    """Every node's :class:`FullNodeState` stacked: the blocks, and ``u`` and
    ``lam`` as edge fields. ``states[i]`` builds node ``i``'s state of views."""

    blocks: EdgeBlocks
    u: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i) -> FullNodeState:
        rows = self.blocks.rows(i)
        return FullNodeState(self.blocks[i], self.u[rows], self.lam[rows])

    @classmethod
    def of(cls, states, graph: Optional[NetworkGraph] = None) -> "EdgeStates":
        """As :meth:`EdgeBlocks.of`, for states."""
        if isinstance(states, cls):
            return check_layout(states, states.blocks.offsets, graph)
        check_kind(states, cls, FullNodeState)
        blocks = EdgeBlocks.of([s.block for s in states], graph)
        u, lam = (edge_rows([getattr(s, f) for s in states], blocks.offsets, f)
                  for f in ("u", "lam"))
        return cls(blocks, u, lam)


@dataclass(frozen=True)
class PenaltyParams:
    """Positive finite penalty pair: ``c`` on the feasibility term in the
    augmented Lagrangian, ``rho`` on the proximal term of the direction
    update."""

    c: float
    rho: float

    def __post_init__(self):
        check_penalty("c", self.c)
        check_penalty("rho", self.rho)


def apply_Q(v: NodeBlockVector) -> np.ndarray:
    """Per-neighbor measurement differences ``p - z_plus[j]``."""
    return v.p[None, :] - v.z_plus


def apply_A(v: NodeBlockVector) -> np.ndarray:
    """Per-neighbor self-replica residuals ``p - z_minus[j]``."""
    return v.p[None, :] - v.z_minus


def apply_At(f: np.ndarray) -> NodeBlockVector:
    """Adjoint of :func:`apply_A`: scatter an edge field back to a block."""
    f = np.asarray(f, dtype=float)
    return NodeBlockVector(f.sum(axis=0), -f, np.zeros_like(f))


def apply_Qt_D(u: np.ndarray, d: np.ndarray) -> NodeBlockVector:
    """Adjoint of :func:`apply_Q` composed with the range scaling ``d``."""
    du = np.asarray(d, dtype=float)[:, None] * np.asarray(u, dtype=float)
    return NodeBlockVector(du.sum(axis=0), np.zeros_like(du), -du)


def apply_cBtB(v: NodeBlockVector, c: float) -> NodeBlockVector:
    """Apply the entrywise-absolute scaled proximal operator ``c B^T B``.

    This is the positive combination that makes the half-step Hessian
    diagonal; closed form per node:

    * p-block: ``(c+1) * degree * p + c * sum(z^-) + sum(z^+)``,
    * each z^- row: ``c * (p + z^-[j])``,
    * each z^+ row: ``p + z^+[j]``.
    """
    k = v.degree
    p_out = (c + 1.0) * k * v.p + c * v.z_minus.sum(axis=0) + v.z_plus.sum(axis=0)
    return NodeBlockVector(p_out, c * (v.p[None, :] + v.z_minus), v.p[None, :] + v.z_plus)


def apply_W(v: NodeBlockVector, c: float) -> NodeBlockVector:
    """Apply the diagonal half-step Hessian; see the module docstring."""
    k = v.degree
    return NodeBlockVector(2.0 * (c + 1.0) * k * v.p, 2.0 * c * v.z_minus, 2.0 * v.z_plus)


def apply_W_inverse(v: NodeBlockVector, c: float) -> NodeBlockVector:
    """Invert :func:`apply_W`; always well defined since c > 0, degree >= 1."""
    k = v.degree
    return NodeBlockVector(
        v.p / (2.0 * (c + 1.0) * k), v.z_minus / (2.0 * c), v.z_plus / 2.0
    )


def grad_F_z(v: NodeBlockVector, u: np.ndarray, d: np.ndarray) -> NodeBlockVector:
    """Gradient of the per-node smooth loss with respect to the block.

    Equals ``Q^T Q v - Q^T D u`` assembled directly: the p-block collects
    ``sum_j (p - z_plus[j]) - sum_j d_j u_j``, the z^+ rows get the negated
    summands, and the z^- block is untouched by the loss.
    """
    qv = apply_Q(v)
    du = np.asarray(d, dtype=float)[:, None] * np.asarray(u, dtype=float)
    resid = qv - du
    return NodeBlockVector(resid.sum(axis=0), np.zeros_like(resid), -resid)


def objective_F(v: NodeBlockVector, u: np.ndarray, d: np.ndarray) -> float:
    """Per-node smooth loss ``0.5 ||Q v||^2 - <u, D Q v>``."""
    qv = apply_Q(v)
    du = np.asarray(d, dtype=float)[:, None] * np.asarray(u, dtype=float)
    return 0.5 * float((qv * qv).sum()) - float((du * qv).sum())


def objective_original(estimates, measurements) -> float:
    """Nonsmooth range-fit loss of the position estimates.

    Sums ``0.5 * (||p_i - p_j|| - d_ij)^2`` over ordered neighbor pairs, so
    each edge contributes twice, matching the node-separable double sum.
    ``estimates`` holds a row per node of the measurements' graph.
    """
    est = np.asarray(estimates, dtype=float)
    gap = edge_lengths(measurements.graph, est) - measurements.d
    return float(gap @ gap)


def spread(col, dim: int):
    """The ``(K,)`` column ``col`` repeated across ``dim`` columns, as one
    contiguous ``(K, dim)`` array; a number stays as it is.

    An elementwise product with it has the values of a product with the
    broadcast ``col[:, None]``, but NumPy runs the broadcast one with an
    inner loop only ``dim`` long, several times slower at ``dim`` 2 or 3.
    """
    return np.stack([col] * dim, axis=1) if isinstance(col, np.ndarray) else col


def _coefficient(column):
    """A cached property of :class:`EdgeCoefficients`: ``column(self, c,
    rho)`` of its ``_edge_penalties``, under :func:`~locadmm.engine.quiet_fp`,
    spread to ``dim`` columns (:func:`spread`); an array comes out read-only.
    A column holding a NaN or an infinity sets ``finite`` to False."""

    def build(self):
        with quiet_fp():
            col = column(self, *self._edge_penalties)
        self.finite = self.finite and bool(np.isfinite(col).all())
        out = spread(col, self.graph.dim)
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        return out

    return cached_property(build)


class EdgeCoefficients:
    """The per-row constants both solvers read, of the ranges ``ranges``
    (one per row of ``graph``) at penalties ``c`` and ``rho``: numbers, or
    per-copy values on a :meth:`~locadmm.network.NetworkGraph.stack` graph.
    Each is built on first read, so a solver builds only its own:
    ``lite_steps`` alone reads ``d_rho_scale``, ``scale`` and ``c_scale``,
    ``full_steps`` alone ``c1``. ``denom``, each node's ``p`` divisor
    ``2 (c + 1) k``, has a row per node, the others a row per edge.
    ``finite`` is False once one built holds a NaN or an infinity (``c``
    of 1e308 makes ``2 c`` infinite, a NaN range a NaN ``d``): the solvers
    then scan every iterate (:func:`~locadmm.engine.iterate`)."""

    def __init__(self, graph: NetworkGraph, ranges: np.ndarray, c, rho):
        self.graph, self.ranges, self.c, self.rho = graph, ranges, c, rho
        self.finite = True  # until a coefficient built holds a NaN or an infinity
        # c and rho on every edge row (numbers for one copy)
        self._edge_penalties = graph.edge_column(c), graph.edge_column(rho)

    d = _coefficient(lambda self, c, rho: self.ranges)
    d_rho = _coefficient(lambda self, c, rho: self.ranges / rho)
    denom = _coefficient(
        lambda self, c, rho: 2.0 * (self.graph.node_column(self.c) + 1.0) * self.graph.degrees
    )
    d_rho_scale = _coefficient(lambda self, c, rho: self.ranges / (rho * (2.0 * (c + 1.0))))
    c_e = _coefficient(lambda self, c, rho: c)
    two_c = _coefficient(lambda self, c, rho: 2.0 * c)
    c1 = _coefficient(lambda self, c, rho: c + 1.0)
    scale = _coefficient(lambda self, c, rho: 2.0 * (c + 1.0))
    c_scale = _coefficient(lambda self, c, rho: c / (2.0 * (c + 1.0)))

    @classmethod
    def held(cls, measurements, graph: NetworkGraph, d: np.ndarray, c, rho):
        """The coefficients kept on ``measurements`` (whose ranges on
        ``graph`` are ``d``) for the latest ``(c, rho)`` asked of it:
        both solvers read that one set, and other penalties replace it."""
        memo, key = measurements._coefficients, (c, rho, graph.dim)
        if key not in memo:
            memo.clear()
            memo[key] = cls(graph, d, c, rho)
        return memo[key]


def project_ball(f: np.ndarray) -> np.ndarray:
    """Project each row of an edge field onto the unit ball."""
    f = np.asarray(f, dtype=float)
    # The squares go into the output array and their columns are added in
    # the order (f * f).sum(axis=1) adds a row's, so the norms are
    # bit-identical to it; the clipped norms then fill every column, and f
    # is divided by them in place.
    out = np.multiply(f, f)
    dim = f.shape[1]
    norms = out[:, 0] + out[:, 1] if dim > 1 else out[:, 0].copy()
    for k in range(2, dim):
        norms += out[:, k]
    np.sqrt(norms, out=norms)
    np.maximum(norms, 1.0, out=norms)
    for k in range(dim):
        out[:, k] = norms
    return np.divide(f, out, out=out)


def project_consensus(blocks, graph) -> EdgeBlocks:
    """Euclidean (unweighted) projection onto the consensus-and-anchor set.

    Anchor p-blocks are set to the anchor position and non-anchor p-blocks
    pass through; for every ordered pair ``(i, j)`` the plus-replica of
    ``i`` toward ``j`` and the minus-replica of ``j`` toward ``i`` are both
    replaced by their average. Idempotent and non-expansive. ``blocks`` is
    an :class:`EdgeBlocks` or a per-node list; the result is new arrays:
    edge ``e``'s plus-replica and its reverse's minus-replica both become
    ``avg[e] = (z_plus[e] + z_minus[rev[e]]) / 2``.
    """
    if len(blocks) != graph.num_nodes:
        raise MissingNode(f"expected {graph.num_nodes} blocks, got {len(blocks)}")
    b = EdgeBlocks.of(blocks, graph)
    return EdgeBlocks(graph.offsets, *consensus_rows(graph, b.p, b.z_minus, b.z_plus))


def consensus_rows(graph: NetworkGraph, p, z_minus, z_plus) -> tuple:
    """:func:`project_consensus` on the stacked arrays of ``graph`` (one
    graph or several stacked copies): new ``(p, z^-, z^+)``."""
    p = p.copy()
    p[graph.anchor_idx] = graph.anchor_pos
    avg = z_minus.take(graph.rev, axis=0)
    avg += z_plus
    avg /= 2.0
    return p, avg.take(graph.rev, axis=0), avg
