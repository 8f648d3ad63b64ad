"""Matrix-free applications of the per-node structured operators.

Every operator here acts on one node's block of variables ``(p, z^-, z^+)``
or on a per-edge field, and reduces to O(dim * degree) closed-form loops; no
matrix is ever materialized. Per-edge fields are ``(degree, dim)`` arrays
aligned with the graph's sorted neighbor lists. These closed forms are the
specification the dense oracle and the tests check; the diagnostics and
:func:`project_consensus_edges` evaluate them on ``(E, dim)`` edge arrays.

Block-vector conventions, for a node with degree ``k`` in dimension ``n``:

* ``Q v  = p - z_plus[j]`` per neighbor (measurement differences),
* ``A v  = p - z_minus[j]`` per neighbor (self-replica residual),
* the scaled diagonal ``W`` has weights ``2(c+1)k`` on the ``p`` block,
  ``2c`` on each ``z^-`` row and ``2`` on each ``z^+`` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, MissingNode
from .network import EdgeLayout


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
class PenaltyParams:
    """Strictly positive penalty pair: ``c`` on the feasibility term in the
    augmented Lagrangian, ``rho`` on the proximal term of the direction
    update."""

    c: float
    rho: float

    def __post_init__(self):
        for name, val in (("c", self.c), ("rho", self.rho)):
            if not (val > 0.0 and math.isfinite(val)):
                raise InvalidParameter(f"{name} must be strictly positive, got {val}")


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
    """
    total = 0.0
    for (i, j), d_ij in sorted(measurements.d.items()):
        p_i = np.asarray(estimates[i], dtype=float)
        p_j = np.asarray(estimates[j], dtype=float)
        gap = float(np.linalg.norm(p_i - p_j)) - d_ij
        total += gap * gap
    return total


def project_ball(f: np.ndarray) -> np.ndarray:
    """Project each row of an edge field onto the unit ball."""
    f = np.asarray(f, dtype=float)
    norms = np.sqrt((f * f).sum(axis=1))
    return f / np.maximum(1.0, norms)[:, None]


def node_blocks(
    layout: EdgeLayout, p: np.ndarray, z_minus: np.ndarray, z_plus: np.ndarray
) -> list[NodeBlockVector]:
    """Per-node blocks viewing rows of the stacked arrays."""
    return [
        NodeBlockVector(p[i], zm, zp)
        for i, (zm, zp) in enumerate(zip(layout.split(z_minus), layout.split(z_plus)))
    ]


def project_consensus(blocks, graph) -> list[NodeBlockVector]:
    """Euclidean (unweighted) projection onto the consensus-and-anchor set.

    Anchor p-blocks are set to the anchor position and non-anchor p-blocks
    pass through; for every ordered pair ``(i, j)`` the plus-replica of
    ``i`` toward ``j`` and the minus-replica of ``j`` toward ``i`` are both
    replaced by their average. Idempotent and non-expansive.
    """
    if len(blocks) != graph.num_nodes:
        raise MissingNode(f"expected {graph.num_nodes} blocks, got {len(blocks)}")
    lay = graph.layout
    projected = project_consensus_edges(
        lay,
        np.stack([b.p for b in blocks]),
        np.concatenate([b.z_minus for b in blocks]),
        np.concatenate([b.z_plus for b in blocks]),
    )
    return node_blocks(lay, *projected)


def project_consensus_edges(
    layout: EdgeLayout, p: np.ndarray, z_minus: np.ndarray, z_plus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`project_consensus` on stacked arrays, returned as new arrays:
    ``p`` has a row per node, ``z_minus`` and ``z_plus`` a row per edge in
    ``layout`` order. Edge ``e``'s plus-replica and its reverse's minus-
    replica both become ``avg[e] = (z_plus[e] + z_minus[rev[e]]) / 2``."""
    p = p.copy()
    p[layout.anchor_idx] = layout.anchor_pos
    avg = (z_plus + np.take(z_minus, layout.rev, axis=0)) / 2.0
    return p, np.take(avg, layout.rev, axis=0), avg
