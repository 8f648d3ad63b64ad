"""Convergence diagnostics as measurable functions of solver state.

Everything the convergence theory promises is exposed as a number that a
trace can record: the stationarity gap, the direction-update gap, the
feasibility gap, the combined optimality gap that certifies a KKT point at
zero, the augmented Lagrangian, the potential that decreases monotonically
under the parameter bounds, and the bounds themselves. All functions are
pure over state snapshots: ``EdgeStates`` as hooks get them, or per-node
lists that ``EdgeStates.of`` stacks once. They evaluate the closed forms of
:mod:`locadmm.structured_ops` on every edge of those ``(E, dim)`` arrays.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import IterationEvent, quiet_fp
from .errors import InvalidParameter, NonFiniteValue
from .network import GroundTruth, MeasurementSet, NetworkGraph, rmse
from .structured_ops import EdgeBlocks, EdgeStates, PenaltyParams, edge_rows, project_consensus

METRICS = ("rmse", "S", "U", "P", "F", "L", "potential")
TRACE_COLUMNS = ("t", *METRICS, "comm_scalars", "wall_ms")
DEFAULT_METRICS = ("rmse", "S", "U", "P", "F", "L")


def _sq(a: np.ndarray) -> float:
    return float((a * a).sum())


def _grad_lagrangian(graph: NetworkGraph, s: EdgeStates, d_node):
    """``grad F(z, u) + A^T lam`` (:func:`~locadmm.structured_ops.grad_F_z`,
    :func:`~locadmm.structured_ops.apply_At`) as p-block rows and z^-, z^+
    edge fields, from the per-edge loss residual ``(p - z^+) - d u``."""
    resid = s.blocks.p_src - s.blocks.z_plus - edge_rows(d_node)[:, None] * s.u
    return graph.layout.node_sum(resid + s.lam), -s.lam, -resid


def stationarity_gap(states, graph: NetworkGraph, d_node) -> float:
    """Sum over nodes of ``||grad F(z, u) + A^T lam||^2``; zero together with
    the other gaps exactly at a KKT point."""
    return sum(map(_sq, _grad_lagrangian(graph, EdgeStates.of(states), d_node)))


def primal_diff_gap(u_now, u_prev) -> float:
    """Sum over nodes of ``||u_t - u_{t-1}||^2``."""
    return _sq(edge_rows(u_now) - edge_rows(u_prev))


def feasibility_gap(states) -> float:
    """Sum over nodes of ``||A z||^2``: squared self-replica residuals."""
    b = EdgeStates.of(states).blocks
    return _sq(b.p_src - b.z_minus)


def optimality_gap(states, u_prev, graph: NetworkGraph, d_node) -> float:
    """Projected-gradient residual plus feasibility plus direction change.

    Per node: ``||z - proj(z - (grad F + A^T lam))||^2 + ||A z||^2 +
    ||u - u_prev||^2`` with the unweighted consensus-and-anchor projection.
    Zero exactly at a KKT point; the caller supplies the previous
    iteration's direction field.
    """
    s = EdgeStates.of(states)
    return _optimality(s, u_prev, graph, _grad_lagrangian(graph, s, d_node))


def _optimality(s: EdgeStates, u_prev, graph: NetworkGraph, grad) -> float:
    """:func:`optimality_gap` with ``grad`` from :func:`_grad_lagrangian`."""
    b = s.blocks
    g_p, g_minus, g_plus = grad
    proj = project_consensus(
        EdgeBlocks(b.offsets, b.p - g_p, b.z_minus - g_minus, b.z_plus - g_plus), graph
    )
    return (
        _sq(b.p - proj.p)
        + _sq(b.z_minus - proj.z_minus)
        + _sq(b.z_plus - proj.z_plus)
        + _sq(b.p_src - b.z_minus)
        + _sq(s.u - edge_rows(u_prev))
    )


def augmented_lagrangian(states, d_node, c: float) -> float:
    """Sum of per-node loss, dual pairing, and quadratic feasibility penalty.

    The ball indicator contributes nothing because the solvers keep every
    direction row feasible.
    """
    s = EdgeStates.of(states)
    qz = s.blocks.p_src - s.blocks.z_plus
    az = s.blocks.p_src - s.blocks.z_minus
    du = edge_rows(d_node)[:, None] * s.u
    return float((0.5 * qz * qz - du * qz + s.lam * az + 0.5 * c * az * az).sum())


def potential(
    states_t,
    states_prev,
    ztilde_t,
    d_node,
    kappa1: float,
    kappa2: float,
    c: float,
    rho: float,
) -> float:
    """Potential whose monotone decrease certifies convergence.

    Augmented Lagrangian plus per-node ``(c/2) [ kappa1 ||A z~||^2 +
    kappa2 ||A z||^2 + (rho / 2c) ||u - u_prev||^2 + (kappa1 + kappa2)
    ||z - z_prev||^2`` in the proximal metric ]. That metric, ``c B^T B``
    of :func:`~locadmm.structured_ops.apply_cBtB` over ``c``, is a sum over
    edges of ``|dp + dz^-_j|^2 + |dp + dz^+_j|^2 / c``. Needs the half-step
    blocks and the lagged state, which run hooks expose after every iteration.
    """
    now, prev = EdgeStates.of(states_t), EdgeStates.of(states_prev)
    b, b_prev, half = now.blocks, prev.blocks, EdgeBlocks.of(ztilde_t)
    dp = b.p_src - b_prev.p_src
    quad = _sq(dp + (b.z_minus - b_prev.z_minus)) + _sq(dp + (b.z_plus - b_prev.z_plus)) / c
    return augmented_lagrangian(now, d_node, c) + 0.5 * c * (
        kappa1 * _sq(half.p_src - half.z_minus)
        + kappa2 * _sq(b.p_src - b.z_minus)
        + (rho / (2.0 * c)) * _sq(now.u - prev.u)
        + (kappa1 + kappa2) * quad
    )


@dataclass(frozen=True)
class ParameterBounds:
    """Sufficient penalty/coefficient sizes for monotone potential decrease,
    plus the instance constants they came from."""

    kappa1_min: float
    kappa2_min: float
    rho_min: float
    n_max: int
    n_sum: int
    d_max: float
    tau_tilde_min: float
    dim: int
    c: float


def parameter_bounds(graph: NetworkGraph, measurements: MeasurementSet, c: float) -> ParameterBounds:
    """Evaluate the sufficient conditions from the instance itself.

    ``kappa1 = 6 (N_max + 1)(1 + 1/c)``;
    ``kappa2 = N_sum * n * (c+1)^2 * (N_max + 1) * kappa1 / tau_min`` with
    ``tau_min = min_i [(c+1)^2 N_i^2 + c^2 N_i + N_i]``;
    ``rho = 4 d_max^2 (kappa1 + kappa2)``. The instance constants are always
    recomputed here, never caller-supplied, so bounds cannot go stale.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise InvalidParameter(f"c must be strictly positive, got {c}")
    degrees = graph.degrees
    n_max = int(degrees.max())
    n_sum = int(degrees.sum())
    d_max = float(measurements.max_range)
    overflow = InvalidParameter(f"c = {c} overflows the parameter bounds")
    try:
        c1_sq = (c + 1.0) ** 2
    except OverflowError as exc:
        raise overflow from exc
    with np.errstate(over="ignore"):
        tau = float((c1_sq * degrees * degrees + c * c * degrees + degrees).min())
    kappa1 = 6.0 * (n_max + 1.0) * (1.0 + 1.0 / c)
    kappa2 = n_sum * graph.dim * c1_sq * (n_max + 1.0) * kappa1 / tau
    rho_min = 4.0 * d_max * d_max * (kappa1 + kappa2)
    if not all(map(math.isfinite, (tau, kappa2, rho_min))):
        raise overflow
    return ParameterBounds(
        kappa1_min=kappa1,
        kappa2_min=kappa2,
        rho_min=rho_min,
        n_max=n_max,
        n_sum=n_sum,
        d_max=d_max,
        tau_tilde_min=tau,
        dim=graph.dim,
        c=c,
    )


@dataclass
class EnvelopeReport:
    """Outcome of the sublinear-rate envelope check."""

    epsilon2: float
    bounded: bool
    growth_ratio: float
    envelope: np.ndarray


def sublinear_envelope_check(gap_values: Sequence[float], tol: float = 0.05) -> EnvelopeReport:
    """Check that ``min_{t<=T} F(t) * (T-1)`` stays bounded.

    ``gap_values[k]`` is the optimality gap at iteration ``k+1``. The
    envelope of a sublinearly-vanishing gap converges to a constant, so its
    running maximum over the second half of the run must not exceed the
    first-half maximum by more than ``tol``; a non-vanishing gap makes the
    envelope grow linearly and fails the check. ``epsilon2`` reports the
    fitted envelope constant ``max_T m(T) (T-1)``.
    """
    gaps = np.asarray(gap_values, dtype=float)
    if gaps.ndim != 1 or gaps.shape[0] < 4:
        raise InvalidParameter("need at least 4 gap values")
    running_min = np.minimum.accumulate(gaps)
    t = np.arange(1, gaps.shape[0] + 1)
    envelope = running_min * (t - 1)
    half = gaps.shape[0] // 2
    first = float(envelope[:half].max())
    second = float(envelope[half:].max())
    if first <= 0.0:
        bounded = second <= 0.0
        ratio = math.inf if second > 0.0 else 1.0
    else:
        ratio = second / first
        bounded = ratio <= 1.0 + tol
    return EnvelopeReport(
        epsilon2=float(envelope.max()),
        bounded=bounded,
        growth_ratio=ratio,
        envelope=envelope,
    )


# -- trace recording ----------------------------------------------------------


@dataclass
class TraceRow:
    t: int
    rmse: Optional[float] = None
    S: Optional[float] = None
    U: Optional[float] = None
    P: Optional[float] = None
    F: Optional[float] = None
    L: Optional[float] = None
    potential: Optional[float] = None
    comm_scalars: int = 0
    wall_ms: Optional[float] = None


@dataclass
class IterationTrace:
    """Per-iteration diagnostics plus run metadata.

    Holds ``iterations + 1`` rows (iteration 0 included). Metrics that are
    undefined at an iteration (the lagged ones at t=0, the potential without
    half-step data) stay ``None`` and export as empty CSV fields, never as
    zeros.
    """

    rows: list[TraceRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def append(self, row: TraceRow) -> None:
        for name in METRICS:
            val = getattr(row, name)
            if val is not None and not math.isfinite(val):
                raise NonFiniteValue(f"metric {name} non-finite at iteration {row.t}")
        self.rows.append(row)

    def column(self, name: str) -> list:
        return [getattr(row, name) for row in self.rows]

    def to_csv_text(self) -> str:
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(TRACE_COLUMNS))
        for row in self.rows:
            cells = [str(row.t)]
            for name in METRICS:
                val = getattr(row, name)
                cells.append("" if val is None else repr(val))
            cells.append(str(row.comm_scalars))
            cells.append("" if row.wall_ms is None else repr(row.wall_ms))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())


class TraceRecorder:
    """Barrier hook that evaluates selected metrics into an
    :class:`IterationTrace`.

    ``metrics`` picks from ``rmse, S, U, P, F, L, potential, wall``; lagged
    metrics are skipped at iteration 0. Recording ``rmse`` needs ``truth``;
    recording ``potential`` needs ``potential_coeffs=(kappa1, kappa2)`` and a
    solver that exposes half-step blocks (the full solver does, the
    low-storage one does not). Wall time is opt-in because it breaks
    byte-level reproducibility of traces.
    """

    def __init__(
        self,
        graph: NetworkGraph,
        measurements: MeasurementSet,
        params: PenaltyParams,
        *,
        truth: Optional[GroundTruth] = None,
        metrics: Sequence[str] = DEFAULT_METRICS,
        potential_coeffs: Optional[tuple[float, float]] = None,
        metadata: Optional[dict] = None,
    ):
        unknown = set(metrics) - {*METRICS, "wall"}
        if unknown:
            raise InvalidParameter(f"unknown metrics {sorted(unknown)}")
        if "rmse" in metrics and truth is None:
            raise InvalidParameter("rmse metric needs ground truth")
        if "potential" in metrics and potential_coeffs is None:
            raise InvalidParameter("potential metric needs potential_coeffs")
        self.graph = graph
        self.params = params
        self.truth = truth
        self.metrics = tuple(metrics)
        self.potential_coeffs = potential_coeffs
        self.d = measurements.edge_ranges(graph)
        self.trace = IterationTrace(metadata=dict(metadata or {}))
        self._t0 = time.perf_counter()

    def __call__(self, event: IterationEvent) -> None:
        m = self.metrics
        lay = self.graph.layout
        row = TraceRow(t=event.t, comm_scalars=event.comm_scalars)
        states = EdgeStates.of(event.states, lay)
        lagged = event.states_prev is not None
        with quiet_fp():
            # S and F share grad F + A^T lam
            grad = None
            if "S" in m or ("F" in m and lagged):
                grad = _grad_lagrangian(self.graph, states, self.d)
            if "rmse" in m:
                row.rmse = rmse(states.blocks.p, self.truth, self.graph)
            if "S" in m:
                row.S = sum(map(_sq, grad))
            if "P" in m:
                row.P = feasibility_gap(states)
            if "L" in m:
                row.L = augmented_lagrangian(states, self.d, self.params.c)
            if lagged:
                prev = EdgeStates.of(event.states_prev, lay)
                if "U" in m:
                    row.U = primal_diff_gap(states.u, prev.u)
                if "F" in m:
                    row.F = _optimality(states, prev.u, self.graph, grad)
                if "potential" in m and event.ztilde is not None:
                    half = EdgeBlocks.of(event.ztilde, lay)
                    coeffs = (*self.potential_coeffs, self.params.c, self.params.rho)
                    row.potential = potential(states, prev, half, self.d, *coeffs)
        if "wall" in m:
            row.wall_ms = (time.perf_counter() - self._t0) * 1e3
        self.trace.append(row)
