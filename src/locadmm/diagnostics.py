"""Convergence diagnostics as measurable functions of solver state.

Everything the convergence theory promises is exposed as a number that a
trace can record: the stationarity gap, the direction-update gap, the
feasibility gap, the combined optimality gap that certifies a KKT point at
zero, the augmented Lagrangian, the potential that decreases monotonically
under the parameter bounds, and the bounds themselves. All functions are
pure over state snapshots. They take per-node state lists, stack them into
``(E, dim)`` edge arrays with rows in node order, and evaluate the closed
forms of :mod:`locadmm.structured_ops` on every edge at once.
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
from .structured_ops import PenaltyParams, project_consensus_edges

TRACE_COLUMNS = ("t", "rmse", "S", "U", "P", "F", "L", "potential", "comm_scalars", "wall_ms")
DEFAULT_METRICS = ("rmse", "S", "U", "P", "F", "L")


def _stack(blocks, *rows):
    """Concatenate per-node lists into arrays with rows in node order: the
    node rows ``p``, the edge fields ``p_src`` (row ``e`` repeats the ``p``
    of the node owning edge row ``e``), ``z^-`` and ``z^+`` of ``blocks``,
    then each list in ``rows``."""
    p = np.stack([b.p for b in blocks])
    p_src = np.repeat(p, [b.degree for b in blocks], axis=0)
    fields = ([b.z_minus for b in blocks], [b.z_plus for b in blocks]) + rows
    return (p, p_src, *map(np.concatenate, fields))


def _stack_states(states, *rows):
    """:func:`_stack` of full node states, with ``u`` and ``lam`` first in ``rows``."""
    return _stack([s.block for s in states], [s.u for s in states], [s.lam for s in states], *rows)


def _sq(a: np.ndarray) -> float:
    return float((a * a).sum())


def _grad_lagrangian(graph: NetworkGraph, p_src, z_plus, u, lam, d):
    """``grad F(z, u) + A^T lam`` (:func:`~locadmm.structured_ops.grad_F_z`,
    :func:`~locadmm.structured_ops.apply_At`) as p-block rows and z^-, z^+
    edge fields, from the per-edge loss residual ``(p - z^+) - d u``."""
    resid = p_src - z_plus - d * u
    return graph.layout.node_sum(resid + lam), -lam, -resid


def stationarity_gap(states, graph: NetworkGraph, d_node) -> float:
    """Sum over nodes of ``||grad F(z, u) + A^T lam||^2``; zero together with
    the other gaps exactly at a KKT point."""
    _, p_src, _, z_plus, u, lam, d = _stack_states(states, d_node)
    return sum(map(_sq, _grad_lagrangian(graph, p_src, z_plus, u, lam, d[:, None])))


def primal_diff_gap(u_now: Sequence[np.ndarray], u_prev: Sequence[np.ndarray]) -> float:
    """Sum over nodes of ``||u_t - u_{t-1}||^2``."""
    return _sq(np.concatenate(u_now) - np.concatenate(u_prev))


def feasibility_gap(states) -> float:
    """Sum over nodes of ``||A z||^2``: squared self-replica residuals."""
    _, p_src, z_minus, _ = _stack([s.block for s in states])
    return _sq(p_src - z_minus)


def optimality_gap(states, u_prev, graph: NetworkGraph, d_node) -> float:
    """Projected-gradient residual plus feasibility plus direction change.

    Per node: ``||z - proj(z - (grad F + A^T lam))||^2 + ||A z||^2 +
    ||u - u_prev||^2`` with the unweighted consensus-and-anchor projection.
    Zero exactly at a KKT point; the caller supplies the previous
    iteration's direction field.
    """
    p, p_src, z_minus, z_plus, u, lam, d, u_prev = _stack_states(states, d_node, u_prev)
    g_p, g_minus, g_plus = _grad_lagrangian(graph, p_src, z_plus, u, lam, d[:, None])
    proj_p, proj_minus, proj_plus = project_consensus_edges(
        graph.layout, p - g_p, z_minus - g_minus, z_plus - g_plus
    )
    return (
        _sq(p - proj_p)
        + _sq(z_minus - proj_minus)
        + _sq(z_plus - proj_plus)
        + _sq(p_src - z_minus)
        + _sq(u - u_prev)
    )


def augmented_lagrangian(states, d_node, c: float) -> float:
    """Sum of per-node loss, dual pairing, and quadratic feasibility penalty.

    The ball indicator contributes nothing because the solvers keep every
    direction row feasible.
    """
    _, p_src, z_minus, z_plus, u, lam, d = _stack_states(states, d_node)
    qz = p_src - z_plus
    az = p_src - z_minus
    return float((0.5 * qz * qz - d[:, None] * u * qz + lam * az + 0.5 * c * az * az).sum())


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
    _, p_src, z_minus, z_plus, u, _ = _stack_states(states_t)
    _, p_src_prev, z_minus_prev, z_plus_prev, u_prev, _ = _stack_states(states_prev)
    _, zt_src, zt_minus, _ = _stack(ztilde_t)
    dp = p_src - p_src_prev
    quad = _sq(dp + (z_minus - z_minus_prev)) + _sq(dp + (z_plus - z_plus_prev)) / c
    return augmented_lagrangian(states_t, d_node, c) + 0.5 * c * (
        kappa1 * _sq(zt_src - zt_minus)
        + kappa2 * _sq(p_src - z_minus)
        + (rho / (2.0 * c)) * _sq(u - u_prev)
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
    tau = float(min((c + 1.0) ** 2 * k * k + c * c * k + k for k in degrees))
    kappa1 = 6.0 * (n_max + 1.0) * (1.0 + 1.0 / c)
    kappa2 = n_sum * graph.dim * (c + 1.0) ** 2 * (n_max + 1.0) * kappa1 / tau
    rho_min = 4.0 * d_max * d_max * (kappa1 + kappa2)
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
        for name in ("rmse", "S", "U", "P", "F", "L", "potential"):
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
            for name in ("rmse", "S", "U", "P", "F", "L", "potential"):
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
        unknown = set(metrics) - {"rmse", "S", "U", "P", "F", "L", "potential", "wall"}
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
        self.d_node = measurements.node_ranges(graph)
        self.trace = IterationTrace(metadata=dict(metadata or {}))
        self._t0 = time.perf_counter()

    def __call__(self, event: IterationEvent) -> None:
        m = self.metrics
        row = TraceRow(t=event.t, comm_scalars=event.comm_scalars)
        states = event.states
        with quiet_fp():
            if "rmse" in m:
                est = np.stack([s.block.p for s in states])
                row.rmse = rmse(est, self.truth, self.graph)
            if "S" in m:
                row.S = stationarity_gap(states, self.graph, self.d_node)
            if "P" in m:
                row.P = feasibility_gap(states)
            if "L" in m:
                row.L = augmented_lagrangian(states, self.d_node, self.params.c)
            if event.states_prev is not None:
                u_prev = [s.u for s in event.states_prev]
                if "U" in m:
                    row.U = primal_diff_gap([s.u for s in states], u_prev)
                if "F" in m:
                    row.F = optimality_gap(states, u_prev, self.graph, self.d_node)
                if "potential" in m and event.ztilde is not None:
                    k1, k2 = self.potential_coeffs
                    row.potential = potential(
                        states,
                        event.states_prev,
                        event.ztilde,
                        self.d_node,
                        k1,
                        k2,
                        self.params.c,
                        self.params.rho,
                    )
        if "wall" in m:
            row.wall_ms = (time.perf_counter() - self._t0) * 1e3
        self.trace.append(row)
