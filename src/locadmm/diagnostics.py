"""Convergence diagnostics as measurable functions of solver state.

Everything the convergence theory promises is exposed as a number that a
trace can record: the stationarity gap, the direction-update gap, the
feasibility gap, the combined optimality gap that certifies a KKT point at
zero, the augmented Lagrangian, the potential that decreases monotonically
under the parameter bounds, and the bounds themselves. All functions are
pure over state snapshots: ``EdgeStates`` as hooks get them, or per-node
lists that ``EdgeStates.of`` stacks once. They evaluate the closed forms of
:mod:`locadmm.structured_ops` on every edge of those ``(E, dim)`` arrays.
Each metric's formula is written once, in :class:`MetricPass`, which
evaluates any set of metrics in one pass, for one run or for every copy of
a grid; each public metric function is a pass of one metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import IterationEvent, quiet_fp
from .errors import InvalidParameter, NonFiniteValue, check_numbers, check_penalty, check_real
from .errors import check_type
from .network import GroundTruth, MeasurementSet, NetworkGraph, check_truth, copy_rmse, write_text
from .structured_ops import (
    EdgeBlocks,
    EdgeStates,
    PenaltyParams,
    consensus_rows,
    edge_rows,
    spread,
)

METRICS = ("rmse", "S", "U", "P", "F", "L", "potential")
TRACE_COLUMNS = ("t", *METRICS, "comm_scalars", "wall_ms")
DEFAULT_METRICS = ("rmse", "S", "U", "P", "F", "L")


# The squared norms each metric reads: edge residuals, each one row of the
# metric pass's (K, rows, dim) buffer, and node residuals, each one row of
# its (K, nodes, dim) buffer.
_EDGE_TERMS = {
    "S": ("lam", "loss"),
    "F": ("proj_minus", "proj_plus", "feas", "step"),
    "P": ("feas",),
    "U": ("step",),
    "potential": ("half_feas", "feas", "step", "move_minus", "move_plus"),
}
_NODE_TERMS = {"S": ("grad_p",), "F": ("proj_p",)}


def _terms(table: dict, metrics) -> list:
    return list(dict.fromkeys(t for m in metrics for t in table.get(m, ())))


class MetricPass:
    """The chosen metrics of state snapshots, one value per copy, in one
    fused pass over the edge arrays.

    Every residual the metrics share is computed once per snapshot:
    ``p_src - z^-`` (P, F, L, potential), the loss residual
    ``p_src - z^+ - d u`` (S, F, L), the gradient ``node_sum`` (S, F) and
    the consensus projection (F). Every squared norm a metric takes is of a
    residual written into one preallocated ``(K, rows, dim)`` buffer (node
    residuals into a second one), squared in place and summed once per copy.
    Each copy's sum adds its entries in the order ``(a * a).sum()`` adds them
    on that residual alone, so every value equals the metric's closed form
    evaluated on its own.

    ``graph`` is the snapshots' graph, one graph or the copies a
    :meth:`~locadmm.network.NetworkGraph.stack` graph holds; S, F and rmse
    need it. ``d`` holds its ranges per edge row (S, F, L, potential),
    ``c`` and ``rho`` are numbers or one value per copy (L, potential),
    ``kappas`` the potential's ``(kappa1, kappa2)`` and ``truth`` the
    positions rmse compares against.
    """

    def __init__(self, metrics, *, graph=None, d=None, c=None, rho=None, kappas=None,
                 truth=None):
        self.metrics = tuple(m for m in METRICS if m in metrics)
        self.graph, self.d, self.c, self.rho, self.truth = graph, d, c, rho, truth
        self.kappas = kappas
        self.copies = 1 if graph is None else graph.copies
        self._edge_terms = _terms(_EDGE_TERMS, self.metrics)
        self._node_terms = _terms(_NODE_TERMS, self.metrics)
        lagrangian = {"L", "potential"} & set(self.metrics)
        # rows for the transients: qz, d u, the loss residual, and L's two
        self._scratch = 4 if lagrangian else 3 if {"S", "F"} & set(self.metrics) else 0
        self._buffers = None
        self._plans = {}
        self._rmse = None

    def _plan(self, lagged: bool, half: bool) -> tuple:
        """The metrics defined at a snapshot, with or without the previous
        one and the half-step blocks, and the squared norms they read."""
        key = (lagged, half)
        if key not in self._plans:
            m = tuple(
                x for x in self.metrics
                if x not in ("U", "F", "potential") or (lagged and (x != "potential" or half))
            )
            self._plans[key] = (frozenset(m), _terms(_EDGE_TERMS, m), _terms(_NODE_TERMS, m))
        return self._plans[key]

    def _setup(self, rows: int, nodes: int, dim: int) -> tuple:
        """The buffers and per-row coefficients for snapshots of this size,
        made on the first call."""
        if self._buffers is None or self._buffers[0].shape[1:] != (rows, dim):
            half_c = None
            if {"L", "potential"} & set(self.metrics):
                half_c = 0.5 * self.c
                if self.graph is not None:
                    half_c = spread(self.graph.edge_column(half_c), dim)
            self._buffers = (
                np.empty((len(self._edge_terms), rows, dim)),
                np.empty((len(self._node_terms), nodes, dim)),
                np.empty((self._scratch, rows, dim)),
                None if self._scratch == 0 else spread(self.d, dim),
                half_c,
            )
        return self._buffers

    def _sums(self, buf: np.ndarray) -> np.ndarray:
        """Per row of ``buf`` and per copy, the sum of the copy's entries."""
        k, rows, dim = buf.shape
        return buf.reshape(k, self.copies, rows // self.copies * dim).sum(axis=2)

    def __call__(self, now: EdgeStates, prev=None, half: Optional[EdgeBlocks] = None) -> dict:
        """The metrics defined at the snapshot ``now``, by name, each an
        array of one value per copy.

        U and F need the previous snapshot ``prev`` (they read its ``u``),
        and potential needs it whole and the half-step blocks ``half``.
        """
        m, edge_terms, node_terms = self._plan(prev is not None, half is not None)
        u = now.u
        rows, dim = u.shape
        graph = self.graph
        b = now.blocks
        nodes = 0 if b is None else len(b.p)
        edge_buf, node_buf, scratch, d_rows, half_c = self._setup(rows, nodes, dim)
        edge_buf, node_buf = edge_buf[: len(edge_terms)], node_buf[: len(node_terms)]
        slot = dict(zip(edge_terms, edge_buf))
        node_slot = dict(zip(node_terms, node_buf))
        out = {}
        if "rmse" in m:
            if self._rmse is None:
                self._rmse = copy_rmse(self.truth, graph)
            out["rmse"] = self._rmse(b.p)
        if "feas" in slot or "L" in m:
            feas = np.subtract(b.p_src, b.z_minus, out=slot.get("feas"))
        if not m.isdisjoint(("S", "F", "L", "potential")):
            qz = np.subtract(b.p_src, b.z_plus, out=scratch[0])
            d_u = np.multiply(d_rows, u, out=scratch[1])
            if "L" in m or "potential" in m:
                # 0.5 qz qz - d u qz + lam feas + 0.5 c feas feas
                acc = np.multiply(qz, 0.5, out=scratch[2])
                acc *= qz
                tmp = np.multiply(d_u, qz, out=scratch[3])
                acc -= tmp
                acc += np.multiply(now.lam, feas, out=tmp)
                tmp = np.multiply(half_c, feas, out=tmp)
                tmp *= feas
                acc += tmp
                lagrangian = self._sums(acc[None])[0]
        if "S" in m or "F" in m:
            # grad F + A^T lam = (node_sum(loss + lam), -lam, -loss)
            loss = np.subtract(qz, d_u, out=slot.get("loss", scratch[2]))
            grad_p = graph.node_sum(np.add(loss, now.lam, out=scratch[0]))
            if "S" in m:
                node_slot["grad_p"][...] = grad_p
                slot["lam"][...] = now.lam
            if "F" in m:
                # z - proj(z - grad): z^- - (-lam) is z^- + lam, bit for bit
                proj = consensus_rows(
                    graph, b.p - grad_p,
                    np.add(b.z_minus, now.lam, out=scratch[0]),
                    np.add(b.z_plus, loss, out=scratch[1]),
                )
                np.subtract(b.p, proj[0], out=node_slot["proj_p"])
                np.subtract(b.z_minus, proj[1], out=slot["proj_minus"])
                np.subtract(b.z_plus, proj[2], out=slot["proj_plus"])
        if "step" in slot:
            np.subtract(u, prev.u, out=slot["step"])
        if "potential" in m:
            np.subtract(half.p_src, half.z_minus, out=slot["half_feas"])
            dp = np.subtract(b.p_src, prev.blocks.p_src, out=scratch[0])
            np.subtract(b.z_minus, prev.blocks.z_minus, out=slot["move_minus"])
            slot["move_minus"] += dp
            np.subtract(b.z_plus, prev.blocks.z_plus, out=slot["move_plus"])
            slot["move_plus"] += dp
        np.multiply(edge_buf, edge_buf, out=edge_buf)
        np.multiply(node_buf, node_buf, out=node_buf)
        sq = dict(zip(edge_terms, self._sums(edge_buf)))
        sq.update(zip(node_terms, self._sums(node_buf)))
        if "S" in m:
            out["S"] = sq["grad_p"] + sq["lam"] + sq["loss"]
        if "U" in m:
            out["U"] = sq["step"]
        if "P" in m:
            out["P"] = sq["feas"]
        if "F" in m:
            out["F"] = sq["proj_p"] + sq["proj_minus"] + sq["proj_plus"] + sq["feas"] + sq["step"]
        if "L" in m:
            out["L"] = lagrangian
        if "potential" in m:
            kappa1, kappa2 = self.kappas
            c, rho = self.c, self.rho
            quad = sq["move_minus"] + sq["move_plus"] / c
            out["potential"] = lagrangian + 0.5 * c * (
                kappa1 * sq["half_feas"]
                + kappa2 * sq["feas"]
                + (rho / (2.0 * c)) * sq["step"]
                + (kappa1 + kappa2) * quad
            )
        return out


def _metric(name: str, now: EdgeStates, prev=None, half=None, **setting) -> float:
    """One metric of one snapshot, by :class:`MetricPass`."""
    return float(MetricPass((name,), **setting)(now, prev, half)[name][0])


def directions(u) -> EdgeStates:
    """A snapshot of direction rows only: all that U reads of a snapshot,
    and U and F of the previous one."""
    return EdgeStates(None, edge_rows(u), None)


def stationarity_gap(states, graph: NetworkGraph, d_node) -> float:
    """Sum over nodes of ``||grad F(z, u) + A^T lam||^2``; zero together with
    the other gaps exactly at a KKT point. ``grad F + A^T lam``
    (:func:`~locadmm.structured_ops.grad_F_z`,
    :func:`~locadmm.structured_ops.apply_At`) has p-block rows
    ``node_sum(r + lam)`` and z^-, z^+ edge fields ``-lam`` and ``-r``, from
    the per-edge loss residual ``r = (p - z^+) - d u``."""
    return _metric("S", EdgeStates.of(states), graph=graph, d=edge_rows(d_node))


def primal_diff_gap(u_now, u_prev) -> float:
    """Sum over nodes of ``||u_t - u_{t-1}||^2``."""
    return _metric("U", directions(u_now), directions(u_prev))


def feasibility_gap(states) -> float:
    """Sum over nodes of ``||A z||^2``: squared self-replica residuals."""
    return _metric("P", EdgeStates.of(states))


def optimality_gap(states, u_prev, graph: NetworkGraph, d_node) -> float:
    """Projected-gradient residual plus feasibility plus direction change.

    Per node: ``||z - proj(z - (grad F + A^T lam))||^2 + ||A z||^2 +
    ||u - u_prev||^2`` with the unweighted consensus-and-anchor projection.
    Zero exactly at a KKT point; the caller supplies the previous
    iteration's direction field.
    """
    s = EdgeStates.of(states)
    return _metric("F", s, directions(u_prev), graph=graph, d=edge_rows(d_node))


def augmented_lagrangian(states, d_node, c: float) -> float:
    """Sum of per-node loss, dual pairing, and quadratic feasibility penalty.

    The ball indicator contributes nothing because the solvers keep every
    direction row feasible.
    """
    return _metric("L", EdgeStates.of(states), d=edge_rows(d_node), c=c)


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
    return _metric(
        "potential", EdgeStates.of(states_t), EdgeStates.of(states_prev), EdgeBlocks.of(ztilde_t),
        d=edge_rows(d_node), c=c, rho=rho, kappas=(kappa1, kappa2),
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
    recomputed here, never caller-supplied, so bounds cannot go stale. A
    node without a neighbor makes ``tau_min`` zero and is refused.
    """
    check_penalty("c", c)
    check_type("graph", graph, NetworkGraph)
    check_type("measurements", measurements, MeasurementSet)
    degrees = graph.degrees
    if not degrees.all():
        node = int(np.argmin(degrees))
        raise InvalidParameter(
            f"parameter bounds need every node to have a neighbor; node {node} has none"
        )
    n_max = int(degrees.max())
    n_sum = int(degrees.sum())
    d_max = float(measurements.edge_ranges(graph).max(initial=0.0))
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
    fitted envelope constant ``max_T m(T) (T-1)``. A gap is a non-negative
    number: ``InvalidParameter`` names the first NaN, infinite or negative
    value, which would otherwise come out as a NaN report or a false pass,
    and refuses a ``tol`` that is not finite and non-negative.
    """
    if not (check_real("tol", tol) >= 0.0 and math.isfinite(tol)):
        raise InvalidParameter(f"tol must be finite and >= 0, got {tol}")
    gaps = check_numbers("gap_values", gap_values)
    if gaps.ndim != 1 or gaps.shape[0] < 4:
        raise InvalidParameter("need at least 4 gap values")
    bad = np.flatnonzero(~np.isfinite(gaps) | (gaps < 0.0))
    if bad.size:
        k = bad[0]
        raise InvalidParameter(
            f"gap_values[{k}] must be finite and non-negative, got {float(gaps[k])!r}"
        )
    running_min = np.minimum.accumulate(gaps)
    t = np.arange(1, gaps.shape[0] + 1)
    envelope = running_min * (t - 1)
    half = gaps.shape[0] // 2
    first = float(envelope[:half].max())
    second = float(envelope[half:].max())
    if first <= 0.0:  # then min(gaps[:2]) = 0, and the envelope stays 0
        bounded, ratio = True, 1.0
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
        write_text(path, self.to_csv_text())


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
        check_type("graph", graph, NetworkGraph)
        try:
            self.metrics = tuple(metrics)  # read once: a generator is used up
            unknown = set(self.metrics) - {*METRICS, "wall"}
        except TypeError:
            raise InvalidParameter(f"metrics must be names, got {metrics!r:.40}") from None
        if unknown:
            raise InvalidParameter(f"unknown metrics {sorted(unknown, key=str)}")
        if "rmse" in self.metrics and truth is None:
            raise InvalidParameter("rmse metric needs ground truth")
        if truth is not None:
            check_truth(truth, graph)
        if "potential" in self.metrics and potential_coeffs is None:
            raise InvalidParameter("potential metric needs potential_coeffs")
        check_type("measurements", measurements, MeasurementSet)
        check_type("params", params, PenaltyParams)
        self.graph = graph
        self.trace = IterationTrace(metadata=dict(metadata or {}))
        self._pass = MetricPass(
            self.metrics, graph=graph, d=measurements.edge_ranges(graph),
            c=params.c, rho=params.rho, kappas=potential_coeffs, truth=truth,
        )
        self._t0 = time.perf_counter()

    def __call__(self, event: IterationEvent) -> None:
        graph = self.graph
        states = EdgeStates.of(event.states, graph)
        prev = half = None
        if event.states_prev is not None:
            prev = EdgeStates.of(event.states_prev, graph)
            if "potential" in self.metrics and event.ztilde is not None:
                half = EdgeBlocks.of(event.ztilde, graph)
        with quiet_fp():
            values = self._pass(states, prev, half)
        row = TraceRow(t=event.t, comm_scalars=event.comm_scalars,
                       **{name: float(v[0]) for name, v in values.items()})
        if "wall" in self.metrics:
            row.wall_ms = (time.perf_counter() - self._t0) * 1e3
        self.trace.append(row)
