"""Traced run: per-layer times from the benchmark's own spans.

The replay runs both solvers through their public per-phase functions
(``local_halfstep`` -> ``gather_inbox`` -> ``combine_z`` -> ``update_u`` /
``update_lambda`` for the full solver, ``step_lite`` for the low-storage
one), evaluates every diagnostic on each iterate, and records one span per
call: name, start, end, parent. It starts from states ``run_full`` and
``run_lite`` built, checks that its final states equal those solvers' own,
continued from the same start, bit for bit, and times those untraced runs,
so the difference is the tracing overhead. No span lives inside the package.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

import numpy as np

from locadmm import diagnostics as dg
from locadmm import network
from locadmm.engine import IterationEvent
from locadmm.solver_full import (
    FullNodeState,
    combine_z,
    gather_inbox,
    local_halfstep,
    run_full,
    update_lambda,
    update_u,
)
from locadmm.solver_lite import full_view, run_lite, serialize_state, step_lite
from locadmm.structured_ops import grad_F_z, project_ball, project_consensus

from workloads import (
    SPEC,
    Instance,
    Tally,
    Workload,
    clock,
    initial_states,
    make_instance,
    metric,
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), name, clock(), 0.0,
                   self._open[-1] if self._open else None)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = clock()
            self._open.pop()

    def self_ms(self) -> dict[str, list[float]]:
        """Per span name, each call's duration minus its children's, in ms."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append((s.end - s.start - child[s.id]) * 1e3)
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(s.end - s.start) * 1e3 for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def nbytes(obj) -> int:
    """Bytes of every array reachable through lists and dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(x) for x in obj)
    if is_dataclass(obj):
        return sum(nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def diagnose(tr: Tracer, inst: Instance, event: IterationEvent, recorder, bounds) -> None:
    """Every diagnostic on one iterate, each in its own span, then the
    trace recorder as ``locadmm run`` calls it."""
    g, d, c, rho = inst.graph, inst.d_node, inst.params.c, inst.params.rho
    states, prev = event.states, event.states_prev
    u_now = [s.u for s in states]
    u_prev = [s.u for s in prev]
    with tr.span("network.rmse"):
        network.rmse(np.stack([s.block.p for s in states]), inst.truth, g)
    with tr.span("diagnostics.stationarity_gap"):
        dg.stationarity_gap(states, g, d)
    with tr.span("diagnostics.feasibility_gap"):
        dg.feasibility_gap(states)
    with tr.span("diagnostics.augmented_lagrangian"):
        dg.augmented_lagrangian(states, d, c)
    with tr.span("diagnostics.primal_diff_gap"):
        dg.primal_diff_gap(u_now, u_prev)
    with tr.span("diagnostics.optimality_gap"):
        dg.optimality_gap(states, u_prev, g, d)
    if event.ztilde is not None:
        with tr.span("diagnostics.potential"):
            dg.potential(states, prev, event.ztilde, d, bounds.kappa1_min,
                         bounds.kappa2_min, c, rho)
    with tr.span("structured_ops.grad_F_z"):
        for i, s in enumerate(states):
            grad_F_z(s.block, s.u, d[i])
    with tr.span("structured_ops.project_ball"):
        for u in u_now:
            project_ball(u)
    with tr.span("structured_ops.project_consensus"):
        project_consensus([s.block for s in states], g)
    with tr.span("diagnostics.recorder"):
        recorder(event)


def new_recorder(inst: Instance) -> dg.TraceRecorder:
    return dg.TraceRecorder(inst.graph, inst.meas, inst.params, truth=inst.truth)


def full_pass(tr: Tracer, inst: Instance, states: list, iters: int, bounds) -> tuple:
    """``iters`` full-solver iterations from ``states``; returns the final
    states, the scalars exchanged per iteration and the bytes the phase calls
    read and wrote in the last iteration."""
    g, d, c, rho = inst.graph, inst.d_node, inst.params.c, inst.params.rho
    nodes = range(g.num_nodes)
    recorder = new_recorder(inst)
    recorder(IterationEvent(0, states, None, None, 0))
    for t in range(1, iters + 1):
        with tr.span("iteration.full"):
            with tr.span("solver_full.halfstep"):
                zt = [local_halfstep(states[i], d[i], c, g.anchors.get(i)) for i in nodes]
            with tr.span("solver_full.exchange"):
                inbox = [gather_inbox(zt, g, i) for i in nodes]
            with tr.span("solver_full.combine"):
                z = [combine_z(zt[i], inbox[i], c, node=i, neighbors=g.neighbors[i])
                     for i in nodes]
            with tr.span("solver_full.update_u"):
                u = [update_u(states[i], z[i], d[i], rho) for i in nodes]
            with tr.span("solver_full.update_lambda"):
                lam = [update_lambda(states[i], z[i], c) for i in nodes]
            prev, states = states, [FullNodeState(z[i], u[i], lam[i]) for i in nodes]
        scalars = sum(m.payload_minus.size + m.payload_plus.size for box in inbox for m in box)
        with tr.span("record.full"):
            diagnose(tr, inst, IterationEvent(t, states, prev, zt, scalars), recorder, bounds)
    with tr.span("diagnostics.trace_csv"):
        recorder.trace.to_csv_text()
    moved = (
        nbytes(prev) + nbytes(d) + nbytes(zt)                      # halfstep
        + 2 * nbytes(inbox)                                        # exchange
        + nbytes(zt) + nbytes(inbox) + nbytes(z)                   # combine
        + nbytes([s.u for s in prev]) + nbytes(z) + nbytes(d) + nbytes(u)  # update_u
        + nbytes([s.lam for s in prev]) + nbytes(z) + nbytes(lam)  # update_lambda
    )
    return states, scalars, moved


def lite_pass(tr: Tracer, inst: Instance, states: list, iters: int, bounds) -> tuple:
    """``iters`` low-storage steps from ``states``; each new iterate is viewed
    as full state and diagnosed (from the second step on, when the previous
    view exists). Returns the final states, the accumulator scalars read from
    neighbors per step and the bytes one step reads and writes."""
    g, c, rho = inst.graph, inst.params.c, inst.params.rho
    recorder = new_recorder(inst)
    view = None
    for t in range(1, iters + 1):
        with tr.span("iteration.lite"):
            with tr.span("solver_lite.step"):
                new = step_lite(states, g, c, rho)
        prev, states = states, new
        with tr.span("record.lite"):
            view_prev = view
            with tr.span("solver_lite.full_view"):
                view = full_view(states, prev, g, c)
            if view_prev is not None:
                diagnose(tr, inst, IterationEvent(t, view, view_prev, None, 0), recorder, bounds)
    with tr.span("diagnostics.trace_csv"):
        recorder.trace.to_csv_text()
    scalars = sum(
        prev[j].alpha[r].size + prev[j].beta[r].size
        for i in range(g.num_nodes)
        for j, r in zip(g.neighbors[i], g.rev_pos[i])
    )
    return states, scalars, nbytes(prev) + nbytes(states) + 8 * scalars


def same_bits(a: list, b: list) -> bool:
    """Every array of two state lists is identical, element for element."""
    for x, y in zip(a, b):
        for f in fields(x):
            va, vb = getattr(x, f.name), getattr(y, f.name)
            if is_dataclass(va):
                if not same_bits([va], [vb]):
                    return False
            elif not np.array_equal(va, vb):
                return False
    return len(a) == len(b)


def pool_ms(inst: Instance, runner, iters: int, repeats: int = 3) -> tuple[float, float]:
    """Per-iteration time at ``threads = nproc`` minus at ``threads = 1``, and
    the ``nproc`` time itself (medians, ms)."""
    threads = os.cpu_count() or 1
    diffs, many = [], []
    for _ in range(repeats):
        per = {}
        for n in (1, threads):
            t0 = clock()
            runner(inst.graph, inst.meas, inst.params, SPEC, iters, threads=n)
            per[n] = (clock() - t0) / iters * 1e3
        diffs.append(per[threads] - per[1])
        many.append(per[threads])
    return statistics.median(diffs), statistics.median(many)


def run_traced(w: Workload, seed: int, seconds: float, tally: Tally, details: dict,
               workdir: str, spans_path: str) -> dict:
    tr = Tracer()
    net = os.path.join(workdir, "net.json")
    for _ in range(w.setup_repeats):
        with tr.span("setup"):
            inst = make_instance(w.shape, seed, tr.span)
            g, c = inst.graph, inst.params.c
            with tr.span("network.save_network"):
                network.save_network(net, g, inst.truth, inst.meas)
            with tr.span("network.load_network"):
                network.load_network(net)
            with tr.span("diagnostics.parameter_bounds"):
                bounds = dg.parameter_bounds(g, inst.meas, c)
            with tr.span("solver_full.init"):
                full0 = initial_states(run_full, inst)
            with tr.span("solver_lite.init"):
                initial_states(run_lite, inst)

    pool_lite, _ = pool_ms(inst, run_lite, w.pool_iters)
    pool_full, full_nproc = pool_ms(inst, run_full, w.pool_iters)

    n = w.traced_iters
    lite1 = run_lite(inst.graph, inst.meas, inst.params, SPEC, 1).states
    untraced = {"lite": [], "full": []}
    want_scalars = 2 * g.dim * g.sum_degree
    want_stored = sum(4 * g.dim * k + k + 3 for k in g.degrees)

    def reference(algo: str, runner, start: list) -> list:
        """``runner`` continued from ``start`` for ``n`` iterations; timed, and
        free of set-up because it starts from a state list."""
        t0 = clock()
        states = runner(inst.graph, inst.meas, inst.params, start, n).states
        untraced[algo].append((clock() - t0) / n * 1e3)
        return states

    deadline = clock() + seconds
    while clock() < deadline or tally.attempted == 0:
        tally.attempted += 1
        full_end, full_scalars, full_bytes = full_pass(tr, inst, full0, n, bounds)
        tally.check(same_bits(full_end, reference("full", run_full, full0)),
                    "traced full state differs from run_full")
        lite_end, lite_scalars, lite_bytes = lite_pass(tr, inst, lite1, n, bounds)
        tally.check(same_bits(lite_end, reference("lite", run_lite, lite1)),
                    "traced lite state differs from run_lite")

        stored = sum(serialize_state(s, c, inst.params.rho).size for s in lite_end)
        tally.check(full_scalars == want_scalars,
                    f"full exchanges {full_scalars} scalars, closed form {want_scalars}")
        tally.check(lite_scalars == want_scalars,
                    f"lite exchanges {lite_scalars} scalars, closed form {want_scalars}")
        tally.check(stored == want_stored,
                    f"lite stores {stored} scalars, closed form {want_stored}")

    tr.dump(spans_path)
    self_ms = tr.self_ms()
    med = {name: statistics.median(v) for name, v in self_ms.items()}
    overhead = {
        algo: statistics.median(tr.durations_ms(f"iteration.{algo}"))
        - statistics.median(untraced[algo])
        for algo in ("lite", "full")
    }
    details.update(
        spans={name: {"calls": len(v), "self_ms_median": med[name],
                      "self_ms_total": sum(v)} for name, v in sorted(self_ms.items())},
        untraced_iter_ms={a: statistics.median(v) for a, v in untraced.items()},
        full_iter_ms_threads_nproc=full_nproc,
        spans_file=os.path.relpath(spans_path),
    )

    out = {
        f"{name}_ms": metric(med[name], "ms")
        for name in (
            "network.generate_rgg", "network.measure", "network.node_ranges",
            "network.save_network", "network.load_network", "network.rmse",
            "solver_full.init", "solver_full.halfstep", "solver_full.exchange",
            "solver_full.combine", "solver_full.update_u", "solver_full.update_lambda",
            "solver_lite.init", "solver_lite.step", "solver_lite.full_view",
            "diagnostics.stationarity_gap", "diagnostics.primal_diff_gap",
            "diagnostics.feasibility_gap", "diagnostics.optimality_gap",
            "diagnostics.augmented_lagrangian", "diagnostics.potential",
            "diagnostics.parameter_bounds", "diagnostics.recorder",
            "diagnostics.trace_csv", "structured_ops.grad_F_z",
            "structured_ops.project_ball", "structured_ops.project_consensus",
        )
    }
    out.update({
        "engine.pool_ms.lite": metric(pool_lite, "ms"),
        "engine.pool_ms.full": metric(pool_full, "ms"),
        "trace.overhead_ms.lite": metric(overhead["lite"], "ms"),
        "trace.overhead_ms.full": metric(overhead["full"], "ms"),
        "network.directed_edges": metric(g.sum_degree, "count"),
        "solver_full.scalars_per_iter": metric(full_scalars, "count"),
        "solver_lite.scalars_per_iter": metric(lite_scalars, "count"),
        "solver_lite.stored_scalars": metric(stored, "count"),
        "solver_full.bytes_per_iter_computed": metric(full_bytes, "bytes"),
        "solver_lite.bytes_per_iter_computed": metric(lite_bytes, "bytes"),
    })
    return out
