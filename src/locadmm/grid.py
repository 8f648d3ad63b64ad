"""Penalty and seed grids, run as one batched solve.

A grid's cells run as disjoint copies of the graph, stacked into one
:meth:`~locadmm.network.EdgeLayout.stack` layout. One pass of a solver's
own iteration (:func:`~locadmm.solver_lite.lite_steps`,
:func:`~locadmm.solver_full.full_steps`) advances every cell, with each
cell's ``c`` and ``rho`` as per-copy coefficients, and one
:class:`~locadmm.diagnostics.MetricPass` records every cell's metrics.
No value crosses from one copy to another, so each cell's iterates and
metrics are bit-identical to its own run, and a cell that diverges is
masked instead of stopping the grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import IterationTrace, MetricPass, TraceRow, directions
from .engine import RunResult, drive, finite_copies, quiet_fp
from .errors import InvalidInitSpec, check_choice, check_seed
from .network import GroundTruth, MeasurementSet, NetworkGraph
from .solver_full import (
    InitSpec,
    check_run,
    consensus_state,
    full_states,
    full_steps,
    start_positions,
)
from .solver_lite import LiteStates, lite_start, lite_steps
from .structured_ops import EdgeCoefficients, EdgeStates, PenaltyParams

GRID_ROWS = 1 << 13
"""Stacked edge rows per batch of cells, at most (a batch holds one cell at
least), so a grid's memory does not grow with its number of cells. Past a
few thousand rows a NumPy call's fixed cost is a small part of its time,
so larger batches would only add memory: about 30 arrays of the batch's
rows are live at once."""


@dataclass
class CellRun:
    """One cell of a grid: its penalties, its seed, and its result, with the
    recorded trace attached; ``result`` is ``None`` where a state or a
    metric went non-finite, that is, where the cell's own run raises
    :class:`~locadmm.errors.NonFiniteValue`."""

    params: PenaltyParams
    seed: int
    result: Optional[RunResult]


def run_grid(
    algo: str,
    graph: NetworkGraph,
    measurements: MeasurementSet,
    cells: Sequence[tuple[PenaltyParams, int]],
    init: InitSpec,
    iters: int,
    *,
    truth: Optional[GroundTruth] = None,
) -> Iterator[CellRun]:
    """Run solver ``algo`` (``"full"`` or ``"lite"``) from ``init`` for
    ``iters`` iterations at every ``(params, seed)`` cell, and return an
    iterator over the cells in order.

    Each result equals ``run_full``/``run_lite`` on that cell bit for bit,
    and its trace equals what a :class:`~locadmm.diagnostics.TraceRecorder`
    of ``rmse`` and ``F`` records on that run, or of ``F`` alone without
    ``truth``. The cells run in batches of at most :data:`GRID_ROWS` stacked
    edge rows; a result's arrays are views into its batch's arrays.

    The call itself checks the arguments, every cell's seed included, and
    builds the first batch's start, so a bad argument or a start that
    cannot be built raises from it; a batch runs, and a later batch is
    built, only when its first cell is drawn.
    """
    check_run(graph, iters)
    for _, seed in cells:
        check_seed(seed)
    algo = check_choice("algo", algo, ("full", "lite"))
    if not isinstance(init, InitSpec):
        raise InvalidInitSpec(f"init must be an InitSpec, got {init!r:.40}")
    metrics = ("F",) if truth is None else ("rmse", "F")
    # as few batches as the budget allows, of as even a size as they can be
    most = max(1, GRID_ROWS // max(graph.layout.num_edges, 1))
    size = math.ceil(len(cells) / math.ceil(len(cells) / most)) if cells else 1
    groups = [cells[first:first + size] for first in range(0, len(cells), size)]
    built = [_batch(algo, graph, measurements, groups[0], init)] if groups else []
    return _cells(algo, graph, measurements, groups, init, iters, truth, metrics, built)


def _cells(algo, graph, measurements, groups, init, iters, truth, metrics, built):
    """The cells of every group, each group run as one batch: the first
    batch is the one in ``built``, each later one is built when it is
    reached. A batch is handed over without a name here, so that
    ``_run_batch`` holds the only reference to it and can drop its view."""
    for cells in groups:
        yield from _run_batch(
            algo, graph, measurements, cells, iters, truth, metrics,
            built.pop() if built else _batch(algo, graph, measurements, cells, init),
        )


def _run_batch(algo, graph, measurements, cells, iters, truth, metrics, batch):
    base = graph.layout
    copies = len(cells)
    lay, d, c, rho, view, steps = batch
    d_one = measurements.edge_ranges(graph)
    measure = MetricPass(metrics, layout=lay, d=d, c=c, rho=rho, truth=truth)
    comm_scalars = 2 * graph.dim * base.num_edges
    traces = [IterationTrace() for _ in cells]
    ok, prev = np.ones(copies, dtype=bool), None

    def check(t: int, fields: dict) -> None:
        ok[~finite_copies(copies, fields.values())] = False

    def record(t: int, now: EdgeStates, half=None) -> None:
        """Append every copy's row for iteration ``t``, mask the copies
        whose metrics are not finite, and keep of ``now`` only its
        directions, all that the next metric pass reads of it."""
        nonlocal prev
        with quiet_fp():
            values = measure(now, prev)
        for k, trace in enumerate(traces):
            row = {name: float(v[k]) for name, v in values.items()}
            trace.rows.append(TraceRow(t, comm_scalars=comm_scalars if t else 0, **row))
        ok[~finite_copies(copies, values.values())] = False
        prev = directions(now.u)

    record(0, view)
    del batch, view  # held no longer than the views drive hands to record
    fields = drive(steps, iters, check, record)

    n, e = base.num_nodes, base.num_edges
    for k, (params, seed) in enumerate(cells):
        result = None
        if ok[k]:
            own = {
                name: a[k * n:(k + 1) * n] if name == "p" else a[k * e:(k + 1) * e]
                for name, a in fields.items()
            }
            states = (
                full_states(base.offsets, own) if algo == "full"
                else LiteStates(base.offsets, d=d_one, **own)
            )
            result = RunResult(states=states, estimates=own["p"].copy(), trace=traces[k])
        yield CellRun(params, seed, result)


def _batch(algo, graph, measurements, cells, init) -> tuple:
    """A batch of ``cells``, built: the layout stacking one copy per cell,
    the ranges and each copy's penalties on it, and :func:`_start`'s
    iteration-0 view and iterates."""
    lay = graph.layout.stack(len(cells))
    d = np.tile(measurements.edge_ranges(graph), len(cells))
    c = np.array([params.c for params, _ in cells])
    rho = np.array([params.rho for params, _ in cells])
    return (lay, d, c, rho, *_start(algo, graph, cells, init, lay, d, c, rho))


def _start(algo, graph, cells, init, lay, d, c, rho) -> tuple:
    """Every cell's start stacked in ``lay``: its iteration-0 view, the
    consensus state at the cell's start positions, and the solver's iterates
    from it."""
    positions = np.concatenate([start_positions(graph, init, seed) for _, seed in cells])
    view = consensus_state(lay, positions, init.u_init)
    coef = EdgeCoefficients(lay, d, c, rho)
    if algo == "full":
        return view, full_steps(lay, coef, view, views=True)
    return view, lite_steps(lay, coef, lite_start(lay, view, d, c), views=True)
