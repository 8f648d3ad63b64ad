"""Penalty and seed grids, run as one batched solve.

A grid's cells run as disjoint copies of the graph, stacked into one
:meth:`~locadmm.network.NetworkGraph.stack` graph. One pass of a solver's
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
from .errors import InvalidInitSpec, InvalidParameter, check_choice, check_seed
from .network import GroundTruth, MeasurementSet, NetworkGraph, check_truth
from .solver_full import (
    InitSpec,
    check_run,
    consensus_state,
    full_states,
    full_steps,
    init_full,
    start_positions,
)
from .solver_lite import LiteStates, lite_steps
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

    The call itself checks the arguments, every cell included, and builds
    one cell's start, so a bad argument or a start that cannot be built
    raises from it; a batch is built and run only when its first cell is
    drawn.
    """
    check_run(graph, measurements, iters)
    for k, cell in enumerate(cells):
        if not (isinstance(cell, tuple) and len(cell) == 2 and isinstance(cell[0], PenaltyParams)):
            raise InvalidParameter(f"cells[{k}] must be a (PenaltyParams, seed) pair, got {cell!r:.40}")
        check_seed(cell[1])
    algo = check_choice("algo", algo, ("full", "lite"))
    if not isinstance(init, InitSpec):
        raise InvalidInitSpec(f"init must be an InitSpec, got {init!r:.40}")
    if truth is not None:
        check_truth(truth, graph)
    d_one = measurements.edge_ranges(graph)
    if cells:  # every seed is valid, so this start fails as any batch's would
        init_full(graph, init, cells[0][1])
    metrics = ("F",) if truth is None else ("rmse", "F")
    # as few batches as the budget allows, of as even a size as they can be
    most = max(1, GRID_ROWS // max(graph.sum_degree, 1))
    size = math.ceil(len(cells) / math.ceil(len(cells) / most)) if cells else 1
    groups = [cells[first:first + size] for first in range(0, len(cells), size)]
    return (
        run for group in groups
        for run in _run_batch(algo, graph, d_one, group, init, iters, truth, metrics)
    )


def _run_batch(algo, graph, d_one, cells, init, iters, truth, metrics):
    """Every cell's run, from one batch: the graph stacking a copy per
    cell, the ranges ``d_one`` of one copy and each copy's penalties on it,
    and the cells' starts, stacked, advanced together."""
    copies = len(cells)
    stacked, d = graph.stack(copies), np.tile(d_one, copies)
    c = np.array([params.c for params, _ in cells])
    rho = np.array([params.rho for params, _ in cells])
    positions = np.concatenate([start_positions(graph, init, seed) for _, seed in cells])
    start = consensus_state(stacked, positions, init.u_init)
    coef = EdgeCoefficients(stacked, d, c, rho)
    steps = (full_steps if algo == "full" else lite_steps)(stacked, coef, start, views=True)
    del start, positions  # the steps hand the start to record, then drop it
    measure = MetricPass(metrics, graph=stacked, d=d, c=c, rho=rho, truth=truth)
    comm_scalars = 2 * graph.dim * graph.sum_degree
    traces = [IterationTrace() for _ in cells]
    ok, prev = np.ones(copies, dtype=bool), None

    def check(t: int, fields: dict) -> None:
        ok[~finite_copies(copies, fields.values())] = False

    def record(t: int, now: EdgeStates, half) -> None:
        """Append every copy's row for iteration ``t``, mask the copies
        whose metrics are not finite, and keep of ``now`` only its
        directions, all that the next metric pass reads of it."""
        nonlocal prev
        with quiet_fp():
            values = measure(now, prev)
            ok[~finite_copies(copies, values.values())] = False
        for k, trace in enumerate(traces):
            row = {name: float(v[k]) for name, v in values.items()}
            trace.rows.append(TraceRow(t, comm_scalars=comm_scalars if t else 0, **row))
        prev = directions(now.u)

    fields = {name: stacked.by_copy(a) for name, a in drive(steps, iters, check, record).items()}
    for k, (params, seed) in enumerate(cells):
        result = None
        if ok[k]:
            own = {name: a[k] for name, a in fields.items()}
            states = (
                full_states(graph.offsets, own) if algo == "full"
                else LiteStates(graph.offsets, d=d_one, **own)
            )
            result = RunResult(states=states, estimates=own["p"].copy(), trace=traces[k])
        yield CellRun(params, seed, result)
