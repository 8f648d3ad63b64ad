"""What the solvers hand their callers, the loop that drives every solve, and
the per-iteration finite checks.

Both solvers advance every node at once: each per-edge field is one
``(E, dim)`` array in the row order of a :class:`~locadmm.network.NetworkGraph`,
the neighbor exchange is one gather, and per-node sums add a node's rows
in the order the per-node closed forms do, so the iterates are
bit-identical to those closed forms applied node by node. Hooks and results
get those arrays themselves, as ``EdgeStates`` and ``EdgeBlocks``, which
build per-node views only when indexed. Within an iteration the solvers
update their temporaries in place, but only arrays that iteration made: an
array handed out (to a hook, or in a :class:`RunResult`) or passed in as a
start is never written afterwards, and a product one iteration carries into
the next (the full solver's gathered ``p``, the low-storage solver's
``d u``) is read, never written. Each solver's iteration is one generator
of iterates, its start first, which :func:`drive`, the one loop, runs for a
single solve and a grid of stacked copies alike. It hands on every iterate,
the start included, and keeps none: each caller keeps what it reads of the
previous one (:func:`hook_record` for hooks).

Every iterate of every solve is guarded against NaN and infinite values,
by NumPy's floating-point flags or by a scan. :func:`drive` runs a whole
call with overflow, invalid operations and division by zero calling back
(NumPy's ``"call"`` error mode, which changes no bit of a result): under
IEEE Std 754-2019 section 7, an operation on finite operands makes an
infinity or a NaN only by raising one of those flags, so an iteration from
finite inputs and finite coefficients that raises none makes only finite
values. The one step of either solver that is not a ufunc,
``np.bincount`` in :meth:`~locadmm.network.NetworkGraph.node_sum`, can
overflow without a flag; an infinite sum at a free node reaches the ball
projection's ``inf / inf`` (or ``0 * inf`` where the range is 0) in the
same iteration, and an anchor's is overwritten by its position. The scan
runs where the flags cannot vouch: on a call's first iterate, whose start
may hold a NaN, which spreads without a flag; on every iterate when a
coefficient is not finite; and on every iterate from the first that raised
a flag. It tests each field with ``np.isfinite``, and scans a field row by
row only when it failed, to name the iteration, node and field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParameter, NonFiniteValue


@dataclass(frozen=True)
class IterationEvent:
    """Snapshot handed to hooks after every iteration.

    ``states`` and ``states_prev`` (the previous event's ``states``) are
    ``EdgeStates``, with reconstructed replicas for the low-storage solver;
    ``ztilde`` holds the pre-projection half-step ``EdgeBlocks`` when the
    solver produces them, else ``None``. ``comm_scalars`` counts every
    scalar exchanged this iteration.
    """

    t: int
    states: Sequence
    states_prev: Optional[Sequence]
    ztilde: Optional[Sequence]
    comm_scalars: int


Hook = Callable[[IterationEvent], None]


@dataclass
class RunResult:
    """Final solver output: node states (``EdgeStates``, or ``LiteStates``
    from the low-storage solver) and stacked position estimates. The
    solvers leave ``trace`` at ``None``; the command-line harness attaches
    the trace it recorded."""

    states: Sequence
    estimates: np.ndarray
    trace: object = None


def check_finite(t: int, src: np.ndarray, p: np.ndarray, **edge_fields: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` if any state coordinate is NaN or infinite.

    ``p`` holds one row per node and every edge field one row per directed
    edge, owned by node ``src[row]``. The message names iteration ``t``, the
    lowest node holding a bad value, and that node's first bad field in
    argument order. Only a field that holds a bad value is scanned row by
    row, to find its lowest node.
    """
    first_bad = {}
    for name, a in {"p": p, **edge_fields}.items():
        if not np.isfinite(a).all():
            rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
            first_bad[name] = int(rows.min() if name == "p" else src[rows].min())
    if first_bad:
        node = min(first_bad.values())
        field = next(name for name, i in first_bad.items() if i == node)
        raise NonFiniteValue(f"non-finite {field} at node {node}, iteration {t}")


def drive(
    steps: Iterator, iters: int, check: Callable, record: Optional[Callable], finite: bool
) -> dict:
    """The loop of every solve: take the start, t = 0, and ``iters`` iterates
    from a solver's ``steps``, holding none once the next is made. The start
    comes as its ``EdgeStates`` view, each later iterate as the state fields
    by name (``p`` first, then the edge fields in the order a divergence is
    reported in), their view and the half-step blocks (both ``None`` when
    the solver was asked for no views, the start's view too).

    A view and its blocks go to ``record(t, view, half)`` unless it is None;
    it sets its own floating-point state. The whole call runs with
    overflow, invalid operations and division by zero calling back into
    ``drive``, which only notes that a flag fired. The fields of iterate t
    go to ``check(t, fields)`` when the flags cannot vouch for them: at
    t = 1, since a start may hold a NaN; at every t when ``finite``
    (whether every coefficient the steps read is finite) is False; and at
    every t from the first iterate whose making raised a flag. Returns the
    last fields."""
    flagged = not finite

    def flag(kind: str, code: int) -> None:
        nonlocal flagged
        flagged = True

    with np.errstate(over="call", invalid="call", divide="call", under="ignore", call=flag):
        view = next(steps)
        if record is not None:
            record(0, view, None)
        for t in range(1, iters + 1):
            fields, view, half = next(steps)
            if flagged or t == 1:
                check(t, fields)
            if record is not None:
                record(t, view, half)
    return fields


def hook_record(hook: Hook, comm_scalars: int) -> Callable:
    """The ``record`` that hands a solve to ``hook``: one event per iterate,
    the start's included, ``states_prev`` the previous event's ``states``,
    in this call's floating-point state, its error callback included, so a
    flag a hook raises is the caller's, never :func:`drive`'s. A ``hook``
    that is not callable is refused."""
    if not callable(hook):
        raise InvalidParameter(f"hook must be callable or None, got {hook!r:.40}")
    caller, call, view = np.geterr(), np.geterrcall(), None

    def record(t: int, now, half) -> None:
        nonlocal view
        with np.errstate(call=call, **caller):
            hook(IterationEvent(t, now, view, half, comm_scalars if t else 0))
        view = now

    return record


def finite_copies(copies: int, arrays) -> np.ndarray:
    """Per copy of a stacked graph, whether every value of ``arrays`` is
    finite; each array (a node or an edge field, or a per-copy metric) holds
    ``copies`` equal blocks of rows, one per copy, in order."""
    ok = np.ones(copies, dtype=bool)
    for a in arrays:
        if not np.isfinite(a).all():
            ok &= np.isfinite(a).reshape(copies, -1).all(axis=1)
    return ok


def quiet_fp() -> np.errstate:
    """NumPy's floating-point warnings off. The solvers' set-up and the
    trace recorders run under it, so a divergence is reported once, by
    :func:`check_finite` or the trace's own check, not at every overflow."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")
