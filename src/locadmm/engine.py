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
of iterates, its start first, built by :func:`iterate`, which :func:`drive`,
the one loop, runs for a single solve and a grid of stacked copies alike. It
hands on every iterate, the start included, and keeps none: each caller
keeps what it reads of the previous one (:func:`hook_record` for hooks).

Every iterate of every solve is guarded against NaN and infinite values,
by NumPy's floating-point flags or by an exact scan. :func:`drive` runs the
iterations with overflow, invalid operations and division by zero raising
(:data:`TRAP`): under IEEE Std 754-2019 section 7, an operation on finite
operands makes an infinity or a NaN only by raising one of those flags, so
an iteration from finite inputs and finite coefficients that raises none
makes only finite values (:func:`iterate` covers the one step that is not
a ufunc). The scan runs where that does not hold: on a call's first
iterate, whose start may hold a NaN; on every iterate when a coefficient is
not finite; and on every iterate from the first iteration of the call that
raises a flag, which is made again quietly. The scan first tests each
field with :func:`all_finite`, one self-dot ``a · a`` that is NaN or
infinite whenever an entry is, and runs the exact per-entry scan only after
a field fails it: the scan names the iteration, node and field of a
divergence, or finds only finite entries beyond ~1e154, whose squares
overflowed, and lets the iterate pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import NonFiniteValue


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


# Largest field that all_finite hands to one BLAS call. OpenBLAS runs ddot
# on several threads past 10 000 entries, and its helper threads spin, so a
# whole-array dot over a 1000-node edge field burns about twice its wall time
# in CPU; the check must stay on the calling thread.
_BLAS_BLOCK = 8192


def all_finite(a: np.ndarray) -> bool:
    """True if every entry of ``a`` is finite; False if one may not be.

    Up to ``_BLAS_BLOCK`` entries the test is one self-dot, which is not
    finite whenever an entry is, but also when the squares of finite
    entries beyond ~1e154 overflow, so a caller that must know runs the
    exact scan after a False. Larger arrays get the exact test at once,
    which costs the same there, as the pass is bound by memory bandwidth.
    """
    if a.size <= _BLAS_BLOCK:
        return math.isfinite(np.vdot(a, a))
    return bool(np.isfinite(a).all())


def check_finite(t: int, src: np.ndarray, p: np.ndarray, **edge_fields: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` if any state coordinate is NaN or infinite.

    ``p`` holds one row per node and every edge field one row per directed
    edge, owned by node ``src[row]``. The message names iteration ``t``, the
    lowest node holding a bad value, and that node's first bad field in
    argument order. Each field is tested by :func:`all_finite` first, and
    only a field it flags is scanned entry by entry.
    """
    if all_finite(p) and all(map(all_finite, edge_fields.values())):
        return
    first_bad = {}
    for name, a in {"p": p, **edge_fields}.items():
        rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if rows.size:
            first_bad[name] = int(rows.min() if name == "p" else src[rows].min())
    if not first_bad:
        return  # the self-dot overflowed on finite entries
    node = min(first_bad.values())
    field = next(name for name, i in first_bad.items() if i == node)
    raise NonFiniteValue(f"non-finite {field} at node {node}, iteration {t}")


# The floating-point state :func:`drive` runs the iterations in: an operation
# that makes an infinity or a NaN of finite operands raises FloatingPointError.
TRAP = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}


def drive(steps: Iterator, iters: int, check: Callable, record: Optional[Callable]) -> dict:
    """The loop of every solve: take the start, t = 0, and ``iters`` iterates
    from a solver's ``steps`` (:func:`iterate`) under :data:`TRAP`, holding
    none once the next is made. Each yields the state fields by name (``p``
    first, then the edge fields in the order a divergence is reported in),
    passed from t = 1 on to ``check(t, fields)`` under :func:`quiet_fp` when
    the iterate is to be scanned; the ``EdgeStates`` view and half-step
    blocks (``None`` when the solver was asked for no views), passed to
    ``record(t, view, half)`` unless it is None, which sets its own
    floating-point state; and whether to scan. Returns the last fields."""
    with np.errstate(**TRAP):
        _, view, _, _ = next(steps)
        if record is not None:
            record(0, view, None)
        for t in range(1, iters + 1):
            fields, view, half, scan = next(steps)
            if scan:
                with quiet_fp():
                    check(t, fields)
            if record is not None:
                record(t, view, half)
    return fields


def iterate(first, advance: Callable, carry: tuple, finite: bool) -> Iterator:
    """A solver's iterates as :func:`drive` takes them: the start's view
    ``first``, then one iterate per ``advance(*carry)``, which returns the
    next ``carry``, the new fields by name, their view and the half-step
    blocks. It writes no array of ``carry``, and what else it keeps for the
    next iteration it drops when it starts one and can make again from
    ``carry``, so an iteration can be made twice from the same ``carry``.

    Each iterate comes with whether its fields are to be scanned. The first
    is, since a start may hold a NaN, which spreads without raising a flag.
    Every one is when ``finite`` is False (a coefficient holds a NaN or an
    infinity); those are made under :func:`quiet_fp`. And every one is from
    the first iteration that raises a flag on: that iteration is made again
    from its ``carry`` under :func:`quiet_fp`, and so are the later ones.

    The only step of either solver that can overflow without a flag is
    ``np.bincount`` in :meth:`~locadmm.network.NetworkGraph.node_sum`, which
    is not a ufunc. An infinite sum at a free node reaches the ball
    projection's ``inf / inf`` (or ``0 * inf`` where the range is 0) in the
    same iteration, and an anchor's is overwritten by its position.
    """
    yield None, first, None, False
    del first  # held no longer than any later view
    scan, quiet = True, not finite
    while True:
        if not quiet:
            try:
                carry, fields, view, half = advance(*carry)
            except FloatingPointError:
                quiet = True
        if quiet:
            with quiet_fp():
                carry, fields, view, half = advance(*carry)
        yield fields, view, half, scan or quiet
        scan = False


def hook_record(hook: Hook, comm_scalars: int) -> Callable:
    """The ``record`` that hands a solve to ``hook``: one event per iterate,
    the start's included, ``states_prev`` the previous event's ``states``,
    in this call's floating-point state."""
    caller, view = np.geterr(), None

    def record(t: int, now, half) -> None:
        nonlocal view
        with np.errstate(**caller):
            hook(IterationEvent(t, now, view, half, comm_scalars if t else 0))
        view = now

    return record


def finite_copies(copies: int, arrays) -> np.ndarray:
    """Per copy of a stacked graph, whether every value of ``arrays`` is
    finite; each array (a node or an edge field, or a per-copy metric) holds
    ``copies`` equal blocks of rows, one per copy, in order."""
    ok = np.ones(copies, dtype=bool)
    for a in arrays:
        if not all_finite(a):
            ok &= np.isfinite(a).reshape(copies, -1).all(axis=1)
    return ok


def quiet_fp() -> np.errstate:
    """NumPy's floating-point warnings off. An iteration that raised a flag
    runs again under it, as do the iterations after it, the finite scans
    and the trace recorders, so a divergence is reported once, by
    :func:`check_finite` or the trace's own check, not at every overflow."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")
