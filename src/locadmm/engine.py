"""What the solvers hand their callers, and the per-iteration finite check.

Both solvers advance every node at once: each per-edge field is one
``(E, dim)`` array in the graph's :class:`~locadmm.network.EdgeLayout`
order, the neighbor exchange is one gather, and per-node sums add a node's
rows in the order the per-node closed forms do, so the iterates are
bit-identical to those closed forms applied node by node. Hooks and results
see per-node state lists whose arrays are views over those edge arrays.
Every iteration allocates fresh arrays, so a view handed out never changes
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteValue


@dataclass(frozen=True)
class IterationEvent:
    """Snapshot handed to hooks after every iteration.

    ``states`` and ``states_prev`` are full per-node state lists (for the
    low-storage solver these are reconstructed views); ``ztilde`` carries the
    pre-projection half-step blocks when the solver produces them, else
    ``None``. ``comm_scalars`` counts every scalar exchanged this iteration.
    """

    t: int
    states: list
    states_prev: Optional[list]
    ztilde: Optional[list]
    comm_scalars: int


Hook = Callable[[IterationEvent], None]


@dataclass
class RunResult:
    """Final solver output: per-node states, stacked position estimates, and
    the recorded trace when metrics were requested."""

    states: list
    estimates: np.ndarray
    trace: object = None


def check_finite(t: int, src: np.ndarray, p: np.ndarray, **edge_fields: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` if any state coordinate is NaN or infinite.

    ``p`` holds one row per node and every edge field one row per directed
    edge, owned by node ``src[row]``. The message names iteration ``t``, the
    lowest node holding a bad value, and that node's first bad field in
    argument order.
    """
    fields = {"p": p, **edge_fields}
    if all(np.isfinite(a).all() for a in fields.values()):
        return
    first_bad = {}
    for name, a in fields.items():
        rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
        if rows.size:
            first_bad[name] = int(rows.min() if name == "p" else src[rows].min())
    node = min(first_bad.values())
    field = next(name for name, i in first_bad.items() if i == node)
    raise NonFiniteValue(f"non-finite {field} at node {node}, iteration {t}")
