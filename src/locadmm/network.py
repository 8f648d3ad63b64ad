"""Sensor-network instances.

Construction, file round-tripping, and evaluation of localization instances:
an undirected connected graph with a known anchor subset, true node
positions, and noisy pairwise range measurements. Everything here is plain
data plus pure functions; instances are safe to share read-only.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    ConnectivityFailure,
    EmptyFreeSet,
    InvalidParameter,
    MissingPosition,
    ParseError,
    SchemaVersionMismatch,
)
from .errors import check_choice, check_integer, check_numbers, check_real, check_seed, check_type
from .errors import check_path, is_integer

# the schema save_network writes; load_network also reads schema 1
SCHEMA_VERSION = 2

# Connectivity is enforced by resampling the whole layout, which preserves the
# uniform spatial law; edge augmentation would not.
MAX_LAYOUT_ATTEMPTS = 1000

# Cells per axis of generate_rgg's neighbour-search grid, at most.
MAX_GRID_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected sensor graph with an anchor subset, held as flat arrays of
    its directed edges, each graph fact once.

    Graphs compare by identity.

    Node ``i`` owns rows ``offsets[i]:offsets[i+1]`` in sorted-neighbor
    order, so one ``(E, dim)`` array stacks every node's ``(degree, dim)``
    per-edge field; every per-edge array in this package is aligned with
    these rows. Row ``e`` runs from node ``src[e]`` to node ``dst[e]``, and
    ``rev[e]`` is the row of the reverse edge: the gather ``x[rev]`` hands
    every node the rows its neighbors hold toward it. The anchors
    ``anchor_idx``, sorted, sit at the read-only rows of ``anchor_pos``.

    The solvers' iteration loops gather with ``x.take(idx, axis=0)``: it
    equals ``x[idx]`` but runs several times faster on ``(E, dim)`` arrays,
    and it is the C routine behind ``np.take(x, idx, axis=0)`` without
    NumPy's Python wrapper, ~1.2 µs a call at N = 108.

    Attributes
    ----------
    connected : bool
        Whether the graph is a single component covering all nodes. Loading
        tolerates ``False`` (with a warning); solvers do not.
    copies : int
        The disjoint copies of one graph a :meth:`stack` graph holds; every
        other graph has one.

    ``dim`` (2 or 3) and ``num_nodes`` (ids are ``0 .. num_nodes-1``) are
    read from the arrays, and so are the views below, on first use and
    kept; only the per-node specification and the dense oracle read them.

    anchors : Mapping[int, np.ndarray]
        Anchor id -> known position, sorted by id: a read-only mapping onto
        the read-only rows of ``anchor_pos``.
    neighbors : tuple[tuple[int, ...], ...]
        Per node, the sorted tuple of adjacent node ids: the ``dst`` of the
        node's rows.
    edge_list : tuple[tuple[int, int], ...]
        Sorted unordered edges, each with ``i < j``.
    rev_pos : tuple[tuple[int, ...], ...]
        ``rev_pos[i][k]`` is the position of ``i`` inside
        ``neighbors[j]`` where ``j = neighbors[i][k]``; used to address the
        reverse direction of an edge without searching.
    degrees : np.ndarray
        Per node, its neighbor count, in one read-only array.
    """

    offsets: np.ndarray = field(repr=False)
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    rev: np.ndarray = field(repr=False)
    anchor_idx: np.ndarray = field(repr=False)
    anchor_pos: np.ndarray = field(repr=False)
    connected: bool
    copies: int = field(default=1, repr=False)

    @classmethod
    def build(cls, dim: int, num_nodes: int, anchors: Mapping, edges) -> "NetworkGraph":
        """Validate and assemble a graph from an unordered edge collection.

        ``anchors`` maps anchor ids to positions, which are copied.
        ``edges`` holds ``(i, j)`` pairs of integer node ids, in either
        orientation and possibly repeated; a loaded file's graph is
        assembled the same way (:func:`_assemble`).

        Raises
        ------
        InvalidParameter
            On bad dimension/counts, self-loops, out-of-range or non-integer
            ids, an empty anchor set, or an anchor position that is not
            ``dim`` finite numbers; an edge error names the first bad edge
            in input order.
        """
        dim = check_choice("dim", dim, (2, 3))
        num_nodes = check_integer("num_nodes", num_nodes, 1)
        anchor_idx, anchor_pos = _anchor_arrays(dim, num_nodes, anchors)
        pairs = _edge_pairs(edges, num_nodes)
        return _assemble(num_nodes, anchor_idx, anchor_pos, pairs[:, 0], pairs[:, 1])

    @property
    def dim(self) -> int:
        return self.anchor_pos.shape[1]

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def anchors(self) -> Mapping[int, np.ndarray]:
        return MappingProxyType(dict(zip(self.anchor_idx.tolist(), self.anchor_pos)))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.split(self.dst.tolist())))

    @cached_property
    def rev_pos(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.split((self.rev - self.offsets[self.dst]).tolist())))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.src[self.forward].tolist(), self.dst[self.forward].tolist()))

    @cached_property
    def degrees(self) -> np.ndarray:
        degrees = np.diff(self.offsets)
        degrees.flags.writeable = False
        return degrees

    @property
    def num_anchors(self) -> int:
        return len(self.anchor_idx)

    @property
    def avg_degree(self) -> float:
        """Mean neighbor count (1/N) sum_i N_i."""
        return float(self.sum_degree) / self.num_nodes

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @property
    def sum_degree(self) -> int:
        """Total directed-edge count, twice the number of edges."""
        return len(self.src)

    @cached_property
    def forward(self) -> np.ndarray:
        """The rows with ``src < dst``: the sorted edge list, in row order."""
        return np.flatnonzero(self.src < self.dst)

    @cached_property
    def bins(self) -> np.ndarray:
        """Entry ``(e, k)`` of an ``(E, dim)`` edge field, flattened, goes to
        entry ``(src[e], k)`` of the per-node sum: its flat index, per entry."""
        return (self.src[:, None] * self.dim + np.arange(self.dim)).ravel()

    def node_sum(self, x: np.ndarray) -> np.ndarray:
        """Per node, the sum of its rows of the ``(E, dim)`` edge field ``x``.

        ``np.bincount`` adds each bin's weights from zero in index order, so
        each node's rows are added one at a time in row order, which is the
        order ``x[rows].sum(axis=0)`` adds one node's block in; the result is
        bit-identical to that per-node sum (``np.add.reduceat`` is not: it
        groups the additions differently). Float on every graph: with no
        rows ``np.bincount`` counts in integers.
        """
        n, dim = self.num_nodes, self.dim
        sums = np.bincount(self.bins, weights=x.ravel(), minlength=n * dim)
        return sums.astype(float, copy=False).reshape(n, dim)

    def stack(self, copies: int) -> "NetworkGraph":
        """``copies`` disjoint copies of this one-copy graph as one graph,
        not connected past one copy: copy ``k`` owns nodes ``k N + i`` and
        rows ``k E + e``, with its ``src``, ``dst``, ``rev``, ``offsets``
        and anchors shifted to match.

        No gather, per-node sum or anchor crosses from one copy to another,
        and each copy's rows keep their order, so one pass over the stacked
        rows gives every copy the values a pass over its own graph gives.
        One copy is this graph itself.
        """
        if copies == 1:
            return self
        n, e = self.num_nodes, self.sum_degree
        node_shift = (np.arange(copies) * n)[:, None]
        edge_shift = (np.arange(copies) * e)[:, None]
        return NetworkGraph(
            offsets=np.append((self.offsets[:-1] + edge_shift).ravel(), copies * e),
            src=(self.src + node_shift).ravel(),
            dst=(self.dst + node_shift).ravel(),
            rev=(self.rev + edge_shift).ravel(),
            anchor_idx=(self.anchor_idx + node_shift).ravel(),
            anchor_pos=np.tile(self.anchor_pos, (copies, 1)),
            connected=False,
            copies=copies,
        )

    def by_copy(self, a: np.ndarray) -> np.ndarray:
        """The node or edge field ``a`` of this graph as one block of rows
        per copy: ``by_copy(a)[k]`` views the rows copy ``k`` owns."""
        return a.reshape(self.copies, -1, *a.shape[1:])

    def edge_column(self, value):
        """A per-copy value on every edge row: a number as it is, else
        ``value[k]`` on each row of copy ``k``."""
        if not isinstance(value, np.ndarray):
            return value
        return np.repeat(value, self.sum_degree // self.copies)

    def node_column(self, value):
        """As :meth:`edge_column`, on every node row."""
        if not isinstance(value, np.ndarray):
            return value
        return np.repeat(value, self.num_nodes // self.copies)

    def split(self, x) -> list:
        """Per-node slices of the rows of the edge field ``x`` (an array or a list)."""
        bounds = self.offsets.tolist()
        return [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _anchor_arrays(dim: int, num_nodes: int, anchors) -> tuple[np.ndarray, np.ndarray]:
    """The validated anchor ids, sorted, and a copy of their positions, one
    row per id (the caller's arrays stay writable)."""
    if not anchors:
        raise InvalidParameter("at least one anchor is required")
    for k in anchors:
        # a float or a boolean id would be truncated to a node id below
        if not is_integer(k):
            raise InvalidParameter(f"anchor id {k!r} is not an integer")
        if not 0 <= k < num_nodes:
            raise InvalidParameter(f"anchor id {k} out of range")
    ids = np.fromiter(anchors, dtype=np.intp, count=len(anchors))
    ids = ids[_id_order(ids, num_nodes)]
    rows = []
    for k in ids.tolist():
        try:
            pos = np.asarray(anchors[k], dtype=float)
        except (TypeError, ValueError):
            pos = None
        if pos is not None and pos.shape != (dim,):
            raise InvalidParameter(f"anchor {k} position has shape {pos.shape}")
        if pos is None or not np.isfinite(pos).all():
            raise InvalidParameter(f"anchor {k} position must be {dim} finite numbers")
        rows.append(pos)
    return ids, np.stack(rows)


def _edge_pairs(edges, num_nodes: int) -> np.ndarray:
    """``edges`` as an ``(M, 2)`` array of valid node ids.

    Raises
    ------
    InvalidParameter
        Naming the first self-loop or out-of-range edge in input order, or
        when the ids are not integers.
    """
    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    except (TypeError, ValueError):  # not a collection, or pairs of unequal length
        raise InvalidParameter("edges must be pairs of integer node ids") from None
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise InvalidParameter("edges must be pairs of integer node ids")
    i, j = pairs[:, 0], pairs[:, 1]
    bad = (i == j) | (i < 0) | (i >= num_nodes) | (j < 0) | (j >= num_nodes)
    if bad.any():
        a, b = pairs[int(np.argmax(bad))].tolist()
        if a == b:
            raise InvalidParameter(f"self-loop at node {a}")
        raise InvalidParameter(f"edge ({a},{b}) out of range")
    return pairs.astype(np.intp, copy=False)


def _assemble(num_nodes: int, anchor_idx, anchor_pos, a, b) -> NetworkGraph:
    """The graph whose undirected edges are the pairs ``(a[k], b[k])`` of
    node ids and whose anchors ``anchor_idx``, sorted, sit at the rows of
    ``anchor_pos``, which becomes read-only; every input already checked."""
    csr = _csr(num_nodes, a, b)
    return _graph(csr, anchor_idx, anchor_pos, _is_connected(csr))


def _graph(csr, anchor_idx: np.ndarray, anchor_pos: np.ndarray, connected: bool) -> NetworkGraph:
    """The graph of the CSR arrays ``(offsets, src, dst, rev)`` with the
    anchors ``anchor_idx``, sorted, at the rows of ``anchor_pos``, which
    becomes read-only. The index arrays stay writable: a gather by a
    read-only index runs slower."""
    anchor_pos.flags.writeable = False
    return NetworkGraph(*csr, anchor_idx, anchor_pos, connected)


def _csr(num_nodes: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """``(offsets, src, dst, rev)`` of the graph whose undirected edges are
    the pairs ``(a[k], b[k])``, in either orientation and possibly repeated.

    The directed edges are ordered by ``(src, dst)`` (:func:`_pair_order`),
    so node ``i`` owns rows ``offsets[i]:offsets[i+1]`` in sorted-neighbor
    order, and repeats, now adjacent, are dropped. The same rows ordered by
    ``(dst, src)`` instead are the reverse edges of the rows in
    ``(src, dst)`` order, so the stable order by ``dst`` alone is ``rev``.
    Every order is a 16-bit radix pass per digit of a node id, so the whole
    assembly takes O(N + E) time.
    """
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = _pair_order(src, dst, num_nodes)
    src, dst = src[order], dst[order]
    # drop repeats; np.unique would also import numpy.ma (~1 MB of RSS)
    keep = np.diff(src * num_nodes + dst, prepend=-1) > 0
    src, dst = src[keep], dst[keep]
    offsets = np.zeros(num_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=offsets[1:])
    return offsets, src, dst, _id_order(dst, num_nodes)


def _id_order(ids: np.ndarray, limit: int) -> np.ndarray:
    """The stable sorting order of ``ids``, integers in ``[0, limit)``:
    ``np.argsort(ids, kind="stable")``, in linear time.

    A least-significant-digit radix sort, one stable pass per 16-bit digit:
    NumPy sorts keys of 16 bits or less stably by radix, and wider ones by
    a comparison sort (the 16 702 ``dst`` ids of the N = 1000 benchmark
    instance: 84 against 919 µs, 2-core Xeon). Ids below ``2**16`` take one
    pass.
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    for shift in range(16, (limit - 1).bit_length(), 16):
        digit = (ids.take(order) >> shift).astype(np.uint16)
        order = order.take(np.argsort(digit, kind="stable"))
    return order


def _pair_order(first: np.ndarray, second: np.ndarray, limit: int) -> np.ndarray:
    """The stable order of the pairs ``(first[k], second[k])`` of ids in
    ``[0, limit)``, by ``first`` and then ``second``: by ``second``, then
    stably by ``first``."""
    by_second = _id_order(second, limit)
    return by_second.take(_id_order(first.take(by_second), limit))


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[k] : starts[k] + counts[k]``."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _is_connected(csr) -> bool:
    """Breadth-first reachability from node 0 over all nodes of the CSR
    graph ``(offsets, src, dst, rev)``, one frontier at a time."""
    offsets, _, dst, _ = csr
    seen = np.zeros(len(offsets) - 1, dtype=bool)
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        seen[frontier] = True
        starts = offsets[frontier]
        reached = np.zeros_like(seen)
        reached[dst[_expand(starts, offsets[frontier + 1] - starts)]] = True
        frontier = np.flatnonzero(reached & ~seen)
    return bool(seen.all())


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """True positions, one row per node, anchor rows matching the graph.

    Ground truths compare by identity."""

    positions: np.ndarray  # (num_nodes, dim)

    def __post_init__(self):
        pos = check_numbers("positions", self.positions)  # a copy: the caller's stays writable
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise InvalidParameter(f"positions must be rows of 2 or 3 numbers, got shape {pos.shape}")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


def check_truth(truth: GroundTruth, graph: NetworkGraph) -> None:
    """``InvalidParameter`` unless ``truth`` is a :class:`GroundTruth` with a
    row per node of ``graph``, a :class:`NetworkGraph`, of its dim."""
    check_type("graph", graph, NetworkGraph)
    check_type("truth", truth, GroundTruth)
    need = (graph.num_nodes, graph.dim)
    if truth.positions.shape != need:
        raise InvalidParameter(
            f"truth positions have shape {truth.positions.shape}, the graph needs {need}"
        )


@dataclass(frozen=True)
class NoiseModel:
    """Range-noise description.

    ``additive-white`` draws ``Normal(0, sigma_add**2)`` in distance units;
    ``range-dependent`` draws ``Normal(0, sigma_add * length**2)`` so the
    noise variance grows with the squared edge length (``sigma_add`` is then
    dimensionless).
    """

    kind: str = "additive-white"
    sigma_add: float = 0.0

    KINDS = ("additive-white", "range-dependent")

    def __post_init__(self):
        check_choice("noise kind", self.kind, self.KINDS)
        if not (check_real("sigma_add", self.sigma_add) >= 0.0 and math.isfinite(self.sigma_add)):
            raise InvalidParameter(f"sigma_add must be >= 0, got {self.sigma_add}")


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Noisy ranges of the graph they were taken on, one per undirected
    edge: ``d[k]`` is the range of ``graph.edge_list[k]``, in a read-only
    float copy of the array given."""

    graph: NetworkGraph = field(repr=False)
    d: np.ndarray
    # the solvers' coefficients at the latest penalties, one entry at most
    # (structured_ops.EdgeCoefficients.held)
    _coefficients: dict = field(default_factory=dict, init=False, repr=False)
    # the JSON text of d in the file load_network read it from, which
    # save_network writes again instead of spelling every range anew; it
    # holds only while d, read-only, keeps the values the text spells
    _d_text: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_type("graph", self.graph, NetworkGraph)
        d, edges = check_numbers("d", self.d), self.graph.forward.size
        if d.shape != (edges,):
            raise InvalidParameter(f"expected {edges} ranges, got {d.shape}")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @classmethod
    def from_pairs(cls, graph: NetworkGraph, pairs: Mapping) -> "MeasurementSet":
        """The ranges of ``graph`` read from ``(i, j) -> d`` pairs with ``i < j``
        (other pairs are ignored); ``InvalidParameter`` names an edge with none."""
        edges = graph.edge_list
        try:
            d = np.fromiter(map(pairs.__getitem__, edges), dtype=float, count=len(edges))
        except KeyError as exc:
            raise InvalidParameter(f"no range measured for edge {exc.args[0]}") from None
        return cls(graph, d)

    @cached_property
    def _edge_field(self) -> np.ndarray:
        """The read-only edge field holding ``d[k]`` on both rows of the
        ``k``-th edge of the sorted edge list."""
        graph = self.graph
        out = np.empty(graph.sum_degree)
        out[graph.forward] = self.d
        out[graph.rev[graph.forward]] = self.d
        out.flags.writeable = False
        return out

    def node_ranges(self, graph: NetworkGraph) -> list[np.ndarray]:
        """Per node, ranges to each neighbor in sorted-neighbor order."""
        d = self.edge_ranges(graph)  # checks graph before its split is read
        return graph.split(d)

    def edge_ranges(self, graph: NetworkGraph) -> np.ndarray:
        """Ranges of every directed edge of ``graph`` (the set's own graph, or
        one with the same directed edges), one read-only array in row
        order; ``InvalidParameter`` for any other graph."""
        self._check(graph)
        return self._edge_field

    def _check(self, graph: NetworkGraph) -> None:
        check_type("graph", graph, NetworkGraph)
        mine = self.graph
        same = graph is mine or (
            np.array_equal(mine.src, graph.src) and np.array_equal(mine.dst, graph.dst)
        )
        if not same:
            raise InvalidParameter("measurements were taken on another graph")

    @property
    def max_range(self) -> float:
        return float(self.d.max(initial=0.0))


def generate_rgg(
    num_nodes: int,
    num_anchors: int,
    comm_range: float,
    area_side: float = 1.0,
    dim: int = 2,
    seed: int = 0,
) -> tuple[NetworkGraph, GroundTruth]:
    """Generate a connected random geometric graph with random anchors.

    Positions are uniform over ``[0, area_side]**dim`` and nodes ``a < b``
    are adjacent iff ``np.sqrt(((pos[a] - pos[b])**2).sum()) <= comm_range``.
    The whole layout is resampled until connected (up to
    ``MAX_LAYOUT_ATTEMPTS``); anchors are the first ``num_anchors`` ids of a
    seeded shuffle. Deterministic for a fixed seed.

    Adjacent pairs are found with a cell list (Bentley, "A survey of
    techniques for fixed-radius near neighbor searching", 1975): a uniform
    grid of cells of side ``comm_range * (1 + 1e-9)``, where a node's
    candidates are the nodes of its own cell and of the ``3**dim - 1``
    cells around it. Each candidate pair takes the distance test above, so
    the graph is bit-identical to testing all ``N * N`` distances, but time
    and memory are O(N + E): the nodes are ordered by cell key, and the
    edges by node id, with 16-bit radix passes (:func:`_id_order`), and the
    cell bounds and distances are computed a coordinate at a time.

    Raises
    ------
    InvalidParameter
        Counts that are not integers >= 1, lengths that are not positive
        numbers, an infinite side, more anchors than nodes, a bad dim or seed.
    ConnectivityFailure
        No connected layout within the retry budget.
    """
    num_nodes = check_integer("num_nodes", num_nodes, 1)
    num_anchors = check_integer("num_anchors", num_anchors, 1)
    if num_anchors > num_nodes:
        raise InvalidParameter("more anchors than nodes")
    if not (check_real("comm_range", comm_range) > 0.0):
        raise InvalidParameter("comm_range must be positive")
    if not (0.0 < check_real("area_side", area_side) < math.inf):
        raise InvalidParameter("area_side must be positive and finite")
    dim = check_choice("dim", dim, (2, 3))
    check_seed(seed)

    rng = np.random.default_rng(seed)
    for _ in range(MAX_LAYOUT_ATTEMPTS):
        positions = rng.uniform(0.0, area_side, size=(num_nodes, dim))
        csr = _csr(num_nodes, *_near_pairs(positions, comm_range, area_side))
        if not _is_connected(csr):
            continue

        picked = rng.permutation(num_nodes)[:num_anchors]
        anchor_idx = picked[_id_order(picked, num_nodes)]
        return _graph(csr, anchor_idx, positions[anchor_idx], True), GroundTruth(positions)

    raise ConnectivityFailure(
        f"no connected layout in {MAX_LAYOUT_ATTEMPTS} attempts "
        f"(N={num_nodes}, range={comm_range}, side={area_side})"
    )


def _near_pairs(positions: np.ndarray, comm_range: float, area_side: float):
    """The pairs ``a < b`` of rows of ``positions`` (drawn from
    ``[0, area_side)``) within ``comm_range``, as two arrays in no
    particular order."""
    n, dim = positions.shape
    # A side just above comm_range puts every pair within range in the same
    # or adjacent cells; capping the cells per axis keeps a cell key within
    # int64 and the error of a computed cell coordinate far below the 1e-9
    # margin. Larger cells only add candidates.
    side = max(comm_range * (1.0 + 1e-9), area_side / MAX_GRID_CELLS)
    per_axis = int(area_side / side) + 1
    # one row of cell coordinates per axis
    cell = np.minimum(np.floor(positions.T / side), per_axis - 1).astype(np.intp)
    weights = [per_axis**k for k in range(dim)]
    key = sum(w * coord for w, coord in zip(weights, cell))
    order = _id_order(key, per_axis**dim)
    key, cell = key[order], cell[:, order]
    rank = np.arange(n)

    firsts, seconds = [], []
    # Each unordered pair of cells once: the own cell (pairing each node with
    # the nodes after it in sort order), then every neighbor cell whose key
    # is larger, that is whose last nonzero offset is +1.
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        if offset[::-1] < (0,) * dim:
            continue
        if any(offset):
            # the neighbor cell exists unless a coordinate steps off the grid
            inside = np.ones(n, dtype=bool)
            for coord, step in zip(cell, offset):
                if step:
                    inside &= coord != (0 if step < 0 else per_axis - 1)
            rows = np.flatnonzero(inside)
            target = key[rows] + sum(s * w for s, w in zip(offset, weights))
            lo = np.searchsorted(key, target, side="left")
        else:
            rows = rank
            target = key
            lo = rank + 1
        counts = np.searchsorted(key, target, side="right") - lo
        firsts.append(np.repeat(order[rows], counts))
        seconds.append(order[_expand(lo, counts)])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    a, b = np.minimum(a, b), np.maximum(a, b)
    # (diff * diff).sum(axis=1) a column at a time: the row sum adds a row's
    # entries in order, as these adds do, so the squares sum to the same
    # bits, but a reduction of rows of length 2 or 3 runs several times slower
    first, *rest = (np.take(x, a) - np.take(x, b) for x in positions.T)
    dist2 = first * first
    for diff in rest:
        dist2 += diff * diff
    near = np.sqrt(dist2) <= comm_range
    return a[near], b[near]


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the ``(K, dim)`` array ``x``.

    ``np.linalg.norm`` takes the dot product of a vector with itself, and
    each row's matmul with itself rounds the same way, so the result is
    bit-identical to ``np.linalg.norm`` row by row; ``(x * x).sum(axis=1)``
    rounds differently.
    """
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def measure(
    truth: GroundTruth,
    graph: NetworkGraph,
    model: NoiseModel,
    seed: int = 0,
) -> MeasurementSet:
    """Draw one noisy range per unordered edge.

    Negative draws are clamped to zero: a negative range would flip the
    direction term it multiplies inside the solvers. Deterministic for a
    fixed seed; edges are visited in sorted order, one normal draw each.
    """
    check_truth(truth, graph)
    check_type("model", model, NoiseModel)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    length = edge_lengths(graph, truth.positions)
    if model.kind == "additive-white":
        scale = model.sigma_add
    else:
        scale = math.sqrt(model.sigma_add) * length
    ranges = np.maximum(length + rng.normal(0.0, scale, size=len(length)), 0.0)
    return MeasurementSet(graph, ranges)


def edge_lengths(graph: NetworkGraph, positions: np.ndarray) -> np.ndarray:
    """Per undirected edge, in sorted edge-list order, the distance between
    the rows of ``positions`` at its ends."""
    fwd = graph.forward
    return row_norms(
        np.take(positions, graph.src[fwd], axis=0) - np.take(positions, graph.dst[fwd], axis=0)
    )


def rmse(estimates, truth: GroundTruth, graph: NetworkGraph) -> float:
    """Root-mean-squared position error over non-anchor nodes.

    ``estimates`` may be an ``(num_nodes, dim)`` array or a mapping
    node id -> position; anchor entries are ignored either way.
    """
    check_truth(truth, graph)
    free = _free_nodes(graph)
    if isinstance(estimates, Mapping):
        missing = [i for i in free if i not in estimates]
        est = None if missing else _estimate_rows([estimates[i] for i in free], graph.dim)
    else:
        est = _estimate_rows(estimates, graph.dim)
        missing = free[free >= len(est)]
        est = None if len(missing) else np.take(est, free, axis=0)
    if est is None:
        raise MissingPosition(f"no estimate for node {missing[0]}")
    target = np.take(truth.positions, free, axis=0)
    return float(_rms_error(est[None], target)[0])


def _estimate_rows(estimates, dim: int) -> np.ndarray:
    """``estimates`` as a float array of rows of ``dim`` numbers."""
    est = check_numbers("estimates", estimates)
    if est.ndim != 2 or est.shape[1] != dim:
        raise InvalidParameter(f"estimates must be rows of {dim} numbers, got shape {est.shape}")
    return est


def copy_rmse(truth: GroundTruth, graph: NetworkGraph):
    """:func:`rmse` for every copy of a :meth:`NetworkGraph.stack` graph at
    once: a function of positions with a row per stacked node, whose entry
    ``k`` is the rmse of copy ``k``'s rows against ``truth``."""
    free = _free_nodes(graph)
    target = np.take(truth.positions, free, axis=0)

    def per_copy(positions: np.ndarray) -> np.ndarray:
        return _rms_error(graph.by_copy(positions).take(free, axis=1), target)

    return per_copy


def _free_nodes(graph: NetworkGraph) -> np.ndarray:
    """The non-anchor node ids of one copy of ``graph``."""
    anchors = graph.by_copy(graph.anchor_idx)[0]
    free = np.delete(np.arange(graph.num_nodes // graph.copies), anchors)
    if not free.size:
        raise EmptyFreeSet("every node is an anchor")
    return free


def _rms_error(est: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per leading index ``k``, the rms distance of the rows ``est[k]`` to
    the rows of ``target``."""
    delta = est - target
    rows = delta.reshape(-1, delta.shape[-1])
    # Each row's matmul with itself rounds like delta[k] @ delta[k];
    # (delta * delta).sum(axis=1) rounds differently.
    err2 = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0].reshape(delta.shape[:-1])
    return np.sqrt(err2.sum(axis=-1) / target.shape[0])


# -- network file round trip -------------------------------------------------
#
# Structured-text schema 2, one object per file, one key per line:
#   {"schema_version": 2, "dim": n, "num_nodes": N,
#    "anchors": [3, 7],                    anchor ids
#    "anchor_pos": [x3, y3, x7, y7],       dim numbers per anchor, flat
#    "pos": [x0, y0, x1, y1, ...],         dim numbers per node, flat
#    "i": [0, 0, 1], "j": [1, 2, 2],       one entry per undirected edge
#    "d": [0.42, 0.31, 0.5]}               the range of each edge
# ids are 0-based; "pos" (truth) is optional and omitted for blind runs, and
# "d" for files without ranges. save_network writes each edge with i < j, in
# edge-list order; load_network reads the edges in any order and orientation.
#
# Schema 1, a legacy format that locadmm no longer writes but load_network
# still reads, one entry at a time, gives each node and edge its own object,
# ids 0-based and dense, one edge entry per unordered edge:
#   {"schema_version": 1, "dim": n,
#    "nodes": [{"id": 0, "anchor": false, "pos": [...]},
#              {"id": 3, "anchor": true, "anchor_pos": [...], "pos": [...]}],
#    "edges": [{"i": 0, "j": 1, "d": 0.42}]}


def save_network(
    path,
    graph: NetworkGraph,
    truth: GroundTruth | None = None,
    measurements: MeasurementSet | None = None,
) -> None:
    """Write a network file in schema 2; see the schema comment above.

    Each array is one ``json.dumps`` call, which runs in C: a float is
    spelled by ``float.__repr__``, and NaN and the infinities as ``NaN``,
    ``Infinity`` and ``-Infinity``. The ranges of a set that
    :func:`load_network` read from a schema-2 file are the one exception:
    they are written as the text that file spelled them in (see
    ``_d_text``), which loads back to the same floats bit for bit, and
    which for a file this function wrote is that same spelling. Files of
    schema 2 cannot be read by locadmm versions that read only schema 1.
    """
    check_type("graph", graph, NetworkGraph)
    if measurements is not None:
        check_type("measurements", measurements, MeasurementSet)._check(graph)
    n, dim = graph.num_nodes, graph.dim
    columns = {"anchors": graph.anchor_idx, "anchor_pos": graph.anchor_pos}
    if truth is not None:
        check_truth(truth, graph)
        columns["pos"] = truth.positions
    columns["i"], columns["j"] = graph.src[graph.forward], graph.dst[graph.forward]
    lines = [f'"schema_version": {SCHEMA_VERSION}', f'"dim": {dim}', f'"num_nodes": {n}']
    lines += [f'"{key}": {json.dumps(x.ravel().tolist())}' for key, x in columns.items()]
    if measurements is not None:
        d_text = measurements._d_text
        lines.append(f'"d": {json.dumps(measurements.d.tolist()) if d_text is None else d_text}')
    write_text(path, "{\n " + ",\n ".join(lines) + "\n}\n")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, the way ``open(path, "w")``
    would: the same bytes, and the same ``OSError`` for a path that cannot
    be opened or written; ``InvalidParameter`` for a ``path`` that is no
    path (:func:`~locadmm.errors.check_path`).

    The file is rewritten in place: it is opened without truncation, and a
    regular file is cut to the new length after the write, so an existing
    file keeps its inode and its mode. A device such as ``/dev/null`` is
    never truncated. Truncating an existing file first and rewriting it
    costs ~0.1-0.2 ms more on an ext4 mounted with ``discard``; a new path
    costs the same either way. A write that raises (a
    full disk, an interrupt) cuts a regular file to the bytes it wrote, as
    ``open(path, "w")`` would have left it; only a process killed mid-write
    leaves the file's old bytes after the new ones.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(check_path(path), os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        done = 0
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            if regular:
                os.ftruncate(fd, done)
    finally:
        os.close(fd)


def load_network(path):
    """Read a network file back into ``(graph, truth, measurements)``.

    ``truth`` and ``measurements`` are ``None`` when the file omits them,
    and ``measurements`` also when the graph has no edge. A disconnected
    graph loads successfully but carries ``graph.connected == False`` and
    emits a warning; solvers refuse such graphs.

    Schema 2 is read a column at a time (``_schema_2``); an error names the
    key and the first bad index in it. Schema 1 is read one entry at a time
    (``_schema_1``); an error names the first fault in file order. Each
    reader only checks, so a file that fails a check does not warn.

    Raises
    ------
    ParseError
        Malformed document (also non-UTF-8 or wrongly typed), ids out of
        range or repeated, self-loops, repeated or asymmetric edges,
        anchor/truth mismatches, non-finite numbers, negative ranges; names
        the field.
    SchemaVersionMismatch
        A ``schema_version`` other than 1 or 2.
    InvalidParameter
        A ``path`` that is no path, such as a file descriptor
        (:func:`~locadmm.errors.check_path`).
    """
    try:
        with open(check_path(path), "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno} col {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, over-long integers, deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc

    # json.load makes exact dicts, lists, strs, ints, floats, bools and
    # None, so `type(x) is int` tells an integer from a boolean
    if type(doc) is not dict:
        raise ParseError("top level: expected an object")
    version = doc.get("schema_version")
    if type(version) is not int or version not in (1, 2):
        raise SchemaVersionMismatch(f"schema_version: expected 1 or 2, got {version!r}")
    dim = doc.get("dim")
    if type(dim) is not int or dim not in (2, 3):
        raise ParseError(f"dim: expected 2 or 3, got {dim!r}")
    columns = _schema_1(doc, dim) if version == 1 else _schema_2(doc, dim, text)
    num_nodes, anchor_idx, anchor_pos, i, j, pos, d, d_text = columns
    graph = _assemble(num_nodes, anchor_idx, anchor_pos, i, j)
    if not graph.connected:
        warnings.warn("loaded network is not connected; solvers will reject it", stacklevel=2)
    measurements = None
    if d is not None and d.size:  # a graph without edges carries no ranges
        measurements = MeasurementSet(graph, d)
        object.__setattr__(measurements, "_d_text", d_text)
    return graph, None if pos is None else GroundTruth(pos), measurements


def _schema_2(doc: dict, dim: int, text: str) -> tuple:
    """The checked columns of a schema-2 document, parsed from ``text``:
    ``num_nodes``, the sorted anchor ids and positions, ``i``, ``j``, then
    the truth, the ranges in edge-list order and their text, or ``None``.
    The checks run key by key, in the schema's order, and each names the
    key and the first index that fails it in its ``ParseError``. The
    ranges keep their text (:func:`_d_text`) when the file lists the edges
    in edge-list order, as every file ``save_network`` writes does."""
    num_nodes = doc.get("num_nodes")
    # below 2**31, an edge's key lo * num_nodes + hi fits in 64 bits
    if type(num_nodes) is not int or not 1 <= num_nodes < 2**31:
        raise ParseError(
            f"num_nodes: expected an integer from 1 to 2**31 - 1, got {num_nodes!r:.40}"
        )
    anchors = _ids(doc, "anchors", num_nodes)
    if not anchors.size:
        raise ParseError("anchors: at least one anchor is required")
    by_id = _id_order(anchors, num_nodes)
    k = _first_repeat(by_id, anchors[by_id])
    if k is not None:
        raise ParseError(f"anchors[{k}]: repeated anchor {anchors[k]}")
    anchor_pos = _numbers(doc, "anchor_pos", anchors.size * dim).reshape(-1, dim)

    pos = None
    if "pos" in doc:
        pos = _numbers(doc, "pos", num_nodes * dim).reshape(-1, dim)
        differs = pos[anchors] != anchor_pos
        if differs.any():
            at = (anchors[:, None] * dim + np.arange(dim))[differs]  # flat indices into pos
            k = int(np.argmin(at))
            raise ParseError(f"pos[{at[k]}]: differs from anchor_pos[{np.flatnonzero(differs)[k]}]")

    i = _ids(doc, "i", num_nodes)
    j = _ids(doc, "j", num_nodes, i.size)
    loops = np.flatnonzero(i == j)
    if loops.size:
        k = loops[0]
        raise ParseError(f"i[{k}], j[{k}]: self-loop at node {i[k]}")
    order, keys = _edge_order(np.minimum(i, j), np.maximum(i, j), num_nodes)
    k = None if order is None else _first_repeat(order, keys)
    if k is not None:
        raise ParseError(f"i[{k}], j[{k}]: repeated edge ({i[k]},{j[k]})")

    d = _numbers(doc, "d", i.size, nonnegative=True) if "d" in doc else None
    if d is not None and order is not None:
        d = d[order]
    d_text = None if d is None or order is not None else _d_text(doc, text)
    return num_nodes, anchors[by_id], anchor_pos[by_id], i, j, pos, d, d_text


def _d_text(doc: dict, text: str) -> str | None:
    r"""The text that spells ``doc["d"]`` in the file ``text`` it was parsed
    from, or ``None`` unless the file's layout proves it without a second
    parse: ``d`` is the document's last key, the text ends ``]\n}\n``, and
    the span from the last ``\n "d": `` to that end holds no ``"``.

    A JSON string holds no raw newline, so the ``"d"`` after that newline
    is a key, and with no ``"`` after it, the last key in the text. As
    ``d`` is the document's last key and its value a list of numbers (the
    caller has checked it), that key is the top-level ``d``, not one
    nested in an earlier member, and the span is the text of its value,
    the one ``json.loads`` keeps, with any whitespace before it.
    """
    key = '\n "d": '
    if next(reversed(doc)) != "d" or not text.endswith("]\n}\n"):
        return None
    start = text.rfind(key)
    if start < 0:
        return None
    span = text[start + len(key):-len("\n}\n")]
    return None if '"' in span else span


def _ids(doc: dict, key: str, num_nodes: int, size: int | None = None) -> np.ndarray:
    """``doc[key]``, a list of node ids in ``[0, num_nodes)`` (of ``size``
    entries when given), as an index array."""
    values = doc.get(key)
    if type(values) is not list or (size is not None and len(values) != size):
        count = "" if size is None else f"{size} "
        raise ParseError(f"{key}: expected a list of {count}node ids")
    if _all(values, int):
        try:
            ids = np.fromiter(values, dtype=np.intp, count=len(values))
        except OverflowError:
            ids = None
        if ids is not None and ((ids >= 0) & (ids < num_nodes)).all():
            return ids
    # the column holds a fault: name the first
    k, x = next((k, x) for k, x in enumerate(values)
                if type(x) is not int or not 0 <= x < num_nodes)
    if type(x) is not int:
        raise ParseError(f"{key}[{k}]: expected an integer node id, got {x!r:.40}")
    raise ParseError(f"{key}[{k}]: node id {x!r:.40} out of range")


def _numbers(doc: dict, key: str, size: int, nonnegative: bool = False) -> np.ndarray:
    """``doc[key]``, a list of ``size`` finite numbers (none below zero if
    ``nonnegative``), as a float array; JSON integers convert as
    ``float()`` converts them."""
    values = doc.get(key)
    if type(values) is not list or len(values) != size:
        raise ParseError(f"{key}: expected a list of {size} numbers")
    if _all(values, float):
        array = np.fromiter(values, dtype=float, count=size)
        if np.isfinite(array).all() and not (nonnegative and (array < 0).any()):
            return array
    numbers = []  # an int, or a fault: one entry at a time, naming the first fault
    for k, x in enumerate(values):
        number = _number(x, f"{key}[{k}]")
        if nonnegative and number < 0:
            raise ParseError(f"{key}[{k}]: expected a finite non-negative number, got {x!r:.40}")
        numbers.append(number)
    return np.array(numbers, dtype=float)


def _edge_order(lo: np.ndarray, hi: np.ndarray, num_nodes: int) -> tuple:
    """The stable order that sorts the edges ``(lo[k], hi[k])`` as
    ``NetworkGraph.edge_list`` does, and their keys ``lo * num_nodes + hi``
    in that order. When the keys already increase strictly, as in every
    file ``save_network`` writes, one pass shows it, and the order is
    ``None``, the identity: no sort, and no repeated edge."""
    keys = lo * num_nodes + hi
    if (keys[1:] > keys[:-1]).all():
        return None, keys
    order = _pair_order(lo, hi, num_nodes)
    return order, keys[order]


def _first_repeat(order: np.ndarray, keys: np.ndarray) -> int | None:
    """The first index whose key equals an earlier index's key, given the
    stable ``order`` that sorts the keys and the ``keys`` in that order;
    ``None`` when every key differs."""
    later = order[1:][keys[1:] == keys[:-1]]
    return int(later.min()) if later.size else None


def _schema_1(doc: dict, dim: int) -> tuple:
    """The columns of a schema-1 document, as :func:`_schema_2` gives
    them, read one entry at a time: the node entries, then the edge
    entries, each entry's fields in the schema's order. So the first
    ``ParseError`` raised names the first fault in file order."""
    raw_nodes = doc.get("nodes")
    if type(raw_nodes) is not list or not raw_nodes:
        raise ParseError("nodes: expected a non-empty list")
    raw_edges = doc.get("edges")
    if type(raw_edges) is not list:
        raise ParseError("edges: expected a list")
    num_nodes = len(raw_nodes)

    ids: set[int] = set()
    anchors: dict[int, list[float]] = {}  # id -> anchor_pos
    pos: dict[int, list[float]] = {}  # id -> pos
    for k, entry in enumerate(raw_nodes):
        where = f"nodes[{k}]"
        if type(entry) is not dict:
            raise ParseError(f"{where}: expected an object")
        nid = entry.get("id")
        if type(nid) is not int or not 0 <= nid < num_nodes:
            raise ParseError(f"{where}.id: ids must be dense 0-based integers, got {nid!r}")
        if nid in ids:
            raise ParseError(f"{where}.id: duplicate id {nid}")
        ids.add(nid)
        anchor = entry.get("anchor")
        if type(anchor) is not bool:
            raise ParseError(f"{where}.anchor: expected a boolean")
        if anchor:
            anchors[nid] = _vector(entry.get("anchor_pos"), dim, f"{where}.anchor_pos")
        if "pos" in entry:
            pos[nid] = _vector(entry["pos"], dim, f"{where}.pos")

    i, j, d = [], [], []
    first: dict[tuple[int, int], int] = {}  # edge -> its first entry
    for k, entry in enumerate(raw_edges):
        where = f"edges[{k}]"
        if type(entry) is not dict:
            raise ParseError(f"{where}: expected an object")
        a, b = entry.get("i"), entry.get("j")
        if type(a) is not int or type(b) is not int:
            raise ParseError(f"{where}: i and j must be integers")
        if a == b or not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise ParseError(f"{where}: invalid edge ({a},{b})")
        dk = entry.get("d")
        if dk is not None:
            dk = _number(dk, f"{where}.d")
            if dk < 0:
                raise ParseError(f"{where}.d: expected a finite non-negative number")
        p = first.setdefault((a, b) if a < b else (b, a), k)
        if p != k:
            if dk != d[p]:
                raise ParseError(
                    f"{where}: asymmetric duplicate edge ({a},{b}) d={dk!r} "
                    f"conflicts with ({i[p]},{j[p]}) d={d[p]!r}"
                )
            raise ParseError(f"{where}: duplicate edge ({a},{b})")
        i.append(a)
        j.append(b)
        d.append(dk)

    i, j = (np.fromiter(x, dtype=np.intp, count=len(x)) for x in (i, j))
    order, _ = _edge_order(np.minimum(i, j), np.maximum(i, j), num_nodes)
    if not anchors:
        raise ParseError("nodes: at least one anchor entry is required")
    anchor_ids, anchor_rows = zip(*sorted(anchors.items()))
    anchor_idx, anchor_pos = np.array(anchor_ids, dtype=np.intp), np.array(anchor_rows)

    truth = None
    if pos:
        if len(pos) != num_nodes:
            # the N ids are 0 .. N-1
            missing = [n for n in range(num_nodes) if n not in pos]
            raise ParseError(f"nodes: pos given for some nodes but missing for {missing}")
        truth = np.array([pos[n] for n in range(num_nodes)])
        differs = (truth[anchor_idx] != anchor_pos).any(axis=1)
        if differs.any():
            k = int(anchor_idx[np.argmax(differs)])
            raise ParseError(f"nodes[{k}]: pos differs from anchor_pos")

    ranges = np.array([x for x in d if x is not None])
    if ranges.size and ranges.size != len(d):
        raise ParseError("edges: d given for some edges but not all")
    if ranges.size and order is not None:
        ranges = ranges[order]
    return num_nodes, anchor_idx, anchor_pos, i, j, truth, ranges, None


def _all(values: list, kind: type) -> bool:
    """Whether every entry of ``values`` is exactly of type ``kind``
    (``bool`` is not ``int``), tested at C speed."""
    return set(map(type, values)) <= {kind}


def _number(x, where: str) -> float:
    """``x`` as a float if it is a finite JSON number (an int or a float,
    not a boolean); ints convert exactly as ``float()`` converts them."""
    if (type(x) is float or type(x) is int) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ParseError(f"{where}: expected a finite number, got {x!r:.40}")


def _vector(v, dim: int, where: str) -> list[float]:
    """``v`` as ``dim`` floats, each checked by ``_number``."""
    if type(v) is not list or len(v) != dim:
        raise ParseError(f"{where}: expected a list of {dim} numbers")
    return [_number(x, f"{where}[{m}]") for m, x in enumerate(v)]
