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

SCHEMA_VERSION = 1

# Connectivity is enforced by resampling the whole layout, which preserves the
# uniform spatial law; edge augmentation would not.
MAX_LAYOUT_ATTEMPTS = 1000


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected sensor graph with an anchor subset.

    Attributes
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    num_nodes : int
        Node count; ids are the dense range ``0 .. num_nodes-1``.
    anchors : dict[int, np.ndarray]
        Anchor id -> known position, iteration order sorted by id.
    neighbors : tuple[tuple[int, ...], ...]
        Per node, the sorted tuple of adjacent node ids. All per-edge arrays
        in this package are aligned with this ordering.
    edge_list : tuple[tuple[int, int], ...]
        Sorted unordered edges, each with ``i < j``.
    connected : bool
        Whether the graph is a single component covering all nodes. Loading
        tolerates ``False`` (with a warning); solvers do not.
    rev_pos : tuple[tuple[int, ...], ...]
        ``rev_pos[i][k]`` is the position of ``i`` inside
        ``neighbors[j]`` where ``j = neighbors[i][k]``; used to address the
        reverse direction of an edge without searching.
    """

    dim: int
    num_nodes: int
    anchors: dict[int, np.ndarray]
    neighbors: tuple[tuple[int, ...], ...]
    edge_list: tuple[tuple[int, int], ...]
    connected: bool
    rev_pos: tuple[tuple[int, ...], ...] = field(repr=False)

    @classmethod
    def build(
        cls,
        dim: int,
        num_nodes: int,
        anchors: dict[int, np.ndarray],
        edges,
    ) -> "NetworkGraph":
        """Validate and assemble a graph from an unordered edge collection.

        Raises
        ------
        InvalidParameter
            On bad dimension/counts, self-loops, out-of-range ids, or an
            empty anchor set.
        """
        if dim not in (2, 3):
            raise InvalidParameter(f"dim must be 2 or 3, got {dim}")
        if num_nodes < 1:
            raise InvalidParameter(f"num_nodes must be positive, got {num_nodes}")
        if not anchors:
            raise InvalidParameter("at least one anchor is required")

        anchor_map: dict[int, np.ndarray] = {}
        for k in sorted(anchors):
            if not 0 <= k < num_nodes:
                raise InvalidParameter(f"anchor id {k} out of range")
            pos = np.asarray(anchors[k], dtype=float)
            if pos.shape != (dim,):
                raise InvalidParameter(f"anchor {k} position has shape {pos.shape}")
            pos.flags.writeable = False
            anchor_map[k] = pos

        edge_set: set[tuple[int, int]] = set()
        for i, j in edges:
            if i == j:
                raise InvalidParameter(f"self-loop at node {i}")
            if not (0 <= i < num_nodes and 0 <= j < num_nodes):
                raise InvalidParameter(f"edge ({i},{j}) out of range")
            edge_set.add((min(i, j), max(i, j)))
        edge_tuple = tuple(sorted(edge_set))

        nbr_sets: list[set[int]] = [set() for _ in range(num_nodes)]
        for i, j in edge_tuple:
            nbr_sets[i].add(j)
            nbr_sets[j].add(i)
        neighbors = tuple(tuple(sorted(s)) for s in nbr_sets)

        rev_pos = tuple(
            tuple(neighbors[j].index(i) for j in neighbors[i])
            for i in range(num_nodes)
        )

        return cls(
            dim=dim,
            num_nodes=num_nodes,
            anchors=anchor_map,
            neighbors=neighbors,
            edge_list=edge_tuple,
            connected=_is_connected(num_nodes, neighbors),
            rev_pos=rev_pos,
        )

    @property
    def degrees(self) -> np.ndarray:
        return self.layout.degrees.copy()

    @property
    def num_anchors(self) -> int:
        return len(self.anchors)

    @property
    def avg_degree(self) -> float:
        """Mean neighbor count (1/N) sum_i N_i."""
        return float(self.sum_degree) / self.num_nodes

    @property
    def max_degree(self) -> int:
        return int(self.layout.degrees.max())

    @property
    def sum_degree(self) -> int:
        """Total directed-edge count, twice the number of edges."""
        return self.layout.num_edges

    @cached_property
    def layout(self) -> "EdgeLayout":
        """Flat per-edge addressing, built on first use and kept."""
        return EdgeLayout.build(self)


@dataclass(frozen=True, eq=False)
class EdgeLayout:
    """Flat addressing of a graph's directed edges.

    Node ``i`` owns rows ``offsets[i]:offsets[i+1]`` in sorted-neighbor
    order, so one ``(E, dim)`` array stacks every node's ``(degree, dim)``
    per-edge field. Row ``e`` runs from node ``src[e]`` to node ``dst[e]``,
    and ``rev[e]`` is the row of the reverse edge: the gather ``x[rev]``
    hands every node the rows its neighbors hold toward it.

    With the nodes ranked by falling degree (node ``i`` has rank
    ``rank[i]``), ``columns[m]`` lists row ``offsets[i] + m`` of every node
    with degree above ``m``, in rank order; so column ``m`` covers the
    first ``len(columns[m])`` ranks.

    The solvers gather with ``np.take(x, idx, axis=0)``: it equals
    ``x[idx]`` but runs several times faster on ``(E, dim)`` arrays.
    """

    offsets: np.ndarray
    src: np.ndarray
    rev: np.ndarray
    degrees: np.ndarray
    anchor_idx: np.ndarray
    anchor_pos: np.ndarray
    rank: np.ndarray
    columns: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, graph: NetworkGraph) -> "EdgeLayout":
        n = graph.num_nodes
        degrees = np.fromiter(map(len, graph.neighbors), dtype=np.intp, count=n)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degrees, out=offsets[1:])
        num_edges = int(offsets[-1])
        dst = np.fromiter(
            itertools.chain.from_iterable(graph.neighbors), dtype=np.intp, count=num_edges
        )
        rev_pos = np.fromiter(
            itertools.chain.from_iterable(graph.rev_pos), dtype=np.intp, count=num_edges
        )
        by_degree = np.argsort(-degrees, kind="stable")
        ranked = degrees[by_degree]
        starts = offsets[by_degree]
        anchor_pos = (
            np.stack(list(graph.anchors.values()))
            if graph.anchors
            else np.zeros((0, graph.dim))
        )
        return cls(
            offsets=offsets,
            src=np.repeat(np.arange(n, dtype=np.intp), degrees),
            rev=offsets[dst] + rev_pos,
            degrees=degrees,
            anchor_idx=np.fromiter(graph.anchors, dtype=np.intp, count=len(graph.anchors)),
            anchor_pos=anchor_pos,
            rank=np.argsort(by_degree),
            columns=tuple(
                starts[: np.count_nonzero(ranked > m)] + m for m in range(int(ranked[0]))
            ),
        )

    @property
    def num_nodes(self) -> int:
        return len(self.degrees)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def dst(self) -> np.ndarray:
        return self.src[self.rev]

    def node_sum(self, x: np.ndarray) -> np.ndarray:
        """Per node, the sum of its rows of the edge field ``x``.

        Rows are added one degree column at a time, starting from zero and
        in row order, which is the order ``x[rows].sum(axis=0)`` adds one
        node's block in; the result is bit-identical to that per-node sum
        (``np.add.reduceat`` is not: it groups the additions differently).
        """
        acc = np.zeros((self.num_nodes,) + x.shape[1:])
        for col in self.columns:
            acc[: len(col)] += np.take(x, col, axis=0)
        return np.take(acc, self.rank, axis=0)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-node views of the rows of the edge field ``x``."""
        bounds = self.offsets.tolist()
        return [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class GroundTruth:
    """True positions, one row per node, anchor rows matching the graph."""

    positions: np.ndarray  # (num_nodes, dim)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


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
        if self.kind not in self.KINDS:
            raise InvalidParameter(f"unknown noise kind {self.kind!r}")
        if not (self.sigma_add >= 0.0 and math.isfinite(self.sigma_add)):
            raise InvalidParameter(f"sigma_add must be >= 0, got {self.sigma_add}")


@dataclass(frozen=True)
class MeasurementSet:
    """Noisy ranges keyed by unordered edge ``(i, j)`` with ``i < j``.

    ``d`` is a read-only copy of the mapping given, so the range arrays
    built from it for each graph can be kept for the life of the set.
    """

    d: Mapping[tuple[int, int], float]
    # id(graph) -> (graph, its edge_ranges); the graph is held so its id
    # cannot be reused by another graph while the entry lives
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d", MappingProxyType(dict(self.d)))

    def value(self, i: int, j: int) -> float:
        return self.d[(i, j) if i < j else (j, i)]

    def node_ranges(self, graph: NetworkGraph) -> list[np.ndarray]:
        """Per node, ranges to each neighbor in sorted-neighbor order."""
        return graph.layout.split(self.edge_ranges(graph))

    def edge_ranges(self, graph: NetworkGraph) -> np.ndarray:
        """Ranges of every directed edge, in the graph's edge-layout order.

        Built on the first call for ``graph`` and kept: later calls with the
        same graph object return the same read-only array.

        Raises
        ------
        InvalidParameter
            When an edge of the graph has no measured range.
        """
        hit = self._ranges.get(id(graph))
        if hit is None:
            hit = self._ranges[id(graph)] = (graph, self._build_ranges(graph))
        return hit[1]

    def _build_ranges(self, graph: NetworkGraph) -> np.ndarray:
        # One lookup per undirected edge. The rows with src < dst, in layout
        # order, are the sorted edge list; each value also goes to the
        # reverse row.
        lay = graph.layout
        try:
            vals = np.fromiter(
                map(self.d.__getitem__, graph.edge_list), dtype=float, count=len(graph.edge_list)
            )
        except KeyError as exc:
            raise InvalidParameter(f"no range measured for edge {exc.args[0]}") from None
        fwd = np.flatnonzero(lay.src < lay.dst)
        out = np.empty(lay.num_edges)
        out[fwd] = vals
        out[lay.rev[fwd]] = vals
        out.flags.writeable = False
        return out

    @property
    def max_range(self) -> float:
        return max(self.d.values())


def _is_connected(num_nodes: int, neighbors) -> bool:
    """Breadth-first reachability from node 0 over all nodes."""
    if num_nodes == 0:
        return False
    seen = [False] * num_nodes
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for i in frontier:
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    nxt.append(j)
        frontier = nxt
    return count == num_nodes


def generate_rgg(
    num_nodes: int,
    num_anchors: int,
    comm_range: float,
    area_side: float = 1.0,
    dim: int = 2,
    seed: int = 0,
) -> tuple[NetworkGraph, GroundTruth]:
    """Generate a connected random geometric graph with random anchors.

    Positions are uniform over ``[0, area_side]**dim`` and nodes are adjacent
    iff their distance is at most ``comm_range``. The whole layout is
    resampled until connected (up to ``MAX_LAYOUT_ATTEMPTS``); anchors are
    the first ``num_anchors`` ids of a seeded shuffle. Deterministic for a
    fixed seed.

    Raises
    ------
    InvalidParameter
        Nonpositive counts or lengths, anchors exceeding nodes, bad dim.
    ConnectivityFailure
        No connected layout within the retry budget.
    """
    if num_nodes < 1 or num_anchors < 1:
        raise InvalidParameter("node and anchor counts must be positive")
    if num_anchors > num_nodes:
        raise InvalidParameter("more anchors than nodes")
    if not (comm_range > 0.0):
        raise InvalidParameter("comm_range must be positive")
    if not (area_side > 0.0):
        raise InvalidParameter("area_side must be positive")
    if dim not in (2, 3):
        raise InvalidParameter(f"dim must be 2 or 3, got {dim}")

    rng = np.random.default_rng(seed)
    for _ in range(MAX_LAYOUT_ATTEMPTS):
        positions = rng.uniform(0.0, area_side, size=(num_nodes, dim))
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        ii, jj = np.nonzero(dist <= comm_range)
        edges = [(int(a), int(b)) for a, b in zip(ii, jj) if a < b]

        nbr_sets: list[set[int]] = [set() for _ in range(num_nodes)]
        for a, b in edges:
            nbr_sets[a].add(b)
            nbr_sets[b].add(a)
        if num_nodes > 1 and not _is_connected(num_nodes, nbr_sets):
            continue

        anchor_ids = [int(k) for k in rng.permutation(num_nodes)[:num_anchors]]
        anchors = {k: positions[k] for k in anchor_ids}
        graph = NetworkGraph.build(dim, num_nodes, anchors, edges)
        return graph, GroundTruth(positions)

    raise ConnectivityFailure(
        f"no connected layout in {MAX_LAYOUT_ATTEMPTS} attempts "
        f"(N={num_nodes}, range={comm_range}, side={area_side})"
    )


def measure(
    truth: GroundTruth,
    graph: NetworkGraph,
    model: NoiseModel,
    seed: int = 0,
) -> MeasurementSet:
    """Draw one noisy range per unordered edge.

    Negative draws are clamped to zero: a negative range would flip the
    direction term it multiplies inside the solvers. Deterministic for a
    fixed seed; edges are visited in sorted order.
    """
    pos = np.asarray(truth.positions, dtype=float)
    if pos.shape[0] < graph.num_nodes:
        raise MissingPosition(
            f"truth covers {pos.shape[0]} nodes, graph has {graph.num_nodes}"
        )
    rng = np.random.default_rng(seed)
    d: dict[tuple[int, int], float] = {}
    for i, j in graph.edge_list:
        length = float(np.linalg.norm(pos[i] - pos[j]))
        if model.kind == "additive-white":
            w = rng.normal(0.0, model.sigma_add)
        else:
            w = rng.normal(0.0, math.sqrt(model.sigma_add) * length)
        d[(i, j)] = max(length + w, 0.0)
    return MeasurementSet(d)


def rmse(estimates, truth: GroundTruth, graph: NetworkGraph) -> float:
    """Root-mean-squared position error over non-anchor nodes.

    ``estimates`` may be an ``(num_nodes, dim)`` array or a mapping
    node id -> position; anchor entries are ignored either way.
    """
    free = np.delete(np.arange(graph.num_nodes), graph.layout.anchor_idx)
    if not free.size:
        raise EmptyFreeSet("every node is an anchor")
    if isinstance(estimates, Mapping):
        missing = [i for i in free if i not in estimates]
        est = None if missing else [estimates[i] for i in free]
    else:
        est = np.asarray(estimates, dtype=float)
        missing = free[free >= len(est)]
        est = None if len(missing) else np.take(est, free, axis=0)
    if est is None:
        raise MissingPosition(f"no estimate for node {missing[0]}")
    delta = np.asarray(est, dtype=float) - np.take(truth.positions, free, axis=0)
    # Each row's matmul with itself rounds like delta[k] @ delta[k];
    # (delta * delta).sum(axis=1) rounds differently.
    err2 = np.matmul(delta[:, None, :], delta[:, :, None])[:, 0, 0]
    return math.sqrt(float(np.sum(err2)) / len(free))


# -- network file round trip -------------------------------------------------
#
# Structured-text schema, one object per file:
#   {"schema_version": 1, "dim": n,
#    "nodes": [{"id": 0, "anchor": false, "pos": [...]},
#              {"id": 3, "anchor": true, "anchor_pos": [...], "pos": [...]}],
#    "edges": [{"i": 0, "j": 1, "d": 0.42}]}
# ids are 0-based and dense; one entry per unordered edge with i < j;
# "pos" (truth) is optional and omitted for blind runs.


def save_network(
    path,
    graph: NetworkGraph,
    truth: GroundTruth | None = None,
    measurements: MeasurementSet | None = None,
) -> None:
    """Write a network file; see the schema comment above."""
    nodes = []
    for i in range(graph.num_nodes):
        entry: dict = {"id": i, "anchor": i in graph.anchors}
        if i in graph.anchors:
            entry["anchor_pos"] = [float(x) for x in graph.anchors[i]]
        if truth is not None:
            entry["pos"] = [float(x) for x in truth.positions[i]]
        nodes.append(entry)
    edges = []
    for i, j in graph.edge_list:
        entry = {"i": i, "j": j}
        if measurements is not None:
            entry["d"] = float(measurements.value(i, j))
        edges.append(entry)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": graph.dim,
        "nodes": nodes,
        "edges": edges,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_network(path):
    """Read a network file back into ``(graph, truth, measurements)``.

    ``truth`` and ``measurements`` are ``None`` when the file omits them.
    A disconnected graph loads successfully but carries
    ``graph.connected == False`` and emits a warning; solvers refuse such
    graphs.

    Raises
    ------
    ParseError
        Malformed document (also non-UTF-8 or wrongly typed), non-dense ids,
        duplicate or asymmetric edges, anchor/truth mismatches; names the field.
    SchemaVersionMismatch
        Unknown ``schema_version``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno} col {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, over-long integers, deep nesting
        raise ParseError(f"not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    dim = doc.get("dim")
    if not _is_int(dim) or dim not in (2, 3):
        raise ParseError(f"dim: expected 2 or 3, got {dim!r}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ParseError("nodes: expected a non-empty list")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise ParseError("edges: expected a list")

    num_nodes = len(raw_nodes)
    seen_ids: set[int] = set()
    anchors: dict[int, np.ndarray] = {}
    positions: dict[int, np.ndarray] = {}
    for idx, entry in enumerate(raw_nodes):
        where = f"nodes[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        nid = entry.get("id")
        if not _is_int(nid) or not 0 <= nid < num_nodes:
            raise ParseError(f"{where}.id: ids must be dense 0-based integers, got {nid!r}")
        if nid in seen_ids:
            raise ParseError(f"{where}.id: duplicate id {nid}")
        seen_ids.add(nid)
        is_anchor = entry.get("anchor")
        if not isinstance(is_anchor, bool):
            raise ParseError(f"{where}.anchor: expected a boolean")
        if is_anchor:
            anchors[nid] = _parse_vector(entry.get("anchor_pos"), dim, f"{where}.anchor_pos")
        if "pos" in entry:
            positions[nid] = _parse_vector(entry["pos"], dim, f"{where}.pos")

    direction_seen: dict[tuple[int, int], tuple[int, int]] = {}
    edges: dict[tuple[int, int], float | None] = {}
    for idx, entry in enumerate(raw_edges):
        where = f"edges[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        i, j = entry.get("i"), entry.get("j")
        if not (_is_int(i) and _is_int(j)):
            raise ParseError(f"{where}: i and j must be integers")
        if i == j or not (0 <= i < num_nodes and 0 <= j < num_nodes):
            raise ParseError(f"{where}: invalid edge ({i},{j})")
        dval = entry.get("d")
        if dval is not None:
            dval = _parse_number(dval, f"{where}.d")
            if dval < 0:
                raise ParseError(f"{where}.d: expected a finite non-negative number")
        key = (min(i, j), max(i, j))
        if key in edges:
            prev = edges[key]
            pi, pj = direction_seen[key]
            if prev != dval:
                raise ParseError(
                    f"{where}: asymmetric duplicate edge ({i},{j}) d={dval!r} "
                    f"conflicts with ({pi},{pj}) d={prev!r}"
                )
            raise ParseError(f"{where}: duplicate edge ({i},{j})")
        edges[key] = dval
        direction_seen[key] = (i, j)

    if not anchors:
        raise ParseError("nodes: at least one anchor entry is required")
    graph = NetworkGraph.build(dim, num_nodes, anchors, edges.keys())
    if not graph.connected:
        warnings.warn("loaded network is not connected; solvers will reject it")

    truth = None
    if positions:
        if len(positions) != num_nodes:
            missing = sorted(set(range(num_nodes)) - set(positions))
            raise ParseError(f"nodes: pos given for some nodes but missing for {missing}")
        mat = np.stack([positions[i] for i in range(num_nodes)])
        for k, apos in graph.anchors.items():
            if not np.array_equal(mat[k], apos):
                raise ParseError(f"nodes[{k}]: pos differs from anchor_pos")
        truth = GroundTruth(mat)

    have_d = [v is not None for v in edges.values()]
    measurements = None
    if any(have_d):
        if not all(have_d):
            raise ParseError("edges: d given for some edges but not all")
        measurements = MeasurementSet({k: float(v) for k, v in sorted(edges.items())})

    return graph, truth, measurements


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_number(raw, where: str) -> float:
    """A finite JSON number: an integer or a float, not a boolean or string."""
    if (_is_int(raw) or isinstance(raw, float)) and abs(raw) <= sys.float_info.max:
        return float(raw)
    raise ParseError(f"{where}: expected a finite number, got {raw!r:.40}")


def _parse_vector(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{where}: expected a list of {dim} numbers")
    return np.array([_parse_number(x, f"{where}[{k}]") for k, x in enumerate(raw)])
