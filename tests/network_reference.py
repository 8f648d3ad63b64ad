"""Per-node and dense reference versions of the instance pipeline.

These are the original loop formulations of ``generate_rgg`` (an N x N
distance matrix), ``measure`` (one draw and one ``np.linalg.norm`` per edge)
and ``NetworkGraph.build`` (sets, sorted tuples and ``list.index``). The
array versions in ``locadmm.network`` must give bit-identical results; the
tests compare the two. ``loop_objective_original`` is the per-edge form of
``structured_ops.objective_original``, which sums in another order and so
agrees only to rounding.

``json_save_network`` and ``entry_load_network`` are the schema-1
network-file round trip: a document of one object per node and per edge
handed to ``json.dump(..., indent=1)``, the bytes locadmm wrote before
schema 2, and one validation pass per node and edge entry. The tests use
the writer to make schema-1 fixtures: ``load_network`` must load them, or
raise the same error with the same message, as the per-entry loader does,
and must load the instance that ``save_network`` writes in schema 2.

Run as a script, ``python tests/network_reference.py SRC DST`` writes the
network file ``SRC`` (either schema) to ``DST`` in schema 1.
"""

import itertools
import json
import math
import sys
import warnings

import numpy as np

from locadmm.errors import (
    ConnectivityFailure,
    InvalidParameter,
    ParseError,
    SchemaVersionMismatch,
)
from locadmm.network import (
    MAX_LAYOUT_ATTEMPTS,
    GroundTruth,
    MeasurementSet,
    NetworkGraph,
    load_network,
)


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


def dense_generate_rgg(
    num_nodes: int,
    num_anchors: int,
    comm_range: float,
    area_side: float = 1.0,
    dim: int = 2,
    seed: int = 0,
):
    """``generate_rgg`` on the full N x N distance matrix."""
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


def per_node_graph(num_nodes: int, anchors: dict, edges) -> dict:
    """The per-node tuples, connectivity and edge-layout arrays of the graph,
    built node by node; raises the same errors as ``NetworkGraph.build``
    for bad edges."""
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
        tuple(neighbors[j].index(i) for j in neighbors[i]) for i in range(num_nodes)
    )

    degrees = np.fromiter(map(len, neighbors), dtype=np.intp, count=num_nodes)
    offsets = np.zeros(num_nodes + 1, dtype=np.intp)
    np.cumsum(degrees, out=offsets[1:])
    num_edges = int(offsets[-1])
    dst = np.fromiter(itertools.chain.from_iterable(neighbors), dtype=np.intp, count=num_edges)
    flat_rev_pos = np.fromiter(
        itertools.chain.from_iterable(rev_pos), dtype=np.intp, count=num_edges
    )
    ids = sorted(anchors)
    return {
        "neighbors": neighbors,
        "rev_pos": rev_pos,
        "edge_list": edge_tuple,
        "connected": _is_connected(num_nodes, neighbors),
        "offsets": offsets,
        "src": np.repeat(np.arange(num_nodes, dtype=np.intp), degrees),
        "dst": dst,
        "rev": offsets[dst] + flat_rev_pos,
        "degrees": degrees,
        "anchor_idx": np.array(ids, dtype=np.intp),
        "anchor_pos": np.stack([np.asarray(anchors[k], dtype=float) for k in ids]),
    }


def loop_measure(positions, edge_list, kind: str, sigma_add: float, seed: int) -> dict:
    """``measure``'s ranges, one edge at a time in sorted edge order."""
    pos = np.asarray(positions, dtype=float)
    rng = np.random.default_rng(seed)
    d: dict[tuple[int, int], float] = {}
    for i, j in edge_list:
        length = float(np.linalg.norm(pos[i] - pos[j]))
        if kind == "additive-white":
            w = rng.normal(0.0, sigma_add)
        else:
            w = rng.normal(0.0, math.sqrt(sigma_add) * length)
        d[(i, j)] = max(length + w, 0.0)
    return d


def loop_objective_original(estimates, measurements) -> float:
    """``objective_original``, one edge at a time in sorted edge order."""
    total = 0.0
    for (i, j), d_ij in zip(measurements.graph.edge_list, measurements.d.tolist()):
        p_i = np.asarray(estimates[i], dtype=float)
        p_j = np.asarray(estimates[j], dtype=float)
        gap = float(np.linalg.norm(p_i - p_j)) - d_ij
        total += gap * gap
    return total


def json_save_network(
    path,
    graph: NetworkGraph,
    truth: GroundTruth | None = None,
    measurements: MeasurementSet | None = None,
) -> None:
    """A schema-1 network file, through ``json.dump(doc, fh, indent=1)``."""
    nodes = []
    for i in range(graph.num_nodes):
        entry: dict = {"id": i, "anchor": i in graph.anchors}
        if i in graph.anchors:
            entry["anchor_pos"] = [float(x) for x in graph.anchors[i]]
        if truth is not None:
            entry["pos"] = [float(x) for x in truth.positions[i]]
        nodes.append(entry)
    edges = [{"i": i, "j": j} for i, j in graph.edge_list]
    if measurements is not None:
        measurements._check(graph)
        for entry, d in zip(edges, measurements.d.tolist()):
            entry["d"] = d
    doc = {"schema_version": 1, "dim": graph.dim, "nodes": nodes, "edges": edges}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def entry_load_network(path):
    """``load_network`` on a schema-1 file, checking one node or edge entry
    at a time; a file of another version raises the mismatch
    ``load_network`` raises for an unknown version."""
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
    if not _is_int(version) or version != 1:
        raise SchemaVersionMismatch(f"schema_version: expected 1 or 2, got {version!r}")
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
        measurements = MeasurementSet.from_pairs(graph, edges)

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


if __name__ == "__main__":
    source, target = sys.argv[1:]
    json_save_network(target, *load_network(source))
