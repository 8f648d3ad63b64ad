"""Per-node and dense reference versions of the instance pipeline.

These are the original loop formulations of ``generate_rgg`` (an N x N
distance matrix), ``measure`` (one draw and one ``np.linalg.norm`` per edge)
and ``NetworkGraph.build`` with ``EdgeLayout.build`` (sets, sorted tuples
and ``list.index``). The array versions in ``locadmm.network`` must give
bit-identical results; the tests compare the two. ``loop_objective_original``
is the per-edge form of ``structured_ops.objective_original``, which sums
in another order and so agrees only to rounding.
"""

import itertools
import math

import numpy as np

from locadmm.errors import ConnectivityFailure, InvalidParameter
from locadmm.network import MAX_LAYOUT_ATTEMPTS, GroundTruth, NetworkGraph


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
