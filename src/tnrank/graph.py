"""Undirected weighted graphs for network topologies.

Vertices are labeled 1..d and edges are identified by their 1-based position
in the edge list; rank tuples align with edge ids.  Edges are stored
undirected: orientation never matters because contraction pairs bond indices
symmetrically once bases are fixed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class GraphError(ValueError):
    """Raised for malformed graphs or graph/operation mismatches."""


@dataclass(frozen=True)
class NetworkGraph:
    d: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise GraphError("graph needs at least one vertex")
        edges = []
        for e in self.edges:
            if len(e) == 2:
                u, v = e
                w = 1
            else:
                u, v, w = e
            if not (1 <= u <= self.d and 1 <= v <= self.d):
                raise GraphError(f"edge {e} has endpoints outside 1..{self.d}")
            if w < 1:
                raise GraphError(f"edge {e} has nonpositive weight")
            edges.append((int(u), int(v), int(w)))
        object.__setattr__(self, "edges", tuple(edges))
        # Incident edge ids per vertex, built once (index 0 unused).
        incident = [[] for _ in range(self.d + 1)]
        for k, (u, v, _) in enumerate(edges, start=1):
            incident[u].append(k)
            if v != u:
                incident[v].append(k)
        object.__setattr__(self, "_incident", tuple(map(tuple, incident)))

    @property
    def c(self) -> int:
        return len(self.edges)

    def incident_edges(self, i: int) -> tuple[int, ...]:
        """Ids (1-based, ascending) of edges touching vertex i."""
        return self._incident[i]

    def degree(self, i: int) -> int:
        return len(self.incident_edges(i))

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        u, v, _ = self.edges[edge_id - 1]
        return u, v

    def is_simple(self) -> bool:
        seen = set()
        for u, v, _ in self.edges:
            if u == v:
                return False
            key = (min(u, v), max(u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(1, self.d + 1)}
        for u, v, _ in self.edges:
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        return len(_component(self.adjacency(), 1, set())) == self.d


def _component(adj, start, blocked):
    """Vertices reachable from ``start`` without crossing ``blocked`` edges."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if (u, v) in blocked or (v, u) in blocked:
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def normalize(g: NetworkGraph, return_map: bool = False):
    """Drop self-loops and merge parallel edges (weights multiply).

    Surviving edges keep their relative order and take the position of the
    first parallel representative.  With ``return_map`` the old-id -> new-id
    merge map is returned as well (dropped self-loops map to None).
    """
    order: list[tuple[int, int]] = []
    weight: dict[tuple[int, int], int] = {}
    merge_map: dict[int, int | None] = {}
    for old_id, (u, v, w) in enumerate(g.edges, start=1):
        if u == v:
            merge_map[old_id] = None
            continue
        key = (min(u, v), max(u, v))
        if key not in weight:
            weight[key] = w
            order.append(key)
        else:
            weight[key] *= w
        merge_map[old_id] = order.index(key) + 1
    out = NetworkGraph(g.d, tuple((u, v, weight[(u, v)]) for u, v in order))
    if return_map:
        return out, merge_map
    return out


def classify(g: NetworkGraph) -> str:
    """One of path, cycle, star, tree, cyclic_general, disconnected."""
    if not g.is_simple():
        raise GraphError("classify expects a normalized (simple) graph")
    if not g.is_connected():
        return "disconnected"
    degrees = [g.degree(i) for i in range(1, g.d + 1)]
    if g.c == g.d - 1:
        if g.d == 1 or all(x <= 2 for x in degrees):
            return "path"
        if sorted(degrees) == [1] * (g.d - 1) + [g.d - 1]:
            return "star"
        return "tree"
    if g.c == g.d and all(x == 2 for x in degrees):
        return "cycle"
    return "cyclic_general"


def is_tree(g: NetworkGraph) -> bool:
    return classify(g) in ("path", "star", "tree")


def edge_split(g: NetworkGraph, edge_id: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex sets of the two components after deleting a tree edge.

    Returned in the order (component of u, component of v) for the stored
    endpoint order (u, v).
    """
    if not is_tree(g):
        raise GraphError("edge_split requires a connected tree")
    if not (1 <= edge_id <= g.c):
        raise GraphError(f"invalid edge id {edge_id}")
    u, v, _ = g.edges[edge_id - 1]
    adj = g.adjacency()
    side_u = _component(adj, u, {(u, v), (v, u)})
    side_v = tuple(sorted(set(range(1, g.d + 1)) - side_u))
    return tuple(sorted(side_u)), side_v


def incident_weight_product(g: NetworkGraph, r, i: int) -> int:
    """Product of rank-tuple entries over edges incident to vertex i."""
    if not (1 <= i <= g.d):
        raise GraphError(f"invalid vertex {i}")
    if len(r) != g.c:
        raise GraphError(f"rank tuple length {len(r)} != edge count {g.c}")
    prod = 1
    for e in g.incident_edges(i):
        prod *= r[e - 1]
    return prod


def validate_rank_tuple(g: NetworkGraph, r, allow_zero: bool = False) -> tuple[int, ...]:
    r = tuple(int(x) for x in r)
    if len(r) != g.c:
        raise GraphError(f"rank tuple length {len(r)} != edge count {g.c}")
    low = 0 if allow_zero else 1
    if any(x < low for x in r):
        raise GraphError(f"rank tuple entries must be >= {low}: {r}")
    return r


# ---------------------------------------------------------------------------
# standard graphs and tree enumeration
# ---------------------------------------------------------------------------


def path_graph(d: int) -> NetworkGraph:
    return NetworkGraph(d, tuple((i, i + 1, 1) for i in range(1, d)))


def cycle_graph(d: int) -> NetworkGraph:
    if d < 3:
        raise GraphError("cycle graphs need at least 3 vertices")
    edges = [(i, i + 1, 1) for i in range(1, d)] + [(1, d, 1)]
    return NetworkGraph(d, tuple(edges))


def star_graph(d: int, center: int = 1) -> NetworkGraph:
    leaves = [i for i in range(1, d + 1) if i != center]
    return NetworkGraph(d, tuple((min(center, i), max(center, i), 1) for i in leaves))


def complete_graph(d: int) -> NetworkGraph:
    return NetworkGraph(d, tuple((u, v, 1) for u, v in itertools.combinations(range(1, d + 1), 2)))


def tree_from_pruefer(seq, d: int) -> NetworkGraph:
    """Labeled tree on 1..d from a Pruefer sequence of length d-2."""
    degree = [1] * (d + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [i for i in range(1, d + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x), 1))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v), 1))
    return NetworkGraph(d, tuple(sorted(edges)))


def all_trees(d: int):
    """All labeled trees on d vertices (d^(d-2) of them for d >= 3)."""
    if d == 1:
        yield NetworkGraph(1, ())
        return
    if d == 2:
        yield path_graph(2)
        return
    for seq in itertools.product(range(1, d + 1), repeat=d - 2):
        yield tree_from_pruefer(seq, d)


def random_tree(d: int, rng) -> NetworkGraph:
    if d <= 2:
        return path_graph(d)
    seq = [int(rng.integers(1, d + 1)) for _ in range(d - 2)]
    return tree_from_pruefer(seq, d)
