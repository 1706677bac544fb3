"""Tensor network states: data model, contraction, embedding, reductions.

A state is a normalized graph, one bond dimension per edge, one physical
dimension per vertex, and one factor tensor per vertex.  Factor mode layout
is fixed: incident edges in ascending edge-id order, then the physical mode
last.  Contraction pairs bond indices symmetrically, so edge orientation is
never represented.

One engine serves full contraction and the leave-one-out environments of ALS
and the Jacobian: a greedy pairwise plan, cached per (graph, factor shapes,
left-out vertex), replayed with ``np.tensordot`` on complex arrays, or on the
factors' own integer lanes in exact mode.
The plan knows its largest tensor in advance, and a contraction above the
size limit is refused before anything is allocated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .graph import GraphError, NetworkGraph, incident_weight_product, validate_rank_tuple
from .scalars import EXACT, FLOAT, Lanes, canonical, check_same_mode, to_lanes
from .tensor import Tensor


@dataclass(frozen=True)
class ProblemSpec:
    """The symbol (G; r_1..r_c; n_1..n_d): a network shape without factors."""

    graph: NetworkGraph
    edge_dims: tuple[int, ...]
    vertex_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_dims", validate_rank_tuple(self.graph, self.edge_dims))
        nd = tuple(int(x) for x in self.vertex_dims)
        if len(nd) != self.graph.d:
            raise GraphError(f"need {self.graph.d} vertex dims, got {len(nd)}")
        if any(x < 1 for x in nd):
            raise GraphError("vertex dims must be positive")
        object.__setattr__(self, "vertex_dims", nd)

    def factor_shape(self, i: int) -> tuple[int, ...]:
        bonds = tuple(self.edge_dims[e - 1] for e in self.graph.incident_edges(i))
        return bonds + (self.vertex_dims[i - 1],)

    def parameter_count(self) -> int:
        return sum(int(np.prod(self.factor_shape(i), dtype=np.int64)) for i in range(1, self.graph.d + 1))


@dataclass(frozen=True)
class TNState:
    graph: NetworkGraph
    edge_dims: tuple[int, ...]
    vertex_dims: tuple[int, ...]
    factors: tuple[Tensor, ...]

    def __post_init__(self):
        g = self.graph
        if not g.is_simple():
            raise GraphError("TNState graph must be normalized (simple)")
        if g.d > 1 and any(g.degree(i) == 0 for i in range(1, g.d + 1)):
            raise GraphError("TNState graph must not have isolated vertices")
        object.__setattr__(
            self, "edge_dims", validate_rank_tuple(g, self.edge_dims, allow_zero=True)
        )
        object.__setattr__(self, "vertex_dims", tuple(int(x) for x in self.vertex_dims))
        if len(self.vertex_dims) != g.d:
            raise GraphError("vertex_dims length mismatch")
        if len(self.factors) != g.d:
            raise GraphError(f"need {g.d} factors, got {len(self.factors)}")
        check_same_mode(*[f.mode for f in self.factors])
        for i, f in enumerate(self.factors, start=1):
            want = tuple(self.edge_dims[e - 1] for e in g.incident_edges(i)) + (
                self.vertex_dims[i - 1],
            )
            if f.dims != want:
                raise GraphError(
                    f"factor {i} has dims {f.dims}, expected {want} "
                    "(incident edges ascending, physical last)"
                )

    @property
    def mode(self) -> str:
        return self.factors[0].mode

    def spec(self) -> ProblemSpec:
        return ProblemSpec(self.graph, self.edge_dims, self.vertex_dims)


@dataclass(frozen=True)
class CPDecomposition:
    """A sum of rank-one terms; term p is the outer product of its vectors."""

    order: int
    terms: tuple[tuple[Tensor, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("CP order must be >= 1")
        terms = tuple(tuple(t) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("CP decomposition needs at least one term")
        if any(len(t) != self.order for t in terms):
            raise ValueError("every CP term needs one vector per mode")
        check_same_mode(*[v.mode for t in terms for v in t])
        dims = self.vertex_dims
        for t in terms:
            for slot, v in enumerate(t):
                if v.order != 1 or v.dims[0] != dims[slot]:
                    raise ValueError("CP vectors in one slot must share their length")

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def vertex_dims(self) -> tuple[int, ...]:
        return tuple(v.dims[0] for v in self.terms[0])

    @property
    def mode(self) -> str:
        return self.terms[0][0].mode

    def to_tensor(self) -> Tensor:
        total = None
        for t in self.terms:
            prod = t[0]
            for v in t[1:]:
                prod = tz.outer(prod, v)
            total = prod if total is None else tz.add(total, prod)
        return total


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


# Plans are keyed by (graph, factor shapes, left-out vertex).  An ALS sweep or
# a Jacobian uses d of them, so a small fixed bound keeps the hot ones while
# memory stays flat over long runs.
_PLAN_CACHE_SIZE = 256
# Largest tensor, in entries, a contraction may create (2 GiB of complex128).
_MAX_ENTRIES = 2**27


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(graph: NetworkGraph, shapes: tuple, omit: int | None):
    """Greedy pairwise schedule contracting every factor except vertex ``omit``.

    Each step contracts the connected pair of partial tensors whose result is
    smallest, ties broken by lowest involved vertex id; with no connected
    pair left, the two components with the lowest vertex ids are joined by
    outer product.  Bonds to ``omit`` sit on one factor only, so stay open.

    Slots 0..d-1 hold the factors and step k writes slot d + k.  Returns
    ``(steps, result_slot, perm, largest)``: steps are ``(slot_a, slot_b,
    (axes_a, axes_b))``, ``perm`` orders the result as the other physical
    modes ascending and then ``omit``'s bonds ascending, and ``largest`` is
    the entry count of the biggest tensor created, result included.
    """
    parts = []  # (slot, {label: extent} in axis order, vertex set)
    for i in range(1, graph.d + 1):
        if i != omit:
            labels = [("bond", e) for e in graph.incident_edges(i)] + [("phys", i)]
            parts.append((i - 1, dict(zip(labels, shapes[i - 1])), frozenset([i])))
    if not parts:
        raise GraphError("nothing to contract: the graph has no other vertex")
    steps, largest = [], 0
    while len(parts) > 1:
        best = None
        for ia, ib in itertools.combinations(range(len(parts)), 2):
            (_, ma, va), (_, mb, vb) = parts[ia], parts[ib]
            shared = ma.keys() & mb.keys()
            if shared:
                size = math.prod(x for m in (ma, mb) for l, x in m.items() if l not in shared)
                key = (size, min(va | vb), tuple(sorted(va | vb)))
                if best is None or key < best[0]:
                    best = (key, ia, ib)
        if best is None:
            ia, ib = sorted(range(len(parts)), key=lambda k: min(parts[k][2]))[:2]
        else:
            ia, ib = best[1:]
        (sa, ma, va), (sb, mb, vb) = sorted((parts[ia], parts[ib]), key=lambda p: min(p[2]))
        # Sorted so the axis pairing (and float summation order) is stable.
        shared = sorted(ma.keys() & mb.keys())
        steps.append((sa, sb, tuple(tuple(list(m).index(l) for l in shared) for m in (ma, mb))))
        merged = {l: x for m in (ma, mb) for l, x in m.items() if l not in shared}
        largest = max(largest, math.prod(merged.values()))
        parts = [p for k, p in enumerate(parts) if k not in (ia, ib)]
        parts.append((graph.d + len(steps) - 1, merged, va | vb))

    slot, modes, _ = parts[0]
    order = [("phys", j) for j in range(1, graph.d + 1) if j != omit]
    if omit is not None:
        order += [("bond", e) for e in graph.incident_edges(omit)]
    perm = tuple(list(modes).index(l) for l in order)
    return tuple(steps), slot, perm, max(largest, math.prod(modes.values()))


def _replay(graph: NetworkGraph, arrays, omit: int | None):
    """Contract ``arrays`` (one per vertex) along the cached plan's steps.

    The arrays are complex arrays, or Lanes in exact mode; the result is of
    the same kind, its lanes not yet canonical.  Raises GraphError before any
    work when the plan would create a tensor above ``_MAX_ENTRIES`` entries.
    """
    steps, slot, perm, largest = _plan(graph, tuple(a.shape for a in arrays), omit)
    if largest > _MAX_ENTRIES:
        raise GraphError(
            f"contraction would create a tensor of {largest} entries, "
            f"above the limit of {_MAX_ENTRIES}"
        )
    exact = isinstance(arrays[0], Lanes)
    work = list(arrays)
    dot = tz.lane_dot if exact else np.tensordot
    for a, b, axes in steps:
        work.append(dot(work[a], work[b], axes))
        work[a] = work[b] = None
    if exact:
        return work[slot].map(lambda x: np.transpose(x, perm))
    return np.transpose(work[slot], perm)


def _operand(f):
    """What the replay contracts: a Tensor's lanes or float array, or a bare array."""
    if isinstance(f, Tensor):
        return f.data if f.lanes is None else f.lanes
    return to_lanes(f) if f.dtype == object else f


def contract_network(state: TNState) -> Tensor:
    """Contract all bonds, returning the order-d tensor of the state.

    The schedule is the greedy plan of ``_plan``; the result is
    schedule-independent.
    """
    if any(r == 0 for r in state.edge_dims):
        return tz.zeros(state.vertex_dims, state.mode)
    return Tensor(_replay(state.graph, [_operand(f) for f in state.factors], None), state.mode)


def random_state(spec: ProblemSpec, seed: int) -> TNState:
    """Factors filled with i.i.d. standard complex Gaussians (float mode)."""
    rng = np.random.default_rng(seed)
    factors = []
    for i in range(1, spec.graph.d + 1):
        shape = spec.factor_shape(i)
        data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        factors.append(Tensor(data, FLOAT))
    return TNState(spec.graph, spec.edge_dims, spec.vertex_dims, tuple(factors))


def universal_embed(cp: CPDecomposition, g: NetworkGraph) -> TNState:
    """Realize a CP decomposition as a network state on any connected graph.

    Every edge gets bond dimension equal to the CP rank; the factor at
    vertex i places the i-th CP vectors on the bond diagonal.  Contraction
    reproduces the CP sum exactly.
    """
    if not g.is_simple():
        raise GraphError("universal_embed expects a normalized graph")
    if not g.is_connected():
        raise GraphError("universal_embed requires a connected graph")
    if g.d != cp.order:
        raise GraphError(f"graph has {g.d} vertices but CP order is {cp.order}")
    if g.d > 1 and any(g.degree(i) == 0 for i in range(1, g.d + 1)):
        raise GraphError("graph has an isolated vertex")
    r = cp.rank
    factors = []
    for i in range(1, g.d + 1):
        deg = g.degree(i)
        # Row p holds the i-th vector of CP term p.
        rows = functools.reduce(
            tz.add, [tz.outer(tz.basis_vector(r, p + 1, cp.mode), term[i - 1]) for p, term in enumerate(cp.terms)]
        )

        def place(x):
            # Row p at bond index (p, ..., p); with no bond (a single vertex) the plain CP sum.
            if deg == 0:
                return x.sum(axis=0)
            out = np.zeros((r,) * deg + x.shape[1:], dtype=x.dtype)
            out[(np.arange(r),) * deg] = x
            return out

        factors.append(Tensor(place(rows.data) if rows.lanes is None else rows.lanes.map(place), cp.mode))
    return TNState(g, (r,) * g.c, cp.vertex_dims, tuple(factors))


def environment(graph: NetworkGraph, factors, i: int):
    """Contract every factor except vertex i, with the planner of ``contract_network``.

    ``factors`` holds Tensors or bare arrays, one per vertex, exact or float.
    Output modes: physical modes of the other vertices ascending, then the
    bond modes of vertex i's incident edges ascending.  The result is a
    complex array, or canonical Lanes in exact mode.  The contracted state is
    linear in factor i against this environment.
    """
    env = _replay(graph, [_operand(f) for f in factors], i)
    return canonical(*env) if isinstance(env, Lanes) else env


# ---------------------------------------------------------------------------
# criticality and reductions
# ---------------------------------------------------------------------------


def criticality(spec: ProblemSpec):
    """Per-vertex labels and the overall label of the spec.

    Vertex i compares its dimension n_i with the product m_i of incident
    bond dimensions; the overall label is subcritical/critical/supercritical
    when the comparison holds uniformly, otherwise "mixed".
    """
    labels = {}
    any_sub = any_super = False
    for i in range(1, spec.graph.d + 1):
        m = incident_weight_product(spec.graph, spec.edge_dims, i)
        n = spec.vertex_dims[i - 1]
        if n < m:
            labels[i] = "subcritical"
            any_sub = True
        elif n == m:
            labels[i] = "critical"
        else:
            labels[i] = "supercritical"
            any_super = True
    if any_sub and any_super:
        overall = "mixed"
    elif any_sub:
        overall = "subcritical"
    elif any_super:
        overall = "supercritical"
    else:
        overall = "critical"
    return labels, overall


@dataclass(frozen=True)
class MergeRecord:
    """Bookkeeping for one degree-one reduction.

    The removed vertex's space is absorbed into the neighbor's: the merged
    dimension is removed_dim * neighbor_dim with the removed index slow
    (row-major).  Maps send old labels to new ones.
    """

    removed: int
    neighbor: int
    edge_id: int
    removed_dim: int
    neighbor_dim: int
    vertex_map: dict[int, int]
    edge_map: dict[int, int]


def reduce_degree_one(spec: ProblemSpec, vertex: int | None = None):
    """Absorb a subcritical-or-critical degree-one vertex into its neighbor.

    Returns the reduced spec and a MergeRecord.  With no vertex given, the
    lowest-id eligible vertex is used.
    """
    g = spec.graph
    candidates = []
    for i in range(1, g.d + 1):
        inc = g.incident_edges(i)
        if len(inc) != 1:
            continue
        if spec.vertex_dims[i - 1] <= spec.edge_dims[inc[0] - 1]:
            candidates.append(i)
    if vertex is not None:
        if vertex not in candidates:
            raise GraphError(
                f"vertex {vertex} is not an eligible degree-one subcritical/critical vertex"
            )
        i = vertex
    else:
        if not candidates:
            raise GraphError("no degree-one subcritical or critical vertex to reduce")
        i = candidates[0]

    edge_id = g.incident_edges(i)[0]
    u, v = g.endpoints(edge_id)
    j = v if u == i else u
    vertex_map = {}
    for old in range(1, g.d + 1):
        if old == i:
            continue
        vertex_map[old] = old if old < i else old - 1
    edge_map = {}
    new_edges = []
    for old_id, (a, b, w) in enumerate(g.edges, start=1):
        if old_id == edge_id:
            continue
        na, nb = vertex_map[a], vertex_map[b]
        new_edges.append((min(na, nb), max(na, nb), w))
        edge_map[old_id] = len(new_edges)
    new_graph = NetworkGraph(g.d - 1, tuple(new_edges))

    n_i = spec.vertex_dims[i - 1]
    n_j = spec.vertex_dims[j - 1]
    new_vdims = []
    for old in range(1, g.d + 1):
        if old == i:
            continue
        new_vdims.append(n_i * n_j if old == j else spec.vertex_dims[old - 1])
    new_edims = tuple(spec.edge_dims[e - 1] for e in sorted(edge_map))
    record = MergeRecord(i, j, edge_id, n_i, n_j, vertex_map, edge_map)
    return ProblemSpec(new_graph, new_edims, tuple(new_vdims)), record


def remove_unit_edges(spec: ProblemSpec):
    """Delete every bond-dimension-one edge; the state set is unchanged.

    Edges are processed in id order; raises if a removal would isolate a
    vertex.  Returns the reduced spec and the list of removed edge ids.
    """
    g = spec.graph
    keep = list(range(1, g.c + 1))
    removed = []
    for e in range(1, g.c + 1):
        if spec.edge_dims[e - 1] != 1:
            continue
        u, v = g.endpoints(e)
        current = [x for x in keep if x != e]
        deg_u = sum(1 for x in current if u in g.endpoints(x))
        deg_v = sum(1 for x in current if v in g.endpoints(x))
        if deg_u == 0 or deg_v == 0:
            raise GraphError(f"removing edge {e} would isolate a vertex")
        keep = current
        removed.append(e)
    new_graph = NetworkGraph(g.d, tuple(g.edges[e - 1] for e in keep))
    new_edims = tuple(spec.edge_dims[e - 1] for e in keep)
    return ProblemSpec(new_graph, new_edims, spec.vertex_dims), removed
