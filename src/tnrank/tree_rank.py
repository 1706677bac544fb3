"""Exact rank computation and constructive decomposition on trees.

For an acyclic connected graph the rank tuple of a tensor is unique and
equals, edge by edge, the matrix rank of the flattening that splits the
modes along that edge.  The decomposition peels degree-one vertices and
factors a rank-revealing product at each peel.
"""

from __future__ import annotations

import numpy as np

from . import elimination
from .graph import GraphError, NetworkGraph, edge_split, incident_weight_product, is_tree
from .network import TNState
from .scalars import EXACT
from .tensor import Tensor, flatten, is_zero, matrix_rank, zeros


def _check_tree_input(t: Tensor, g: NetworkGraph):
    if g.d != t.order:
        raise GraphError(f"graph has {g.d} vertices but tensor has order {t.order}")
    if not is_tree(g):
        raise GraphError("operation requires a connected tree; cyclic graphs have no "
                         "flattening certificate (see the fit module)")


def ttns_rank(t: Tensor, g: NetworkGraph, tol: float | None = None) -> tuple[int, ...]:
    """The unique tree rank tuple: per-edge flattening ranks.

    The zero tensor reports (0,...,0), extending the positive-integer lattice
    so that rank zero characterizes the zero tensor.
    """
    _check_tree_input(t, g)
    ranks = []
    for e in range(1, g.c + 1):
        side_u, _ = edge_split(g, e)
        ranks.append(matrix_rank(flatten(t, side_u), tol))
    return tuple(ranks)


def tree_membership(t: Tensor, g: NetworkGraph, r, tol: float | None = None) -> bool:
    """True iff every edge flattening rank is at most the given bound."""
    _check_tree_input(t, g)
    r = tuple(int(x) for x in r)
    if len(r) != g.c:
        raise GraphError(f"rank tuple length {len(r)} != edge count {g.c}")
    return all(a <= b for a, b in zip(ttns_rank(t, g, tol), r))


def multilinear_rank(t: Tensor, tol: float | None = None) -> tuple[int, ...]:
    """Single-mode flattening ranks."""
    if t.order == 0:
        return ()
    if t.order == 1:
        return (0 if is_zero(t) else 1,)
    return tuple(matrix_rank(flatten(t, {i}), tol) for i in range(1, t.order + 1))


def is_nondegenerate(t: Tensor, tol: float | None = None) -> bool:
    """True iff no mode's fibers fit in a proper subspace."""
    return multilinear_rank(t, tol) == t.dims


def rank_bound_check(t: Tensor, g: NetworkGraph, r, tol: float | None = None) -> bool:
    """Necessary condition on a rank tuple of a nondegenerate tensor.

    Each vertex must see incident bond dimensions whose product covers its
    physical dimension.  Degenerate tensors are rejected: the condition says
    nothing about them.
    """
    if not is_nondegenerate(t, tol):
        raise ValueError("rank_bound_check applies only to nondegenerate tensors")
    if g.d != t.order:
        raise GraphError(f"graph has {g.d} vertices but tensor has order {t.order}")
    return all(
        incident_weight_product(g, r, i) >= t.dims[i - 1] for i in range(1, g.d + 1)
    )


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def ttns_decompose(t: Tensor, g: NetworkGraph, tol: float | None = None) -> TNState:
    """Decompose a tensor into a tree state with minimal bond dimensions.

    Peels the lowest-id degree-one vertex of the remaining tree; each peel
    factors the core's flattening (rows: the peeled vertex's physical mode
    and its already-attached bonds) as a rank-revealing product C * R.  C
    becomes the peeled factor and R the new core, so the reconstruction is
    exact in exact mode.
    """
    _check_tree_input(t, g)
    d = g.d
    if d == 1:
        return TNState(g, (), t.dims, (t,))
    if is_zero(t):
        return _zero_state(t, g)

    exact = t.mode == EXACT
    # The core is lanes in exact mode and an array in float mode; ``each``
    # applies one rearrangement to it either way.
    core = t.lanes if exact else t.data

    def each(x, fn):
        return x.map(fn) if exact else fn(x)

    labels: list[tuple[str, int]] = [("phys", i) for i in range(1, d + 1)]
    live_edges = set(range(1, g.c + 1))
    live_vertices = set(range(1, d + 1))
    attached: dict[int, list[int]] = {i: [] for i in range(1, d + 1)}
    edge_rank: dict[int, int] = {}
    factors: dict[int, Tensor] = {}

    while len(live_vertices) > 1:
        leaf = min(
            v
            for v in live_vertices
            if sum(1 for e in g.incident_edges(v) if e in live_edges) == 1
        )
        e = next(x for x in g.incident_edges(leaf) if x in live_edges)
        u, v = g.endpoints(e)
        neighbor = v if u == leaf else u

        row_labels = [("bond", x) for x in sorted(attached[leaf])] + [("phys", leaf)]
        col_labels = [l for l in labels if l not in row_labels]
        perm = [labels.index(l) for l in row_labels + col_labels]
        shape = core.shape
        row_dims = [shape[labels.index(l)] for l in row_labels]
        col_dims = [shape[labels.index(l)] for l in col_labels]
        nrow, ncol = int(np.prod(row_dims, dtype=np.int64)), int(np.prod(col_dims, dtype=np.int64))
        mat = each(core, lambda x: np.transpose(x, perm).reshape(nrow, ncol))
        if exact:
            rank, cmat, rmat = elimination.exact_rank_factor(mat)
        else:
            rank, cmat, rmat = elimination.float_rank_factor(mat, tol)
        edge_rank[e] = rank

        # Reorder to the factor convention: incident edges ascending, then
        # the physical mode.  Current order is (attached asc, phys, new bond);
        # the freshly cut edge joins the attached bonds at its sorted slot.
        cur_axes = {x: k for k, x in enumerate(sorted(attached[leaf]))}
        cur_axes[-leaf] = len(row_dims) - 1  # physical mode marker
        cur_axes[e] = len(row_dims)
        want = sorted(attached[leaf] + [e]) + [-leaf]
        axes = [cur_axes[x] for x in want]
        factor = each(cmat, lambda x: np.transpose(x.reshape(tuple(row_dims) + (rank,)), axes))
        factors[leaf] = Tensor(factor, t.mode)

        core = each(rmat, lambda x: x.reshape((rank,) + tuple(col_dims)))
        labels = [("bond", e)] + col_labels
        attached[neighbor].append(e)
        live_vertices.discard(leaf)
        live_edges.discard(e)

    root = next(iter(live_vertices))
    want = [("bond", x) for x in sorted(attached[root])] + [("phys", root)]
    axes = [labels.index(l) for l in want]
    factors[root] = Tensor(each(core, lambda x: np.transpose(x, axes)), t.mode)

    ranks = tuple(edge_rank[e] for e in range(1, g.c + 1))
    return TNState(g, ranks, t.dims, tuple(factors[i] for i in range(1, d + 1)))


def _zero_state(t: Tensor, g: NetworkGraph) -> TNState:
    factors = []
    for i in range(1, g.d + 1):
        shape = (0,) * g.degree(i) + (t.dims[i - 1],)
        factors.append(zeros(shape, t.mode))
    return TNState(g, (0,) * g.c, t.dims, tuple(factors))
