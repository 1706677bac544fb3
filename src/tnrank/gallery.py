"""Named tensors with their explicit decompositions, as exact fixtures.

Every constructor returns the tensor together with the decompositions that
are known in closed form: a CP decomposition and/or network states whose
contraction reproduces the tensor exactly in exact arithmetic.

The fixtures are built from object arrays of Python ints, stored as lanes
directly, and from the exact tensor operations (``outer``, ``add``,
``scale`` by a Fraction) where a construction has rational or complex
entries.

Factor layouts follow the package convention (incident edges ascending,
physical mode last); indices into a matrix space C^{a x b} are flattened
row-major, so the basis matrix with a one in row i, column j sits at
position (i-1)*b + j.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import NetworkGraph, cycle_graph, path_graph, star_graph
from .network import CPDecomposition, TNState
from .scalars import EXACT, Lanes
from .tensor import Tensor, add, basis_vector, outer, scale, zeros


def _ones(shape, indices) -> Tensor:
    """The exact integer tensor of ``shape`` that counts how often each index occurs in ``indices``."""
    data = np.zeros(shape, dtype=object)
    for idx in indices:
        data[idx] += 1
    return Tensor(Lanes(data, None, 1), EXACT)


@dataclass(frozen=True)
class WStateFixture:
    tensor: Tensor
    cp: CPDecomposition
    train: TNState  # path-graph state
    ring: TNState  # cycle-graph state


@dataclass(frozen=True)
class GHZFixture:
    tensor: Tensor
    cp: CPDecomposition
    train: TNState
    ring: TNState | None  # None for d = 2


@dataclass(frozen=True)
class StrassenFixture:
    tensor: Tensor
    cp: CPDecomposition
    ring: TNState


@dataclass(frozen=True)
class DecomposableFixture:
    tensor: Tensor
    star: TNState


# ---------------------------------------------------------------------------
# W state
# ---------------------------------------------------------------------------


def w_state(d: int) -> WStateFixture:
    """The d-qubit W tensor: ones exactly where one index equals 2."""
    if d < 3:
        raise ValueError("w_state needs d >= 3")
    tensor = _ones((2,) * d, [tuple(int(j == pos) for j in range(d)) for pos in range(d)])
    terms = [[basis_vector(2, 2 if j == pos else 1) for j in range(d)] for pos in range(d)]
    cp = CPDecomposition(d, tuple(terms))
    return WStateFixture(tensor, cp, _w_train(d), _w_ring(d))


def _w_train(d: int) -> TNState:
    # Boundary factor: identity coupling of bond and physical index.
    a = _ones((2, 2), [(0, 0), (1, 1)])
    # Interior factor (bond-in, bond-out, physical): passes the basis state
    # through on the first physical level and injects the flipped qubit once.
    b = _ones((2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 1, 0)])
    c = _ones((2, 2), [(1, 0), (0, 1)])
    return TNState(path_graph(d), (2,) * (d - 1), (2,) * d, (a, *[b] * (d - 2), c))


def _w_ring(d: int) -> TNState:
    # Vertex 1, modes (edge {1,2}, edge {1,d}, physical).
    a = _ones((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
    b = _ones((2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 1, 0)])
    # Vertex d, modes (edge {d-1,d}, edge {1,d}, physical).
    c = _ones((2, 2, 2), [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    return TNState(cycle_graph(d), (2,) * d, (2,) * d, (a, *[b] * (d - 2), c))


# ---------------------------------------------------------------------------
# GHZ state
# ---------------------------------------------------------------------------


def ghz_state(d: int) -> GHZFixture:
    """The d-qubit GHZ tensor: ones at (1,...,1) and (2,...,2)."""
    if d < 2:
        raise ValueError("ghz_state needs d >= 2")
    tensor = _ones((2,) * d, [(0,) * d, (1,) * d])
    cp = CPDecomposition(d, tuple(tuple(basis_vector(2, k) for _ in range(d)) for k in (1, 2)))
    ident = _ones((2, 2), [(0, 0), (1, 1)])
    diag3 = _ones((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
    train = TNState(path_graph(d), (2,) * (d - 1), (2,) * d, (ident, *[diag3] * (d - 2), ident))
    ring = TNState(cycle_graph(d), (2,) * d, (2,) * d, (diag3,) * d) if d >= 3 else None
    return GHZFixture(tensor, cp, train, ring)


# ---------------------------------------------------------------------------
# structure tensor of matrix multiplication
# ---------------------------------------------------------------------------


def strassen_graph() -> NetworkGraph:
    """C_3 with edges ordered so the bond tuple reads (m, n, p)."""
    return NetworkGraph(3, ((1, 3, 1), (1, 2, 1), (2, 3, 1)))


def strassen(m: int, n: int, p: int) -> StrassenFixture:
    """Structure tensor of the (m x n)(n x p) matrix product, in mn x np x mp."""
    if min(m, n, p) < 2:
        raise ValueError("strassen needs m, n, p >= 2")
    slots = [(i * n + k, k * p + j, i * p + j) for i in range(m) for k in range(n) for j in range(p)]
    tensor = _ones((m * n, n * p, m * p), slots)
    terms = [[basis_vector(dim, x + 1) for dim, x in zip(tensor.dims, xs)] for xs in slots]
    cp = CPDecomposition(3, tuple(terms))

    def units(a, b):  # E_ij of C^{a x b} at bond indices (i, j)
        return _ones((a, b, a * b), [(i, j, i * b + j) for i in range(a) for j in range(b)])

    # Bond 1 = {1,3} (dim m), bond 2 = {1,2} (dim n), bond 3 = {2,3} (dim p).
    ring = TNState(strassen_graph(), (m, n, p), tensor.dims, (units(m, n), units(n, p), units(m, p)))
    return StrassenFixture(tensor, cp, ring)


# ---------------------------------------------------------------------------
# decomposable (skew-)symmetric tensors and monomials
# ---------------------------------------------------------------------------


def _signed_sum(n: int, signs: bool, slots) -> Tensor:
    """Sum over permutations sigma of range(n) of ``outer(*slots(sigma))``,
    weighted by 1/n! and, with ``signs``, by the sign of sigma."""
    total = zeros((n,) * n, EXACT)
    for sigma in itertools.permutations(range(n)):
        c = Fraction(_perm_sign(sigma) if signs else 1, math.factorial(n))
        total = add(total, scale(functools.reduce(outer, slots(sigma)), c))
    return total


def _perm_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _decomposable(vectors, signs: bool) -> DecomposableFixture:
    """The (skew-)symmetrized product of the vectors, and its star state:
    symmetrizer core at the center, slot selectors at the leaves."""
    vectors = tuple(vectors)
    n = len(vectors)
    for v in vectors:
        if v.mode != EXACT:
            raise ValueError("decomposable fixtures are exact-mode only")
        if v.order != 1 or v.dims[0] != n:
            raise ValueError(f"need {n} exact vectors of length {n}")
    tensor = _signed_sum(n, signs, lambda sigma: [vectors[s] for s in sigma])
    # Core modes: bonds to vertices 2..n, then physical.
    core = _signed_sum(
        n, signs, lambda sigma: [basis_vector(n, s + 1) for s in sigma[1:]] + [vectors[sigma[0]]]
    )
    leaf = functools.reduce(add, [outer(basis_vector(n, k + 1), v) for k, v in enumerate(vectors)])
    star = TNState(star_graph(n), (n,) * (n - 1), (n,) * n, (core, *[leaf] * (n - 1)))
    return DecomposableFixture(tensor, star)


def decomposable_sym(vectors) -> DecomposableFixture:
    """v_1 o ... o v_n with the 1/n! convention, plus its star state."""
    return _decomposable(vectors, signs=False)


def decomposable_skew(vectors) -> DecomposableFixture:
    """v_1 ^ ... ^ v_n with the 1/n! convention, plus its star state."""
    return _decomposable(vectors, signs=True)


def monomial_tensor(exponents) -> Tensor:
    """The monomial x_1^p_1 ... x_n^p_n as a symmetric tensor (1/d! convention).

    The entry at a multi-index equals p_1!...p_n!/d! when the index multiset
    contains exactly p_k copies of k, and zero otherwise.
    """
    exps = tuple(int(p) for p in exponents)
    if not exps or any(p < 0 for p in exps):
        raise ValueError(f"degenerate exponent vector {exps}")
    d = sum(exps)
    if d < 2:
        raise ValueError("monomial degree must be >= 2")
    n = len(exps)
    coeff = Fraction(math.prod(math.factorial(p) for p in exps), math.factorial(d))
    hits = [idx for idx in itertools.product(range(n), repeat=d) if tuple(map(idx.count, range(n))) == exps]
    return scale(_ones((n,) * d, hits), coeff)


# ---------------------------------------------------------------------------
# border-rank example
# ---------------------------------------------------------------------------


def border_example(d: int, n: int) -> Tensor:
    """An order-d tensor over (n^2)^d with border cycle-rank below its rank.

    Each slot is the space of n x n matrices; the first two slots carry the
    coupled sum of E_ij x E_jj and E_ii x E_ij, closed up by a chain of
    matched basis matrices back to the first index.
    """
    if d < 3 or n < 2:
        raise ValueError("border_example needs d >= 3 and n >= 2")
    nn = n * n

    def pos(a, b):  # 0-based index of E_{a+1,b+1}
        return a * n + b

    hits = []
    if d == 3:
        for i, j in itertools.product(range(n), repeat=2):
            hits += [(pos(i, j), pos(j, j), pos(j, i)), (pos(i, i), pos(i, j), pos(j, i))]
        return _ones((nn,) * d, hits)
    for i, j, k in itertools.product(range(n), repeat=3):
        for js in itertools.product(range(n), repeat=d - 4):  # free indices inside the closing chain
            walk = (k, *js, i)
            tail = (pos(j, k), *(pos(a, b) for a, b in zip(walk, walk[1:])))
            hits += [(pos(i, j), pos(j, j)) + tail, (pos(i, i), pos(i, j)) + tail]
    return _ones((nn,) * d, hits)
