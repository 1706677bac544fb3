"""Named tensors with their explicit decompositions, as exact fixtures.

Every constructor returns the tensor together with the decompositions that
are known in closed form: a CP decomposition and/or network states whose
contraction reproduces the tensor exactly in exact arithmetic.

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
from .scalars import EXACT, GaussianRational
from .tensor import Tensor, basis_vector, outer


def _exact_array(shape):
    return np.full(shape, GaussianRational(0), dtype=object)


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
    data = _exact_array((2,) * d)
    for pos in range(d):
        idx = [0] * d
        idx[pos] = 1
        data[tuple(idx)] = GaussianRational(1)
    tensor = Tensor(data, EXACT)

    terms = []
    for pos in range(d):
        terms.append(
            tuple(basis_vector(2, 2 if j == pos else 1) for j in range(d))
        )
    cp = CPDecomposition(d, tuple(terms))
    return WStateFixture(tensor, cp, _w_train(d), _w_ring(d))


def _w_train(d: int) -> TNState:
    # Boundary factor: identity coupling of bond and physical index.
    a = _exact_array((2, 2))
    a[0, 0] = a[1, 1] = GaussianRational(1)
    # Interior factor (bond-in, bond-out, physical): passes the basis state
    # through on the first physical level and injects the flipped qubit once.
    b = _exact_array((2, 2, 2))
    b[0, 0, 0] = b[0, 1, 1] = b[1, 1, 0] = GaussianRational(1)
    c = _exact_array((2, 2))
    c[1, 0] = c[0, 1] = GaussianRational(1)
    factors = [Tensor(a, EXACT)] + [Tensor(b.copy(), EXACT) for _ in range(d - 2)] + [
        Tensor(c, EXACT)
    ]
    return TNState(path_graph(d), (2,) * (d - 1), (2,) * d, tuple(factors))


def _w_ring(d: int) -> TNState:
    # Vertex 1, modes (edge {1,2}, edge {1,d}, physical).
    a = _exact_array((2, 2, 2))
    a[0, 0, 0] = a[1, 1, 1] = GaussianRational(1)
    b = _exact_array((2, 2, 2))
    b[0, 0, 0] = b[0, 1, 1] = b[1, 1, 0] = GaussianRational(1)
    # Vertex d, modes (edge {d-1,d}, edge {1,d}, physical).
    c = _exact_array((2, 2, 2))
    c[1, 0, 0] = c[1, 1, 0] = c[0, 0, 1] = GaussianRational(1)
    factors = [Tensor(a, EXACT)] + [Tensor(b.copy(), EXACT) for _ in range(d - 2)] + [
        Tensor(c, EXACT)
    ]
    return TNState(cycle_graph(d), (2,) * d, (2,) * d, tuple(factors))


# ---------------------------------------------------------------------------
# GHZ state
# ---------------------------------------------------------------------------


def ghz_state(d: int) -> GHZFixture:
    """The d-qubit GHZ tensor: ones at (1,...,1) and (2,...,2)."""
    if d < 2:
        raise ValueError("ghz_state needs d >= 2")
    data = _exact_array((2,) * d)
    data[(0,) * d] = GaussianRational(1)
    data[(1,) * d] = GaussianRational(1)
    tensor = Tensor(data, EXACT)

    cp = CPDecomposition(
        d,
        (
            tuple(basis_vector(2, 1) for _ in range(d)),
            tuple(basis_vector(2, 2) for _ in range(d)),
        ),
    )

    ident = _exact_array((2, 2))
    ident[0, 0] = ident[1, 1] = GaussianRational(1)
    diag3 = _exact_array((2, 2, 2))
    diag3[0, 0, 0] = diag3[1, 1, 1] = GaussianRational(1)

    train_factors = (
        [Tensor(ident.copy(), EXACT)]
        + [Tensor(diag3.copy(), EXACT) for _ in range(d - 2)]
        + [Tensor(ident.copy(), EXACT)]
    )
    train = TNState(path_graph(d), (2,) * (d - 1), (2,) * d, tuple(train_factors))

    ring = None
    if d >= 3:
        ring_factors = [Tensor(diag3.copy(), EXACT) for _ in range(d)]
        ring = TNState(cycle_graph(d), (2,) * d, (2,) * d, tuple(ring_factors))
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
    data = _exact_array((m * n, n * p, m * p))
    terms = []
    for i in range(m):
        for k in range(n):
            for j in range(p):
                x1 = i * n + k
                x2 = k * p + j
                x3 = i * p + j
                data[x1, x2, x3] = data[x1, x2, x3] + GaussianRational(1)
                terms.append(
                    (
                        basis_vector(m * n, x1 + 1),
                        basis_vector(n * p, x2 + 1),
                        basis_vector(m * p, x3 + 1),
                    )
                )
    tensor = Tensor(data, EXACT)
    cp = CPDecomposition(3, tuple(terms))

    # Bond 1 = {1,3} (dim m), bond 2 = {1,2} (dim n), bond 3 = {2,3} (dim p).
    fa = _exact_array((m, n, m * n))
    for i in range(m):
        for k in range(n):
            fa[i, k, i * n + k] = GaussianRational(1)
    fb = _exact_array((n, p, n * p))
    for k in range(n):
        for j in range(p):
            fb[k, j, k * p + j] = GaussianRational(1)
    fc = _exact_array((m, p, m * p))
    for i in range(m):
        for j in range(p):
            fc[i, j, i * p + j] = GaussianRational(1)
    ring = TNState(
        strassen_graph(),
        (m, n, p),
        (m * n, n * p, m * p),
        (Tensor(fa, EXACT), Tensor(fb, EXACT), Tensor(fc, EXACT)),
    )
    return StrassenFixture(tensor, cp, ring)


# ---------------------------------------------------------------------------
# decomposable (skew-)symmetric tensors and monomials
# ---------------------------------------------------------------------------


def _symmetrize(vectors, signs: bool) -> Tensor:
    n = len(vectors)
    scale = GaussianRational(Fraction(1, math.factorial(n)))
    data = _exact_array((n,) * n)
    for sigma in itertools.permutations(range(n)):
        sgn = _perm_sign(sigma) if signs else 1
        term = functools.reduce(outer, [vectors[s] for s in sigma])
        data = data + (scale * sgn) * term.data
    return Tensor(data, EXACT)


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


def _check_decomposable_args(vectors):
    vectors = tuple(vectors)
    n = len(vectors)
    for v in vectors:
        if v.mode != EXACT:
            raise ValueError("decomposable fixtures are exact-mode only")
        if v.order != 1 or v.dims[0] != n:
            raise ValueError(f"need {n} exact vectors of length {n}")
    return vectors, n


def _star_state(vectors, signs: bool) -> TNState:
    """Star state: symmetrizer core at the center, slot selectors at leaves."""
    vectors, n = _check_decomposable_args(vectors)
    scale = GaussianRational(Fraction(1, math.factorial(n)))
    core = _exact_array((n,) * (n - 1) + (n,))  # bonds to vertices 2..n, then physical
    for sigma in itertools.permutations(range(n)):
        sgn = _perm_sign(sigma) if signs else 1
        bond_idx = tuple(sigma[1:])
        core[bond_idx] = core[bond_idx] + (scale * sgn) * vectors[sigma[0]].data
    leaf = _exact_array((n, n))
    for k in range(n):
        leaf[k, :] = vectors[k].data
    factors = [Tensor(core, EXACT)] + [Tensor(leaf.copy(), EXACT) for _ in range(n - 1)]
    return TNState(star_graph(n), (n,) * (n - 1), (n,) * n, tuple(factors))


def decomposable_sym(vectors) -> DecomposableFixture:
    """v_1 o ... o v_n with the 1/n! convention, plus its star state."""
    vectors, _ = _check_decomposable_args(vectors)
    return DecomposableFixture(_symmetrize(vectors, signs=False), _star_state(vectors, False))


def decomposable_skew(vectors) -> DecomposableFixture:
    """v_1 ^ ... ^ v_n with the 1/n! convention, plus its star state."""
    vectors, _ = _check_decomposable_args(vectors)
    return DecomposableFixture(_symmetrize(vectors, signs=True), _star_state(vectors, True))


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
    coeff = GaussianRational(
        Fraction(int(np.prod([math.factorial(p) for p in exps], dtype=object)), math.factorial(d))
    )
    data = _exact_array((n,) * d)
    for idx in itertools.product(range(n), repeat=d):
        counts = [0] * n
        for x in idx:
            counts[x] += 1
        if tuple(counts) == exps:
            data[idx] = coeff
    return Tensor(data, EXACT)


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

    data = _exact_array((nn,) * d)
    one = GaussianRational(1)
    if d == 3:
        for i in range(n):
            for j in range(n):
                data[pos(i, j), pos(j, j), pos(j, i)] += one
                data[pos(i, i), pos(i, j), pos(j, i)] += one
        return Tensor(data, EXACT)

    chain_len = d - 4  # number of free indices inside the closing chain
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for js in itertools.product(range(n), repeat=chain_len):
                    chain = [pos(k, js[0])] if chain_len else []
                    for t in range(chain_len - 1):
                        chain.append(pos(js[t], js[t + 1]))
                    if chain_len:
                        chain.append(pos(js[-1], i))
                    else:
                        chain.append(pos(k, i))
                    tail = (pos(j, k), *chain)
                    data[(pos(i, j), pos(j, j)) + tail] += one
                    data[(pos(i, i), pos(i, j)) + tail] += one
    return Tensor(data, EXACT)
