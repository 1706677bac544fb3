import numpy as np
import pytest

from tnrank import gallery
from tnrank.graph import GraphError, all_trees, cycle_graph, path_graph, star_graph
from tnrank.network import contract_network
from tnrank.scalars import FLOAT
from tnrank.tensor import (
    Tensor,
    exact_tensor,
    mlmul,
    outer,
    tensors_equal,
    zeros,
)
from tnrank.tree_rank import (
    is_nondegenerate,
    multilinear_rank,
    rank_bound_check,
    tree_membership,
    ttns_decompose,
    ttns_rank,
)


def _rank_one(dims, rng):
    vecs = [exact_tensor(rng.integers(1, 4, size=n).tolist()) for n in dims]
    t = vecs[0]
    for v in vecs[1:]:
        t = outer(t, v)
    return t


def test_ttns_rank_w3():
    assert ttns_rank(gallery.w_state(3).tensor, path_graph(3)) == (2, 2)


def test_ttns_rank_strassen():
    for m, n, p in [(2, 2, 2), (2, 3, 2)]:
        t = gallery.strassen(m, n, p).tensor
        assert ttns_rank(t, path_graph(3)) == (m * n, m * p)


def test_ttns_rank_rank_one_on_all_small_trees():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 5, 6):
        t = _rank_one((2,) * d, rng)
        for g in all_trees(d) if d <= 4 else [path_graph(d), star_graph(d)]:
            assert ttns_rank(t, g) == (1,) * (d - 1)


def test_ttns_rank_rejects_cycles_and_mismatch():
    w = gallery.w_state(3).tensor
    with pytest.raises(GraphError):
        ttns_rank(w, cycle_graph(3))
    with pytest.raises(GraphError):
        ttns_rank(w, path_graph(4))


def test_zero_tensor_has_zero_rank():
    z = zeros((2, 2, 2), "exact")
    assert ttns_rank(z, path_graph(3)) == (0, 0)
    assert tree_membership(z, path_graph(3), (1, 1))
    st = ttns_decompose(z, path_graph(3))
    assert st.edge_dims == (0, 0)
    assert tensors_equal(contract_network(st), z)


def test_tree_membership_examples():
    w = gallery.w_state(3).tensor
    assert tree_membership(w, path_graph(3), (2, 2))
    assert not tree_membership(w, path_graph(3), (1, 2))
    g4 = gallery.ghz_state(4).tensor
    assert tree_membership(g4, path_graph(4), (2, 4, 2))


def test_ttns_decompose_w3_exact():
    st = ttns_decompose(gallery.w_state(3).tensor, path_graph(3))
    assert st.edge_dims == (2, 2)
    assert tensors_equal(contract_network(st), gallery.w_state(3).tensor)


def test_ttns_decompose_rank_one():
    rng = np.random.default_rng(1)
    t = _rank_one((3, 3, 3), rng)
    st = ttns_decompose(t, path_graph(3))
    assert st.edge_dims == (1, 1)
    assert tensors_equal(contract_network(st), t)


def test_ttns_decompose_float_p4():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    t = Tensor(data, FLOAT)
    st = ttns_decompose(t, path_graph(4))
    assert st.edge_dims == (2, 4, 2)
    assert np.linalg.norm(contract_network(st).data - t.data) <= 1e-10 * np.linalg.norm(t.data)


def test_ttns_decompose_on_every_four_vertex_tree():
    rng = np.random.default_rng(3)
    t = exact_tensor(rng.integers(-2, 3, size=(2, 3, 2, 3)).tolist())
    for g in all_trees(4):
        st = ttns_decompose(t, g)
        assert st.edge_dims == ttns_rank(t, g)
        assert tensors_equal(contract_network(st), t)


def test_multilinear_rank_examples():
    for m, n, p in [(2, 2, 2), (2, 3, 2)]:
        t = gallery.strassen(m, n, p).tensor
        assert multilinear_rank(t) == (m * n, n * p, m * p)
    assert multilinear_rank(gallery.w_state(4).tensor) == (2, 2, 2, 2)
    assert multilinear_rank(zeros((2, 3), "exact")) == (0, 0)


def test_is_nondegenerate():
    assert is_nondegenerate(gallery.strassen(2, 2, 2).tensor)
    assert is_nondegenerate(gallery.ghz_state(3).tensor)
    pad = exact_tensor([[1, 0], [0, 1], [0, 0]])
    w_padded = mlmul(gallery.w_state(3).tensor, [pad] * 3)
    assert not is_nondegenerate(w_padded)


def test_rank_bound_check_examples():
    mu = gallery.strassen(2, 2, 2)
    assert rank_bound_check(mu.tensor, mu.ring.graph, (2, 2, 2))
    assert not rank_bound_check(mu.tensor, mu.ring.graph, (1, 2, 2))
    ghz = gallery.ghz_state(3).tensor
    assert rank_bound_check(ghz, cycle_graph(3), (1, 2, 2))


def test_rank_bound_check_rejects_degenerate():
    pad = exact_tensor([[1, 0], [0, 1], [0, 0]])
    w_padded = mlmul(gallery.w_state(3).tensor, [pad] * 3)
    with pytest.raises(ValueError):
        rank_bound_check(w_padded, cycle_graph(3), (2, 2, 2))


def test_star_rank_equals_leaf_multilinear_ranks():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2))
    t = Tensor(data, FLOAT)
    assert ttns_rank(t, star_graph(4)) == multilinear_rank(t)[1:]


def test_p3_rank_vs_multilinear_consistency():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = exact_tensor(rng.integers(-2, 3, size=(2, 3, 2)).tolist())
        a, b = ttns_rank(t, path_graph(3))
        m = multilinear_rank(t)
        assert m[0] == a and m[2] == b
        assert m[1] <= a * b


def test_sn_rank_of_decomposable_tensors():
    from tnrank.tensor import basis_vector

    for n in (3, 4):
        vecs = [basis_vector(n, k) for k in range(1, n + 1)]
        sym = gallery.decomposable_sym(vecs)
        skew = gallery.decomposable_skew(vecs)
        assert ttns_rank(sym.tensor, star_graph(n)) == (n,) * (n - 1)
        assert ttns_rank(skew.tensor, star_graph(n)) == (n,) * (n - 1)
        assert tensors_equal(contract_network(sym.star), sym.tensor)
        assert tensors_equal(contract_network(skew.star), skew.tensor)


def test_monomial_rank_bounded_by_decomposable():
    from tnrank.tensor import basis_vector

    mono = gallery.monomial_tensor((2, 1))
    sym = gallery.decomposable_sym([basis_vector(3, k) for k in range(1, 4)])
    rm = ttns_rank(mono, path_graph(3))
    rs = ttns_rank(sym.tensor, path_graph(3))
    assert all(a <= b for a, b in zip(rm, rs))


def test_ghz_padded_inheritance():
    pad = exact_tensor([[1, 0], [0, 1], [0, 0], [0, 0]])
    g = gallery.ghz_state(3).tensor
    padded = mlmul(g, [pad] * 3)
    for tree in all_trees(3):
        assert ttns_rank(padded, tree) == ttns_rank(g, tree)


def test_zero_entries_in_pivot_column_keep_exact_ranks():
    # Rank 3; the exact rank kernel once skipped rows with a zero in the
    # pivot column and then truncated, reporting rank 4 here.
    t = exact_tensor(
        [[0, 6, 0, 4], [6, -4, 4, -5], [-4, -3, 2, -2], [-4, 1, -2, 2], [-6, 0, 0, 1]]
    )
    g = path_graph(2)
    assert ttns_rank(t, g) == (3,)
    assert ttns_decompose(t, g).edge_dims == (3,)
    assert multilinear_rank(t) == (3, 3)
    assert tree_membership(t, g, (3,))
