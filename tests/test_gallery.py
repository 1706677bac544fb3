import itertools
from fractions import Fraction

import numpy as np
import pytest

from tnrank import gallery
from tnrank.graph import path_graph
from tnrank.network import contract_network
from tnrank.scalars import GaussianRational as GR
from tnrank.tensor import Tensor, basis_vector, scale, tensors_equal
from tnrank.tree_rank import is_nondegenerate, multilinear_rank, tree_membership


def _nonzero_indices(t):
    return {
        tuple(int(i) + 1 for i in idx)
        for idx in zip(*np.nonzero(np.vectorize(bool)(t.data)))
    }


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_w_state_entries_and_constructions(d):
    fx = gallery.w_state(d)
    expected = set()
    for pos in range(d):
        idx = [1] * d
        idx[pos] = 2
        expected.add(tuple(idx))
    assert _nonzero_indices(fx.tensor) == expected
    assert tensors_equal(fx.cp.to_tensor(), fx.tensor)
    assert tensors_equal(contract_network(fx.train), fx.tensor)
    assert tensors_equal(contract_network(fx.ring), fx.tensor)
    assert fx.train.edge_dims == (2,) * (d - 1)
    assert fx.ring.edge_dims == (2,) * d


def test_w_state_rejects_small_d():
    with pytest.raises(ValueError):
        gallery.w_state(2)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_ghz_state_entries_and_constructions(d):
    fx = gallery.ghz_state(d)
    assert _nonzero_indices(fx.tensor) == {(1,) * d, (2,) * d}
    assert tensors_equal(fx.cp.to_tensor(), fx.tensor)
    assert tensors_equal(contract_network(fx.train), fx.tensor)
    if d >= 3:
        assert tensors_equal(contract_network(fx.ring), fx.tensor)
    else:
        assert fx.ring is None


@pytest.mark.parametrize("mnp", [(2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_strassen_fixture(mnp):
    m, n, p = mnp
    fx = gallery.strassen(m, n, p)
    assert fx.tensor.dims == (m * n, n * p, m * p)
    ones = sum(1 for x in fx.tensor.data.reshape(-1) if x)
    assert ones == m * n * p
    assert tensors_equal(fx.cp.to_tensor(), fx.tensor)
    assert tensors_equal(contract_network(fx.ring), fx.tensor)
    assert fx.ring.edge_dims == (m, n, p)
    assert is_nondegenerate(fx.tensor)


def test_strassen_rejects_trivial_sizes():
    with pytest.raises(ValueError):
        gallery.strassen(1, 2, 2)


def test_decomposable_skew_two_vectors():
    fx = gallery.decomposable_skew([basis_vector(2, 1), basis_vector(2, 2)])
    assert fx.tensor.item((1, 2)) == GR(Fraction(1, 2))
    assert fx.tensor.item((2, 1)) == GR(Fraction(-1, 2))
    assert fx.tensor.item((1, 1)) == GR(0)


def test_decomposable_sym_contracts_exactly():
    vecs = [basis_vector(3, k) for k in range(1, 4)]
    fx = gallery.decomposable_sym(vecs)
    assert tensors_equal(contract_network(fx.star), fx.tensor)
    # symmetric: invariant under swapping any two modes
    for axes in itertools.permutations(range(3)):
        assert tensors_equal(Tensor(np.transpose(fx.tensor.data, axes), fx.tensor.mode), fx.tensor)


def test_decomposable_with_general_vectors():
    from tnrank.tensor import exact_tensor

    vecs = [exact_tensor([1, 2, 0]), exact_tensor([0, 1, 1]), exact_tensor([1, 0, 3])]
    sym = gallery.decomposable_sym(vecs)
    skew = gallery.decomposable_skew(vecs)
    assert tensors_equal(contract_network(sym.star), sym.tensor)
    assert tensors_equal(contract_network(skew.star), skew.tensor)


def test_decomposable_rejects_bad_args():
    with pytest.raises(ValueError):
        gallery.decomposable_sym([basis_vector(3, 1), basis_vector(3, 2)])
    with pytest.raises(ValueError):
        gallery.decomposable_sym([basis_vector(2, 1), basis_vector(3, 1), basis_vector(3, 2)])


def test_monomial_examples():
    for d in (3, 4):
        mono = gallery.monomial_tensor((d - 1, 1))
        w = gallery.w_state(d).tensor
        assert tensors_equal(mono, scale(w, Fraction(1, d)))
    e13 = gallery.monomial_tensor((3,))
    assert e13.dims == (1, 1, 1)
    assert e13.item((1, 1, 1)) == GR(1)
    with pytest.raises(ValueError):
        gallery.monomial_tensor((1,))
    with pytest.raises(ValueError):
        gallery.monomial_tensor((2, -1))


def test_border_example_d3():
    t = gallery.border_example(3, 2)
    assert t.dims == (4, 4, 4)
    # coefficient of E_12 x E_22 x E_21: slot indices (2, 4, 3)
    assert t.item((2, 4, 3)) == GR(1)
    # the diagonal term appears in both summands at i = j
    assert t.item((1, 1, 1)) == GR(2)
    assert multilinear_rank(t) == (4, 4, 4)
    assert tree_membership(t, path_graph(3), (4, 4))


def test_border_example_higher_order():
    t4 = gallery.border_example(4, 2)
    assert t4.dims == (4, 4, 4, 4)
    assert multilinear_rank(t4) == (4, 4, 4, 4)
    t5 = gallery.border_example(5, 2)
    assert t5.dims == (4,) * 5
    with pytest.raises(ValueError):
        gallery.border_example(2, 2)


def test_gallery_states_are_nondegenerate_where_claimed():
    assert is_nondegenerate(gallery.w_state(4).tensor)
    assert is_nondegenerate(gallery.ghz_state(4).tensor)
