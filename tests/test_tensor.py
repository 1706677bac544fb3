import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from tnrank import gallery
from tnrank.scalars import FLOAT, GaussianRational as GR
from tnrank.scalars import ModeMismatchError
from tnrank.tensor import (
    Tensor,
    add,
    basis_vector,
    exact_tensor,
    flatten,
    matrix_rank,
    mlmul,
    outer,
    scale,
    tensors_equal,
    zeros,
)


def test_outer_basis_product():
    e1, e2 = basis_vector(2, 1), basis_vector(2, 2)
    m = outer(e1, e2)
    assert m.dims == (2, 2)
    assert m.item((1, 2)) == GR(1)
    assert sum(1 for x in m.data.reshape(-1) if x) == 1


def test_outer_with_zero_absorbs():
    v = exact_tensor([1, 2])
    z = zeros((3,), "exact")
    assert tensors_equal(outer(v, z), zeros((2, 3), "exact"))


def test_w3_from_three_outer_calls():
    e1, e2 = basis_vector(2, 1), basis_vector(2, 2)
    t = add(
        add(outer(outer(e1, e1), e2), outer(outer(e1, e2), e1)),
        outer(outer(e2, e1), e1),
    )
    assert tensors_equal(t, gallery.w_state(3).tensor)


def test_outer_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        outer(exact_tensor([1, 0]), Tensor(np.array([1, 0]), FLOAT))


def test_permute_ghz_symmetric():
    g = gallery.ghz_state(3).tensor
    for axes in [(1, 2, 0), (2, 0, 1), (1, 0, 2)]:
        assert tensors_equal(Tensor(np.transpose(g.data, axes), g.mode), g)


def test_flatten_w3_and_ghz3():
    w = gallery.w_state(3).tensor
    f = flatten(w, {1})
    assert f.dims == (2, 4)
    assert [[int(GR(0) + x == GR(1)) for x in row] for row in f.data] == [
        [0, 1, 1, 0],
        [1, 0, 0, 0],
    ]
    g = flatten(gallery.ghz_state(3).tensor, {1})
    assert [[int(GR(0) + x == GR(1)) for x in row] for row in g.data] == [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
    ]


def test_flatten_rank_one_split():
    v = outer(outer(exact_tensor([1, 2]), exact_tensor([3, 4])), exact_tensor([5, 6]))
    for rows in [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}]:
        assert matrix_rank(flatten(v, rows)) == 1


def test_flatten_errors():
    t = exact_tensor([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        flatten(t, set())
    with pytest.raises(ValueError):
        flatten(t, {1, 2})


def test_flatten_rank_side_independent():
    rng = np.random.default_rng(1)
    t = Tensor(rng.standard_normal((2, 3, 2, 2)), FLOAT)
    for rows in [{1}, {2}, {1, 3}, {2, 4}, {1, 2, 3}]:
        comp = set(range(1, 5)) - rows
        assert matrix_rank(flatten(t, rows)) == matrix_rank(flatten(t, comp))


def test_matrix_rank_examples():
    assert matrix_rank(exact_tensor(np.eye(5, dtype=int).tolist())) == 5
    assert matrix_rank(flatten(gallery.w_state(3).tensor, {1})) == 2
    assert matrix_rank(zeros((3, 4), "exact")) == 0


def test_mlmul_identity_and_padding():
    w = gallery.w_state(3).tensor
    eye = exact_tensor(np.eye(2, dtype=int).tolist())
    assert tensors_equal(mlmul(w, [eye] * 3), w)

    pad = exact_tensor([[1, 0], [0, 1], [0, 0]])
    padded = mlmul(w, [pad] * 3)
    assert padded.dims == (3, 3, 3)
    assert padded.item((1, 1, 2)) == GR(1)
    assert all(not padded.item(idx) for idx in [(3, 1, 1), (1, 3, 3), (3, 3, 3)])


def test_mlmul_invertible_preserves_flattening_ranks():
    rng = np.random.default_rng(2)
    w = gallery.w_state(3).tensor.to_float()
    mats = []
    for _ in range(3):
        while True:
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) > 0.1:
                break
        mats.append(Tensor(m, "float"))
    out = mlmul(w, mats)
    assert tuple(matrix_rank(flatten(out, {i})) for i in (1, 2, 3)) == (2, 2, 2)


def test_mlmul_shape_error():
    w = gallery.w_state(3).tensor
    bad = exact_tensor([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        mlmul(w, [bad] * 3)


def test_scale_exact():
    t = exact_tensor([[1, 2], [3, 4]])
    s = scale(t, Fraction(1, 2))
    assert s.item((2, 2)) == GR(2)


def test_tensor_immutable():
    t = exact_tensor([1, 2])
    with pytest.raises(ValueError):
        t.data[0] = GR(9)
    with pytest.raises(AttributeError):
        t.mode = "float"


@pytest.mark.parametrize(
    "dup", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
@pytest.mark.parametrize(
    "value",
    [
        exact_tensor([[1, Fraction(-2, 3)], [GR(0, 1), 4]]),
        exact_tensor([[1, 2], [3, 4]]).to_float(),
        GR(Fraction(1, 3), -2),
    ],
    ids=["exact", "float", "scalar"],
)
def test_copy_and_pickle_round_trip(dup, value):
    back = dup(value)
    if isinstance(value, GR):
        assert back == value and type(back) is GR
        return
    assert back.mode == value.mode and tensors_equal(back, value)
    with pytest.raises(AttributeError):
        back.mode = "float"
    with pytest.raises(ValueError):
        (back.data if back.lanes is None else back.lanes.re)[0, 0] = 9
