"""Exact tensors on integer lanes: products against np.tensordot over
GaussianRational, canonical form, and conversions."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tnrank import gallery, io, scalars
from tnrank.elimination import exact_rank_factor
from tnrank.graph import complete_graph, cycle_graph, path_graph, star_graph
from tnrank.network import TNState, contract_network, environment
from tnrank.scalars import GaussianRational as GR
from tnrank.scalars import Lanes, as_exact, canonical, from_lanes, to_lanes
from tnrank.tensor import Tensor, add, exact_tensor, lane_dot, mlmul, outer, scale, tensors_equal, zeros
from tnrank.tree_rank import ttns_decompose, ttns_rank

KINDS = ("plain", "int", "rational", "gaussian")
GRAPHS = (path_graph(3), cycle_graph(3), star_graph(4), complete_graph(4))
SETTINGS = settings(max_examples=30, derandomize=True, deadline=None, database=None)


def _entries(rng, shape, kind):
    """Object array of small exact scalars; "plain" entries are bare ints."""

    def one():
        a = int(rng.integers(-3, 4))
        if kind == "plain":
            return a
        if kind == "int":
            return GR(a)
        q = Fraction(a, int(rng.integers(1, 5)))
        if kind == "rational":
            return GR(q)
        return GR(q, Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))))

    arr = np.empty(int(np.prod(shape, dtype=np.int64)), dtype=object)
    arr[:] = [one() for _ in range(arr.size)]
    return arr.reshape(shape)


def _reference(graph, arrays, omit=None):
    """Contract vertex by vertex with np.tensordot on the arrays as given."""
    out, labels = None, []
    for v in range(1, graph.d + 1):
        if v == omit:
            continue
        lab = [("bond", e) for e in graph.incident_edges(v)] + [("phys", v)]
        if out is None:
            out, labels = arrays[v - 1], lab
            continue
        shared = [l for l in labels if l in lab]
        axes = ([labels.index(l) for l in shared], [lab.index(l) for l in shared])
        out = np.tensordot(out, arrays[v - 1], axes=axes)
        labels = [l for l in labels if l not in shared] + [l for l in lab if l not in shared]
    want = [("phys", v) for v in range(1, graph.d + 1) if v != omit]
    if omit is not None:
        want += [("bond", e) for e in graph.incident_edges(omit)]
    return np.transpose(out, [labels.index(l) for l in want])


def _assert_canonical(lanes):
    re, im, den = lanes
    assert isinstance(lanes, Lanes) and type(den) is int and den > 0
    for lane in (re, im):
        assert lane is None or (lane.dtype == object and all(type(x) is int for x in lane.flat))
    nums = list(re.flat) + ([] if im is None else list(im.flat))
    assert math.gcd(den, *nums) == 1
    assert im is None or any(im.flat)


def _assert_same(got, ref):
    got, ref = np.asarray(got, dtype=object), np.asarray(ref, dtype=object)
    assert got.shape == ref.shape
    assert all(type(x) is GR for x in got.flat)
    assert all(x == as_exact(y) for x, y in zip(got.flat, ref.flat))


@SETTINGS
@given(
    graph=st.sampled_from(GRAPHS),
    kinds=st.lists(st.sampled_from(KINDS), min_size=4, max_size=4),
    bond=st.integers(0, 2),
    phys=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@example(graph=GRAPHS[1], kinds=["plain", "gaussian", "rational", "int"], bond=0, phys=1, seed=1)
@example(graph=GRAPHS[2], kinds=["gaussian", "plain", "int", "gaussian"], bond=2, phys=0, seed=2)
def test_contraction_and_environments_match_tensordot(graph, kinds, bond, phys, seed):
    # A zero bond or a zero physical extent puts a zero-extent axis in the replay.
    rng = np.random.default_rng(seed)
    edge_dims = tuple(bond if e == 1 else 2 for e in range(1, graph.c + 1))
    vertex_dims = (phys,) + (2,) * (graph.d - 1)
    arrays = []
    for i in range(1, graph.d + 1):
        shape = tuple(edge_dims[e - 1] for e in graph.incident_edges(i)) + (vertex_dims[i - 1],)
        arrays.append(_entries(rng, shape, kinds[i - 1]))
    state = TNState(graph, edge_dims, vertex_dims, tuple(Tensor(a, "exact") for a in arrays))
    _assert_same(contract_network(state).data, _reference(graph, arrays))
    _assert_canonical(contract_network(state).lanes)
    for i in range(1, graph.d + 1):
        env = environment(graph, state.factors, i)
        _assert_canonical(env)
        _assert_same(from_lanes(*env), _reference(graph, arrays, i))


@SETTINGS
@given(
    dims=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    rows=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    kinds=st.lists(st.sampled_from(KINDS), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_mlmul_matches_tensordot(dims, rows, kinds, seed):
    rng = np.random.default_rng(seed)
    data = _entries(rng, tuple(dims), kinds[0])
    mats = [_entries(rng, (rows[i], n), kinds[i + 1]) for i, n in enumerate(dims)]
    ref = data
    for i, m in enumerate(mats):
        ref = np.moveaxis(np.tensordot(m, ref, axes=(1, i)), 0, i)
    got = mlmul(Tensor(data, "exact"), [Tensor(m, "exact") for m in mats])
    _assert_canonical(got.lanes)
    _assert_same(got.data, ref)


@SETTINGS
@given(
    dims=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=2, max_size=2),
    kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
    seed=st.integers(0, 2**16),
)
@example(dims=[[], []], kinds=["gaussian", "gaussian"], seed=3)
@example(dims=[[2, 0], [3]], kinds=["plain", "rational"], seed=4)
def test_outer_and_full_contraction_match_tensordot(dims, kinds, seed):
    # Empty dims give 0-d operands; a full contraction gives a 0-d result.
    rng = np.random.default_rng(seed)
    a, b = (_entries(rng, tuple(d), k) for d, k in zip(dims, kinds))
    _assert_same(outer(Tensor(a, "exact"), Tensor(b, "exact")).data, np.tensordot(a, b, axes=0))
    c = _entries(rng, a.shape, kinds[1])
    full = lane_dot(to_lanes(a), to_lanes(c), a.ndim)
    _assert_same(from_lanes(*canonical(*full)), np.tensordot(a, c, axes=a.ndim))


def test_lanes_round_trip_and_share_one_denominator():
    arr = np.array([GR(Fraction(1, 2)), GR(Fraction(-2, 3), Fraction(1, 4)), 5], dtype=object)
    re, im, den = to_lanes(arr)
    assert (list(re), list(im), den) == ([6, -8, 60], [0, 3, 0], 12)
    assert list(from_lanes(re, im, den)) == [arr[0], arr[1], GR(5)]
    assert to_lanes(exact_tensor([1, Fraction(1, 3)]).data)[1] is None


def test_decompose_then_contract_reproduces_a_complex_tensor():
    rng = np.random.default_rng(7)
    t = Tensor(_entries(rng, (2, 3, 2, 2), "gaussian"), "exact")
    for g in (path_graph(4), star_graph(4)):
        back = contract_network(ttns_decompose(t, g))
        _assert_same(back.data, t.data)


@SETTINGS
@given(
    dims=st.lists(st.integers(0, 3), max_size=3),
    kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
    c=st.sampled_from([0, 2, Fraction(-3, 4), GR(Fraction(1, 2), 3), GR(0, 1)]),
    seed=st.integers(0, 2**16),
)
@example(dims=[2, 2], kinds=["rational", "rational"], c=Fraction(-3, 4), seed=0)
def test_every_exact_result_is_canonical(dims, kinds, c, seed):
    rng = np.random.default_rng(seed)
    a, b = (Tensor(_entries(rng, tuple(dims), k), "exact") for k in kinds)
    results = [a, b, outer(a, b), scale(a, c), add(a, b), add(a, scale(a, -1))]
    for t in results:
        _assert_canonical(t.lanes)
    assert tensors_equal(add(a, scale(a, -1)), zeros(dims, "exact"))
    if len(dims) == 2:
        rank, cmat, rmat = exact_rank_factor(a.lanes)
        _assert_canonical(cmat)
        _assert_canonical(rmat)
        assert cmat.shape == (dims[0], rank) and rmat.shape == (rank, dims[1])


def test_equal_values_give_equal_tensors():
    half = exact_tensor([Fraction(2, 4), Fraction(3, 2)])
    assert tensors_equal(half, exact_tensor([Fraction(1, 2), GR(Fraction(6, 4))]))
    unreduced = Tensor(Lanes(np.array([2, 6], dtype=object), np.array([0, 0], dtype=object), 4), "exact")
    assert tensors_equal(unreduced, half)
    assert unreduced.lanes.den == 2 and unreduced.lanes.im is None
    negative = Tensor(Lanes(np.array([-1, -3], dtype=object), None, -2), "exact")
    assert tensors_equal(negative, half) and negative.lanes.den == 2


@SETTINGS
@given(
    dims=st.lists(st.integers(0, 3), max_size=3),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
)
def test_data_round_trip_and_bit_identical_floats(dims, kind, seed):
    arr = _entries(np.random.default_rng(seed), tuple(dims), kind)
    t = Tensor(arr, "exact")
    _assert_same(t.data, arr)
    assert not t.data.flags.writeable and t.data is t.data
    want = np.array([as_exact(x).to_complex() for x in arr.flat], dtype=np.complex128).reshape(arr.shape)
    got = t.to_float().data
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_to_float_rounds_huge_and_tiny_entries_like_to_complex():
    vals = [GR(Fraction(10**400 + 1, 3 * 10**399)), GR(Fraction(-1, 10**330), Fraction(2, 7)), GR(Fraction(1, 3))]
    t = exact_tensor(vals)
    want = np.array([v.to_complex() for v in vals], dtype=np.complex128)
    assert t.to_float().data.tobytes() == want.tobytes()


@SETTINGS
@given(rows=st.integers(1, 4), inner=st.integers(0, 3), cols=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(rows=3, inner=2, cols=3, seed=5)
def test_rank_factor_reproduces_a_gaussian_matrix(rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    m = _entries(rng, (rows, inner), "gaussian") @ _entries(rng, (inner, cols), "gaussian") if inner else (
        np.zeros((rows, cols), dtype=object)
    )
    rank, cmat, rmat = exact_rank_factor(to_lanes(m))
    assert rank <= inner
    back = from_lanes(*cmat) @ from_lanes(*rmat) if rank else np.zeros((rows, cols), dtype=object)
    assert all(GR(0) + x == as_exact(y) for x, y in zip(back.flat, m.flat))


def test_rank_decompose_contract_build_no_gaussian_rationals(monkeypatch):
    # Exact rank -> decompose -> serialize -> contract -> compare runs on
    # integer lanes alone: no GaussianRational is built on the way.
    rng = np.random.default_rng(11)
    shape = (3, 4, 2, 3)
    nums, dens = rng.integers(-3, 4, size=shape), rng.integers(1, 5, size=shape)
    rational = exact_tensor([Fraction(int(a), int(b)) for a, b in zip(nums.flat, dens.flat)])
    rational = Tensor(rational.lanes.map(lambda x: x.reshape(shape)), "exact")
    w6_doc = io.tensor_to_json(gallery.w_state(6).tensor)
    calls = []
    init = scalars.GaussianRational.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scalars.GaussianRational, "__init__", counting_init)
    for t in (rational, io.tensor_from_json(w6_doc)):
        for g in (path_graph(t.order), star_graph(t.order)):
            ranks = ttns_rank(t, g)
            state = ttns_decompose(t, g)
            io.state_to_json(state)
            assert tensors_equal(contract_network(state), t)
            assert ranks == state.edge_dims
    assert not calls
