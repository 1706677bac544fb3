import numpy as np
import pytest

from tnrank import gallery
from tnrank.graph import GraphError, complete_graph, cycle_graph, path_graph, star_graph
from tnrank.network import (
    CPDecomposition,
    ProblemSpec,
    TNState,
    contract_network,
    criticality,
    environment,
    random_state,
    reduce_degree_one,
    remove_unit_edges,
    universal_embed,
)
from tnrank.scalars import FLOAT
from tnrank.tensor import (
    Tensor,
    add,
    exact_tensor,
    flatten,
    matrix_rank,
    tensors_equal,
)


def _einsum_contract(state: TNState) -> np.ndarray:
    """Independent reference contraction: one big einsum over all bonds."""
    syms = "abcdefghijklmnopqrstuvwxyz"
    g = state.graph
    bond = {e: syms[e - 1] for e in range(1, g.c + 1)}
    phys = {v: syms[g.c + v - 1] for v in range(1, g.d + 1)}
    subs = []
    for i in range(1, g.d + 1):
        subs.append("".join(bond[e] for e in g.incident_edges(i)) + phys[i])
    expr = ",".join(subs) + "->" + "".join(phys[v] for v in range(1, g.d + 1))
    return np.einsum(expr, *[f.data for f in state.factors])


def test_contract_matches_einsum_reference_exact_and_float():
    rng = np.random.default_rng(0)
    specs = [
        ProblemSpec(path_graph(3), (2, 3), (2, 2, 2)),
        ProblemSpec(cycle_graph(4), (2, 2, 2, 2), (2, 3, 2, 3)),
        ProblemSpec(star_graph(4), (2, 2, 2), (3, 2, 2, 2)),
    ]
    for spec in specs:
        st = random_state(spec, 5)
        assert np.allclose(contract_network(st).data, _einsum_contract(st))
        # exact version with small integer factors
        factors = []
        for i in range(1, spec.graph.d + 1):
            shape = spec.factor_shape(i)
            factors.append(exact_tensor(rng.integers(-2, 3, size=shape).tolist()))
        est = TNState(spec.graph, spec.edge_dims, spec.vertex_dims, tuple(factors))
        ref = _einsum_contract(est)
        out = contract_network(est).data
        assert all((a - b) == 0 for a, b in zip(out.reshape(-1), ref.reshape(-1)))


def test_contract_known_fixtures():
    w = gallery.w_state(4)
    assert tensors_equal(contract_network(w.train), w.tensor)
    assert tensors_equal(contract_network(w.ring), w.tensor)
    g = gallery.ghz_state(5)
    assert tensors_equal(contract_network(g.ring), g.tensor)
    s = gallery.strassen(2, 2, 2)
    assert tensors_equal(contract_network(s.ring), s.tensor)


def test_contract_is_multilinear_in_each_factor():
    spec = ProblemSpec(path_graph(3), (2, 2), (2, 2, 2))
    rng = np.random.default_rng(1)

    def exact_state(seed):
        r = np.random.default_rng(seed)
        return TNState(
            spec.graph,
            spec.edge_dims,
            spec.vertex_dims,
            tuple(
                exact_tensor(r.integers(-2, 3, size=spec.factor_shape(i)).tolist())
                for i in range(1, 4)
            ),
        )

    a, b = exact_state(10), exact_state(11)
    for i in range(3):
        mixed_factors = list(a.factors)
        mixed_factors[i] = add(a.factors[i], b.factors[i])
        mixed = TNState(spec.graph, spec.edge_dims, spec.vertex_dims, tuple(mixed_factors))
        other = TNState(
            spec.graph,
            spec.edge_dims,
            spec.vertex_dims,
            tuple(b.factors[k] if k == i else a.factors[k] for k in range(3)),
        )
        assert tensors_equal(
            contract_network(mixed), add(contract_network(a), contract_network(other))
        )


def test_random_state_is_deterministic():
    spec = ProblemSpec(cycle_graph(3), (2, 2, 2), (3, 3, 3))
    a, b = random_state(spec, 42), random_state(spec, 42)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa.data, fb.data)
    c = random_state(spec, 43)
    assert not np.array_equal(a.factors[0].data, c.factors[0].data)


def test_random_p3_spec_has_expected_flattening_ranks():
    spec = ProblemSpec(path_graph(3), (2, 2), (2, 4, 2))
    for seed in range(5):
        t = contract_network(random_state(spec, seed))
        assert matrix_rank(flatten(t, {1})) == 2
        assert matrix_rank(flatten(t, {3})) == 2


def test_factor_layout_validation():
    spec = ProblemSpec(path_graph(2), (2,), (2, 3))
    good = (
        Tensor(np.zeros((2, 2), dtype=complex), FLOAT),
        Tensor(np.zeros((2, 3), dtype=complex), FLOAT),
    )
    TNState(spec.graph, spec.edge_dims, spec.vertex_dims, good)
    bad = (
        Tensor(np.zeros((2, 2), dtype=complex), FLOAT),
        Tensor(np.zeros((3, 2), dtype=complex), FLOAT),
    )
    with pytest.raises(GraphError):
        TNState(spec.graph, spec.edge_dims, spec.vertex_dims, bad)


def test_universal_embed_examples():
    w = gallery.w_state(3)
    st = universal_embed(w.cp, cycle_graph(3))
    assert st.edge_dims == (3, 3, 3)
    assert tensors_equal(contract_network(st), w.tensor)

    g4 = gallery.ghz_state(4)
    st = universal_embed(g4.cp, path_graph(4))
    assert st.edge_dims == (2, 2, 2)
    assert tensors_equal(contract_network(st), g4.tensor)


def test_universal_embed_rank_one_gives_unit_bonds():
    from tnrank.graph import complete_graph

    rng = np.random.default_rng(7)
    for d in range(2, 7):
        vecs = [exact_tensor(rng.integers(-2, 3, size=2).tolist()) for _ in range(d)]
        vecs[0] = exact_tensor([1, 2])  # keep the product nonzero
        cp = CPDecomposition(d, (tuple(vecs),))
        graphs = [path_graph(d), star_graph(d), complete_graph(d)]
        if d >= 3:
            graphs.append(cycle_graph(d))
        target = contract_network(universal_embed(cp, path_graph(d)))
        for g in graphs:
            st = universal_embed(cp, g)
            assert st.edge_dims == (1,) * g.c
            assert tensors_equal(contract_network(st), target)


def test_contract_disconnected_components_outer_product():
    from tnrank.graph import NetworkGraph
    from tnrank.tensor import outer

    g = NetworkGraph(4, ((1, 2, 1), (3, 4, 1)))
    spec = ProblemSpec(g, (2, 3), (2, 2, 2, 2))
    st = random_state(spec, 0)
    whole = contract_network(st)
    left = contract_network(
        TNState(NetworkGraph(2, ((1, 2, 1),)), (2,), (2, 2), st.factors[:2])
    )
    right = contract_network(
        TNState(NetworkGraph(2, ((1, 2, 3),)), (3,), (2, 2), st.factors[2:])
    )
    assert np.allclose(whole.data, outer(left, right).data)


def test_universal_embed_rejects_disconnected():
    from tnrank.graph import NetworkGraph

    cp = CPDecomposition(2, ((exact_tensor([1, 0]), exact_tensor([0, 1])),))
    with pytest.raises(GraphError):
        universal_embed(cp, NetworkGraph(2, ()))


def test_environment_is_linear_coupling():
    # One test id over all graphs; the name of a failing case is in the message.
    k10 = complete_graph(10)
    k10_bonds = tuple(2 if v == u + 1 or (u, v) == (1, 10) else 1 for u, v, _ in k10.edges)
    p30_dims = tuple(2 if v in (1, 15, 30) else 1 for v in range(1, 31))
    cases = [
        ("C3", ProblemSpec(cycle_graph(3), (2, 2, 2), (3, 3, 3)), (1, 2, 3)),
        # Leaving out an interior vertex disconnects the rest.
        ("P4-cut-vertex", ProblemSpec(path_graph(4), (2, 3, 2), (2, 3, 2, 2)), (2, 3)),
        ("star-centre", ProblemSpec(star_graph(4), (2, 3, 2), (3, 2, 2, 2)), (1,)),
        ("K4", ProblemSpec(complete_graph(4), (2, 1, 2, 2, 1, 2), (2, 3, 2, 2)), (1, 2, 3, 4)),
        # 55 and 59 labels: more than the 52 symbols einsum has.
        ("K10", ProblemSpec(k10, k10_bonds, (2,) * 10), tuple(range(1, 11))),
        ("P30", ProblemSpec(path_graph(30), (2,) * 29, p30_dims), tuple(range(1, 31))),
    ]
    for name, spec, vertices in cases:
        st = random_state(spec, 3)
        t = contract_network(st)
        d = spec.graph.d
        for i in vertices:
            env = environment(spec.graph, st.factors, i)
            bonds = tuple(spec.edge_dims[e - 1] for e in spec.graph.incident_edges(i))
            others = [spec.vertex_dims[j - 1] for j in range(1, d + 1) if j != i]
            assert env.shape == tuple(others) + bonds, (name, i)
            a = env.reshape(-1, int(np.prod(bonds)))
            x = st.factors[i - 1].data.reshape(int(np.prod(bonds)), spec.vertex_dims[i - 1])
            rebuilt = (a @ x).reshape(others + [spec.vertex_dims[i - 1]])
            moved = np.moveaxis(t.data, i - 1, -1)
            assert np.linalg.norm(rebuilt - moved) <= 1e-12 * np.linalg.norm(moved), (name, i)


def test_environment_of_a_lone_vertex_is_refused():
    from tnrank.graph import NetworkGraph

    with pytest.raises(GraphError, match="nothing to contract"):
        environment(NetworkGraph(1, ()), [np.ones(3, dtype=complex)], 1)


def test_cp_rank_bounds_tree_rank_componentwise():
    # A rank-r CP realizes the tensor on every tree with all bonds r, so the
    # tree rank can never exceed (r, ..., r).
    from tnrank.graph import all_trees
    from tnrank.tree_rank import ttns_rank

    for fx, d in [(gallery.w_state(3), 3), (gallery.ghz_state(4), 4), (gallery.strassen(2, 2, 2), 3)]:
        r = fx.cp.rank
        for g in all_trees(d):
            assert all(x <= r for x in ttns_rank(fx.tensor, g))


def test_criticality_examples():
    labels, overall = criticality(ProblemSpec(cycle_graph(3), (2, 2, 2), (4, 4, 4)))
    assert overall == "critical" and set(labels.values()) == {"critical"}

    labels, overall = criticality(ProblemSpec(path_graph(3), (2, 2), (2, 4, 2)))
    assert overall == "critical"

    labels, overall = criticality(ProblemSpec(star_graph(4), (2, 2, 2), (16, 2, 2, 2)))
    assert labels[1] == "supercritical"
    assert overall == "supercritical"

    _, overall = criticality(ProblemSpec(path_graph(3), (2, 2), (1, 8, 2)))
    assert overall == "mixed"


def test_reduce_degree_one_p3():
    spec = ProblemSpec(path_graph(3), (2, 3), (2, 4, 5))
    reduced, rec = reduce_degree_one(spec)
    assert rec.removed == 1 and rec.neighbor == 2
    assert reduced.graph.d == 2
    assert reduced.edge_dims == (3,)
    assert reduced.vertex_dims == (8, 5)
    assert rec.vertex_map == {2: 1, 3: 2}
    assert rec.edge_map == {2: 1}


def test_reduce_degree_one_to_single_vertex():
    spec = ProblemSpec(path_graph(2), (3,), (2, 5))
    reduced, rec = reduce_degree_one(spec)
    assert reduced.graph.d == 1
    assert reduced.edge_dims == ()
    assert reduced.vertex_dims == (10,)


def test_reduce_degree_one_requires_eligible_vertex():
    with pytest.raises(GraphError):
        reduce_degree_one(ProblemSpec(cycle_graph(3), (2, 2, 2), (2, 2, 2)))
    # degree-one vertex exists but is supercritical
    with pytest.raises(GraphError):
        reduce_degree_one(ProblemSpec(path_graph(2), (2,), (3, 3)))


def test_remove_unit_edges_c3():
    spec = ProblemSpec(cycle_graph(3), (2, 3, 1), (2, 2, 2))
    reduced, removed = remove_unit_edges(spec)
    assert removed == [3]
    assert reduced.graph.edges == ((1, 2, 1), (2, 3, 1))
    assert reduced.edge_dims == (2, 3)


def test_remove_unit_edges_cd():
    d = 6
    spec = ProblemSpec(cycle_graph(d), (2, 2, 2, 2, 2, 1), (2,) * d)
    reduced, removed = remove_unit_edges(spec)
    assert removed == [6]
    assert reduced.graph.c == d - 1


def test_remove_unit_edges_rejects_isolation():
    with pytest.raises(GraphError):
        remove_unit_edges(ProblemSpec(path_graph(2), (1,), (2, 2)))
