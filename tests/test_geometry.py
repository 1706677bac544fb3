import numpy as np
import pytest

from tnrank.geometry import (
    dim_mps_formula,
    dim_report,
    dim_tt_formula,
    jacobian_dimension,
    jacobian_probes,
    parameter_report,
)
from tnrank.graph import cycle_graph, path_graph
from tnrank.network import ProblemSpec


def test_tt_formula_matrix_case():
    for r, m, n in [(1, 2, 2), (2, 3, 3), (3, 4, 5)]:
        assert dim_tt_formula((r,), (m, n)) == r * (m + n - r)


def test_tt_formula_known_values():
    assert dim_tt_formula((2, 2), (2, 4, 2)) == 16
    # the full-space family evaluates to the ambient dimension outside the
    # asserted (critical/supercritical) range
    assert dim_tt_formula((4, 4), (4, 4, 4), check=False) == 64
    with pytest.raises(ValueError):
        dim_tt_formula((4, 4), (4, 4, 4))


def test_tt_formula_index_readings_differ():
    r, n = (1, 2, 2), (2, 2, 4, 2)
    assert dim_tt_formula(r, n, "printed") == 17
    assert dim_tt_formula(r, n, "alt") == 8
    assert jacobian_dimension(ProblemSpec(path_graph(4), r, n), (0, 1, 2)) == 17


def test_tt_formula_is_mirror_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        r = tuple(int(rng.integers(1, 3)) for _ in range(d - 1))
        rr = (1,) + r + (1,)
        n = tuple(rr[i - 1] * rr[i] + int(rng.integers(0, 3)) for i in range(1, d + 1))
        fwd = dim_tt_formula(r, n)
        rev = dim_tt_formula(r[::-1], n[::-1])
        assert fwd == rev


def test_mps_formula_values():
    assert dim_mps_formula((2, 2, 2), (4, 4, 4)) == 37
    assert dim_mps_formula((1, 1, 1), (1, 1, 1)) == 1
    with pytest.raises(ValueError):
        dim_mps_formula((2, 2, 2), (2, 2, 2))  # subcritical


def test_jacobian_matrix_variety_dimensions():
    assert jacobian_dimension(ProblemSpec(path_graph(2), (1,), (2, 2)), (0, 1, 2)) == 3
    assert jacobian_dimension(ProblemSpec(path_graph(2), (2,), (3, 3)), (0, 1, 2)) == 8


def test_jacobian_full_ambient_case():
    assert jacobian_dimension(ProblemSpec(path_graph(3), (2, 2), (2, 4, 2)), (0, 1, 2)) == 16


def test_jacobian_seed_stability_and_bounds():
    spec = ProblemSpec(cycle_graph(3), (2, 2, 2), (3, 3, 3))
    probes = jacobian_probes(spec, range(4))
    ranks = {p.rank for p in probes}
    assert len(ranks) == 1
    est = ranks.pop()
    assert est <= min(27, spec.parameter_count())


def test_jacobian_monotone_in_edge_dims():
    base = ProblemSpec(cycle_graph(3), (1, 2, 2), (3, 3, 3))
    bigger = ProblemSpec(cycle_graph(3), (2, 2, 2), (3, 3, 3))
    seeds = (0, 1, 2)
    assert jacobian_dimension(base, seeds) <= jacobian_dimension(bigger, seeds)


def test_mps_conflict_resolution():
    spec = ProblemSpec(cycle_graph(3), (2, 2, 2), (4, 4, 4))
    rep = dim_report(spec, seeds=(0, 1, 2, 3, 4))
    assert rep.jacobian_estimate in (36, 37)
    assert rep.formula_value == 37
    assert rep.alt_values["mps_minus_one"] == 36
    # the oracle sides with the ring dimension theorem
    assert rep.agreement


def test_parameter_report_values():
    rep = parameter_report(2)
    assert (rep.ring_dim, rep.train_dim, rep.subspace_dim) == (36, 64, 64)
    assert rep.ring_needs_fewest
    assert abs(rep.secant_dim_lower_bound - (-21.0)) < 1e-9
    rep3 = parameter_report(3)
    assert (rep3.ring_dim, rep3.train_dim, rep3.subspace_dim) == (216, 729, 729)
    with pytest.raises(ValueError):
        parameter_report(4)
