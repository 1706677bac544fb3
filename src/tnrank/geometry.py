"""Dimension formulas for train/ring varieties and a Jacobian-rank oracle.

The closed-form dimension counts hold for critical or supercritical specs.
The Jacobian estimator differentiates the multilinear parametrization at
random points (no finite differences: the map is exactly multilinear in
each factor) and reports the numerical rank, which equals the dimension of
the image variety at a generic point.

The train formula circulates with an ambiguous index; both readings are
implemented (``variant="printed"`` with the d-j-1 index as displayed,
``variant="alt"`` with d-j+1) so the oracle can adjudicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import classify
from .network import ProblemSpec, criticality, environment, random_state


def _require_critical_or_super(spec: ProblemSpec, what: str):
    _, overall = criticality(spec)
    if overall not in ("critical", "supercritical"):
        raise ValueError(
            f"{what} holds only for critical or supercritical specs; this one is {overall}"
        )


def dim_tt_formula(r, n, variant: str = "printed", check: bool = True) -> int:
    """Dimension of the train variety for a critical/supercritical spec.

    ``r`` has length d-1, ``n`` length d; boundary bond dimensions are one.
    ``check=False`` evaluates the closed form outside its asserted range
    (where it may or may not be meaningful).
    """
    r = tuple(int(x) for x in r)
    n = tuple(int(x) for x in n)
    d = len(n)
    if len(r) != d - 1:
        raise ValueError("need one bond dimension per path edge")
    from .graph import path_graph

    if check:
        _require_critical_or_super(
            ProblemSpec(path_graph(d), r, n), "the train dimension formula"
        )

    rr = (1,) + r + (1,)  # rr[i] = r_i with r_0 = r_d = 1
    if d % 2 == 0:
        mid = rr[d // 2]
    else:
        mid = rr[(d - 1) // 2] * rr[(d + 1) // 2]
    total = mid * mid
    for i in range(1, d + 1):
        m = rr[i - 1] * rr[i]
        total += m * (n[i - 1] - m)
    for j in range(1, d // 2):
        total += rr[j + 1] ** 2 * (rr[j] ** 2 - 1)
        k = d - j - 1 if variant == "printed" else d - j + 1
        total += rr[k] ** 2 * (rr[d - j] ** 2 - 1)
    return total


def dim_mps_formula(r, n) -> int:
    """Dimension of the ring variety for a critical/supercritical spec."""
    r = tuple(int(x) for x in r)
    n = tuple(int(x) for x in n)
    d = len(n)
    if len(r) != d or d < 3:
        raise ValueError("need one bond dimension per cycle edge, d >= 3")
    from .graph import cycle_graph

    # Cycle edge ids run 1..d-1 along the path and edge d closes {1,d}; the
    # formula's consecutive products match incident pairs per vertex.
    spec = ProblemSpec(cycle_graph(d), r, n)
    _require_critical_or_super(spec, "the ring dimension formula")
    total = 1 - sum(x * x for x in r)
    for i in range(1, d + 1):
        m = 1
        for e in spec.graph.incident_edges(i):
            m *= r[e - 1]
        total += m * n[i - 1]
    return total


# ---------------------------------------------------------------------------
# Jacobian oracle
# ---------------------------------------------------------------------------


def _jacobian_matrix(spec: ProblemSpec, seed: int) -> np.ndarray:
    state = random_state(spec, seed)
    g = spec.graph
    d = g.d
    n = spec.vertex_dims
    ambient = int(np.prod(n, dtype=np.int64))
    blocks = []
    for i in range(1, d + 1):
        env = environment(g, state.factors, i)
        bonds = tuple(spec.edge_dims[e - 1] for e in g.incident_edges(i))
        ni = n[i - 1]
        block = np.multiply.outer(env, np.eye(ni, dtype=np.complex128))
        # env axes: phys (others, ascending) then bonds; outer added (x_i, k).
        rest = [j for j in range(1, d + 1) if j != i]
        nb = len(bonds)
        x_axis = (d - 1) + nb
        k_axis = x_axis + 1
        row_axes = []
        for j in range(1, d + 1):
            row_axes.append(x_axis if j == i else rest.index(j))
        col_axes = list(range(d - 1, d - 1 + nb)) + [k_axis]
        block = np.transpose(block, row_axes + col_axes)
        blocks.append(block.reshape(ambient, int(np.prod(bonds, dtype=np.int64)) * ni))
    return np.concatenate(blocks, axis=1)


@dataclass(frozen=True)
class JacobianProbe:
    seed: int
    rank: int
    gap: float  # sigma_rank / sigma_rank+1 (inf when full)


def jacobian_probes(spec: ProblemSpec, seeds, tol: float = 1e-8):
    probes = []
    for seed in seeds:
        jac = _jacobian_matrix(spec, seed)
        s = np.linalg.svd(jac, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            probes.append(JacobianProbe(seed, 0, float("inf")))
            continue
        rank = int(np.sum(s > tol * s[0]))
        gap = float(s[rank - 1] / s[rank]) if 0 < rank < s.size and s[rank] > 0 else float("inf")
        probes.append(JacobianProbe(seed, rank, gap))
    return probes


def jacobian_dimension(spec: ProblemSpec, seeds, tol: float = 1e-8) -> int:
    """Numerical dimension of the state set: max Jacobian rank over seeds."""
    return max(p.rank for p in jacobian_probes(spec, seeds, tol))


@dataclass(frozen=True)
class DimReport:
    spec: ProblemSpec
    formula_value: int | None  # None when no formula applies
    jacobian_estimate: int
    seeds_used: tuple[int, ...]
    agreement: bool
    alt_values: dict = field(default_factory=dict)
    gap: float = float("inf")


def dim_report(spec: ProblemSpec, seeds=(0, 1, 2), tol: float = 1e-8) -> DimReport:
    """Formula value (when applicable) against the Jacobian estimate."""
    kind = classify(spec.graph)
    formula = None
    alt: dict[str, int] = {}
    _, overall = criticality(spec)
    if overall in ("critical", "supercritical"):
        if kind == "path":
            formula = dim_tt_formula(spec.edge_dims, spec.vertex_dims, "printed")
            alt_val = dim_tt_formula(spec.edge_dims, spec.vertex_dims, "alt")
            if alt_val != formula:
                alt["tt_alt_index_reading"] = alt_val
        elif kind == "cycle":
            formula = dim_mps_formula(spec.edge_dims, spec.vertex_dims)
            # The parameter-count display for the (C_3; n,n,n; n^2,n^2,n^2)
            # family states one less; surface it so the oracle's verdict on
            # the off-by-one is recorded.
            r = spec.edge_dims
            if (
                spec.graph.d == 3
                and len(set(r)) == 1
                and all(x == r[0] * r[0] for x in spec.vertex_dims)
            ):
                alt["mps_minus_one"] = formula - 1
    probes = jacobian_probes(spec, seeds, tol)
    est = max(p.rank for p in probes)
    return DimReport(
        spec=spec,
        formula_value=formula,
        jacobian_estimate=est,
        seeds_used=tuple(seeds),
        agreement=(formula == est) if formula is not None else False,
        alt_values=alt,
        gap=min(p.gap for p in probes),
    )


# ---------------------------------------------------------------------------
# parameter-count comparison for matrix multiplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterReport:
    n: int
    ring_dim: int  # cycle decomposition of the n x n product tensor
    train_dim: int
    subspace_dim: int
    cp_rank_lower_bound: float
    secant_dim_lower_bound: float
    ring_needs_fewest: bool


def parameter_report(n: int) -> ParameterReport:
    """Parameter counts for decomposing the n x n matrix product tensor.

    Evaluates the displayed closed forms: the cycle decomposition needs
    3n^4 - 3n^2 parameters, the train and subspace decompositions n^6, and
    the CP route at least the secant lower bound (vacuous for small n, where
    the asymptotic comparison has not kicked in yet).
    """
    if not 2 <= n <= 3:
        raise ValueError("parameter_report is tabulated for n in {2, 3}")
    ring = 3 * n**4 - 3 * n**2
    train = n**6
    sub = n**6
    r_lb = 3 * n**2 - 2 * math.sqrt(2) * n**1.5 - 3 * n
    sigma_lb = (
        9 * n**4
        - 6 * math.sqrt(2) * n**3.5
        - 9 * n**3
        - 6 * n**2
        + 4 * math.sqrt(2) * n**1.5
        + 6 * n
        - 1
    )
    return ParameterReport(
        n=n,
        ring_dim=ring,
        train_dim=train,
        subspace_dim=sub,
        cp_rank_lower_bound=r_lb,
        secant_dim_lower_bound=sigma_lb,
        ring_needs_fewest=ring < min(train, sub),
    )
