"""Alternating least squares fitting of network states on arbitrary graphs.

For cyclic graphs no flattening certificate exists, so membership is probed
numerically: fit the best state of a given shape and inspect the residual.
The border probe drives the fit at decreasing residual targets and records
the growth of factor entries, the signature of a tensor that lies in the
closure of the state set but not in the set itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .network import ProblemSpec, TNState, contract_network, environment
from .scalars import FLOAT
from .tensor import Tensor

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitOptions:
    max_iters: int = 500
    restarts: int = 10
    seed: int = 0
    convergence_tol: float = 1e-12  # on the change of the relative residual
    ridge: float = 0.0  # applied only when an environment is rank-deficient

    def __post_init__(self):
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")
        if self.convergence_tol < 0 or self.ridge < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    best_state: TNState
    relative_residual: float
    residual_history: tuple[tuple[float, ...], ...]  # one series per restart
    max_factor_magnitude: float
    best_restart: int
    ridge_events: int = 0


def als_fit(t: Tensor, spec: ProblemSpec, opts: FitOptions = FitOptions()) -> FitResult:
    """Fit ``t`` by a state of the given shape, best over seeded restarts.

    Each sweep solves the exact linear least-squares problem for one factor
    against the environment of the others, so the residual is monotonically
    nonincreasing within a restart.  Fully determined by ``opts.seed``.
    """
    if t.mode != FLOAT:
        raise ValueError("als_fit works in float mode; convert the target first")
    if t.dims != spec.vertex_dims:
        raise ValueError(f"target dims {t.dims} do not match spec {spec.vertex_dims}")
    if not spec.graph.is_connected():
        raise ValueError("als_fit requires a connected graph")

    g = spec.graph
    d = g.d
    target = t.data
    norm_t = float(np.linalg.norm(target.reshape(-1)))
    if norm_t == 0.0:
        raise ValueError("cannot fit the zero tensor (relative residual undefined)")

    best = None
    histories = []
    total_ridge = 0
    for restart in range(opts.restarts):
        factors, history, ridge_events = _run_restart(target, norm_t, spec, opts, restart)
        histories.append(tuple(history))
        total_ridge += ridge_events
        res = history[-1]
        if best is None or res < best[0]:
            best = (res, restart, factors)

    res, restart, factors = best
    state = TNState(g, spec.edge_dims, spec.vertex_dims, tuple(Tensor(f, FLOAT) for f in factors))
    mag = max(float(np.max(np.abs(f))) for f in factors)
    return FitResult(
        best_state=state,
        relative_residual=res,
        residual_history=tuple(histories),
        max_factor_magnitude=mag,
        best_restart=restart,
        ridge_events=total_ridge,
    )


def _run_restart(target, norm_t, spec: ProblemSpec, opts: FitOptions, restart: int):
    g = spec.graph
    d = g.d
    rng = np.random.default_rng([opts.seed, restart])
    factors = []
    for i in range(1, d + 1):
        shape = spec.factor_shape(i)
        factors.append(
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        )
    _scale_to_unit_contraction(factors, spec)

    # Unfoldings of the target: rows are the other physical modes ascending,
    # columns the updated vertex's mode.
    unfolds = []
    for i in range(d):
        moved = np.moveaxis(target, i, -1)
        unfolds.append(moved.reshape(-1, target.shape[i]))

    history = []
    ridge_events = 0
    prev = None
    for _ in range(opts.max_iters):
        res = None
        for i in range(1, d + 1):
            env = environment(g, factors, i)
            bonds = tuple(spec.edge_dims[e - 1] for e in g.incident_edges(i))
            r_i = int(np.prod(bonds, dtype=np.int64))
            a = env.reshape(-1, r_i)
            m = unfolds[i - 1]
            x, _, rank, _ = np.linalg.lstsq(a, m, rcond=None)
            if rank < r_i and opts.ridge > 0.0:
                ridge_events += 1
                logger.info(
                    "environment at vertex %d rank-deficient (%d < %d); applying ridge %g",
                    i, rank, r_i, opts.ridge,
                )
                gram = a.conj().T @ a + opts.ridge * np.eye(r_i)
                x = np.linalg.solve(gram, a.conj().T @ m)
            factors[i - 1] = x.reshape(bonds + (target.shape[i - 1],))
            res = float(np.linalg.norm(a @ x - m) / norm_t)
        history.append(res)
        if prev is not None and abs(prev - res) < opts.convergence_tol:
            break
        prev = res
    return factors, history, ridge_events


def _scale_to_unit_contraction(factors, spec: ProblemSpec):
    state = TNState(
        spec.graph,
        spec.edge_dims,
        spec.vertex_dims,
        tuple(Tensor(f, FLOAT) for f in factors),
    )
    norm = float(np.linalg.norm(contract_network(state).data.reshape(-1)))
    if norm == 0.0:
        return
    s = norm ** (-1.0 / len(factors))
    for k in range(len(factors)):
        factors[k] = factors[k] * s


@dataclass(frozen=True)
class ProbeStep:
    target: float
    achieved: float
    max_factor_magnitude: float
    max_iters_used: int
    met: bool


@dataclass(frozen=True)
class ProbeReport:
    steps: tuple[ProbeStep, ...]
    magnitudes_increasing: bool


def border_probe(
    t: Tensor,
    spec: ProblemSpec,
    targets,
    opts: FitOptions = FitOptions(max_iters=1),
    max_escalations: int = 12,
) -> ProbeReport:
    """Chase decreasing residual targets with escalating iteration budgets.

    Starting from ``opts.max_iters``, the fit is rerun with the budget
    doubled until each target is met or the escalation cap is reached; the
    achieved residual and the largest factor entry are recorded at each
    target.  Budgets carry over between targets (the best-of-restarts
    residual is nonincreasing in the budget, so the minimal power-of-two
    budget for a tighter target is never smaller).
    """
    steps = []
    iters = opts.max_iters
    escalations_left = max_escalations
    result = None
    for target in targets:
        while True:
            result = als_fit(t, spec, replace(opts, max_iters=iters))
            if result.relative_residual <= target or escalations_left == 0:
                break
            iters *= 2
            escalations_left -= 1
        steps.append(
            ProbeStep(
                target=float(target),
                achieved=result.relative_residual,
                max_factor_magnitude=result.max_factor_magnitude,
                max_iters_used=iters,
                met=result.relative_residual <= target,
            )
        )
    mags = [s.max_factor_magnitude for s in steps]
    return ProbeReport(tuple(steps), magnitudes_increasing=mags[-1] > mags[0])
