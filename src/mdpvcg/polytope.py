"""Occupancy-measure polytopes and LP maximization over them.

Variants (all include mass, flow and nonnegativity):
  EXACT_KERNEL      consistent with a fixed kernel P: the LP runs over
                    rho(s,a) alone, with sum_a rho(s',a) = sum_{s,a} P(s'|s,a) rho(s,a)
                    (the dual LP of an average-reward MDP); q = rho * P afterwards
  SHRUNK_EXACT      EXACT_KERNEL with every rho(s,a) at least delta
  SHRUNK_CONFIDENCE every rho(s,a) at least delta, with q(s,a,s') columns for the
                    unknown kernel inside a two-sided band
                    lower(s,a,s')*rho(s,a) <= q(s,a,s') <= upper(s,a,s')*rho(s,a),
                    sum_x q(s,a,x) = rho(s,a) and flow balanced in q

The shrink floor delta is a lower bound on the rho columns, not a row.

The band implements an intersection of per-episode confidence sets: callers
keep, per entry, the running max lower bound and min upper bound (see
``tighten_band``), so the LP stays constant-size across episodes.

Each spec holds one HiGHS model, built from its constraint rows on its first
solve. A solve only writes the rho costs and reruns the model: the first is a
cold dual-simplex solve (what ``scipy.optimize.linprog(method="highs-ds")``
does), every later one a primal-simplex solve from the previous optimal
basis, which a change of costs leaves primal feasible. Spec arrays must not
be mutated after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse

try:  # the HiGHS bindings that scipy ships; highspy is not a dependency
    from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus,
                                               MatrixFormat, _Highs)
except ImportError as e:
    raise ImportError("mdpvcg needs scipy>=1.15 for its HiGHS bindings "
                      "(scipy.optimize._highspy._core)") from e

from .occupancy import OccupancyMeasure
from .tolerances import TOL

logger = logging.getLogger(__name__)

VARIANTS = ("EXACT_KERNEL", "SHRUNK_EXACT", "SHRUNK_CONFIDENCE")

# HiGHS dual simplex: deterministic and vertex-exact at these sizes
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# the options linprog(method="highs-ds", options=_LP_OPTIONS) passes to HiGHS;
# simplex_strategy 1 is dual simplex, 4 primal simplex (for the warm solves)
_HIGHS_OPTIONS = {**_LP_OPTIONS, "presolve": "on", "solver": "simplex",
                  "simplex_strategy": 1, "output_flag": False}
_PRIMAL_SIMPLEX = 4


@dataclass(frozen=True)
class PolytopeSpec:
    variant: str
    S: int
    A: int
    kernel: Optional[np.ndarray] = None
    delta: Optional[float] = None
    band_lower: Optional[np.ndarray] = None
    band_upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.S < 1 or self.A < 1:
            raise ValueError(f"bad dims S={self.S}, A={self.A}")
        shape = (self.S, self.A, self.S)
        if self.variant in ("EXACT_KERNEL", "SHRUNK_EXACT"):
            if self.kernel is None or self.kernel.shape != shape:
                raise ValueError(f"variant {self.variant} needs a kernel of shape {shape}")
            # q = rho * P is an occupancy measure only for a stochastic kernel
            if self.kernel.min() < 0 or np.abs(self.kernel.sum(axis=2) - 1.0).max() > TOL.mass:
                raise ValueError("kernel rows must be probability distributions")
        if self.variant.startswith("SHRUNK"):
            if self.delta is None or not 0 < self.delta <= 1.0 / (self.S * self.A):
                raise ValueError(
                    f"delta must lie in (0, 1/(S*A)]; got {self.delta}"
                )
        if self.variant == "SHRUNK_CONFIDENCE":
            if self.band_lower is None or self.band_upper is None:
                raise ValueError("SHRUNK_CONFIDENCE needs band_lower and band_upper")
            if self.band_lower.shape != shape or self.band_upper.shape != shape:
                raise ValueError(f"band arrays must have shape {shape}")
            if self.band_lower.min() < 0 or self.band_upper.max() > 1 + TOL.row_sum:
                raise ValueError("band must be clipped to [0, 1]")

    @cached_property
    def _model(self) -> _Highs:
        return highs_model(build_constraints(self))


def tighten_band(prior, p_bar, radii):
    """Intersect a prior [lower, upper] kernel band with p_bar +/- radii."""
    if np.any(radii < 0):
        raise ValueError("radii must be nonnegative")
    if prior is None:
        lo = np.zeros_like(p_bar)
        hi = np.ones_like(p_bar)
    else:
        lo, hi = prior
    lower = np.clip(np.maximum(lo, p_bar - radii), 0.0, 1.0)
    upper = np.clip(np.minimum(hi, p_bar + radii), 0.0, 1.0)
    return lower, upper


@dataclass
class ConstraintSystem:
    """CSR rows over the flat columns rho[s, a], followed for
    SHRUNK_CONFIDENCE by q[s, a, s']. ``bounds`` is (columns, 2): delta
    (or 0) below rho, 0 below q, no upper bounds."""

    A_eq: sparse.csr_array
    b_eq: np.ndarray
    A_ub: sparse.csr_array
    b_ub: np.ndarray
    bounds: np.ndarray


def _coo(rows, cols, values):
    """One COO piece: the three arguments broadcast together, raveled in C order."""
    return tuple(part.ravel() for part in np.broadcast_arrays(rows, cols, values))


def _stack_rows(shape, entries: list) -> sparse.csr_array:
    """CSR rows from COO pieces given in row order, without exact zeros
    (equal to ``sparse.csr_array`` of the dense rows)."""
    if not entries:
        return sparse.csr_array(shape)
    rows, cols, values = (np.concatenate(part) for part in zip(*entries))
    keep = values != 0
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=shape[0]), out=indptr[1:])
    return sparse.csr_array((values[keep], cols[keep], indptr), shape=shape)


def build_constraints(spec: PolytopeSpec) -> ConstraintSystem:
    """Emit the linear rows selecting the requested polytope.

    Known kernel: S*A columns rho; equalities mass and one flow row per
    state, sum_a rho(s', a) - sum_{s,a} P(s'|s,a) rho(s,a) = 0.
    Band: the S*A rho columns, then S^2*A columns q; equalities mass (over
    rho), flow per state (sum_{s,a} q(s,a,s') - sum_a rho(s',a) = 0) and a
    link row per (s, a) (sum_x q(s,a,x) - rho(s,a) = 0); inequalities an
    upper and a lower band row per (s, a, s'), interleaved. The shrink
    floor delta is a lower bound on the rho columns.
    """
    S, A = spec.S, spec.A
    SA = S * A
    confidence = spec.variant == "SHRUNK_CONFIDENCE"
    nv = SA + (SA * S if confidence else 0)

    if confidence:
        pair = np.arange(SA)
        q_col = (SA + pair * S)[:, None] + np.arange(S)  # (S*A, S): column of q(s, a, x)
        eq = [_coo(0, pair, 1.0),  # mass
              # flow into s': A rho columns (-1), then q(., ., s') (+1)
              _coo(1 + np.arange(S)[:, None],
                   np.hstack([pair.reshape(S, A), q_col.T]),
                   np.repeat([-1.0, 1.0], [A, SA])),
              _coo(1 + S + pair[:, None],  # link
                   np.hstack([pair[:, None], q_col]),
                   np.repeat([-1.0, 1.0], [1, S]))]
        # q - upper*rho <= 0 and lower*rho - q <= 0, per (s, a, x)
        band = np.empty((SA, S, 2, 2))
        band[:, :, 0, 0] = -spec.band_upper.reshape(SA, S)
        band[:, :, 0, 1] = 1.0
        band[:, :, 1, 0] = spec.band_lower.reshape(SA, S)
        band[:, :, 1, 1] = -1.0
        cols = np.empty((SA, S, 1, 2), dtype=np.int64)
        cols[..., 0] = pair[:, None, None]
        cols[..., 1] = q_col[:, :, None]
        ub = [_coo(np.arange(2 * SA * S).reshape(SA, S, 2, 1), cols, band)]
        n_eq, n_ub = 1 + S + SA, 2 * SA * S
    else:
        head = np.zeros((1 + S, SA))
        head[0] = 1.0  # mass
        head[1:] = -spec.kernel.reshape(SA, S).T
        head[1:].reshape(S, S, A)[np.arange(S), np.arange(S)] += 1.0
        eq, ub = [(*np.nonzero(head), head[head != 0])], []
        n_eq, n_ub = 1 + S, 0

    b_eq = np.zeros(n_eq)
    b_eq[0] = 1.0
    bounds = np.zeros((nv, 2))
    bounds[:, 1] = np.inf
    if spec.variant.startswith("SHRUNK"):
        bounds[:SA, 0] = spec.delta
    return ConstraintSystem(A_eq=_stack_rows((n_eq, nv), eq), b_eq=b_eq,
                            A_ub=_stack_rows((n_ub, nv), ub),
                            b_ub=np.zeros(n_ub), bounds=bounds)


def highs_model(system: ConstraintSystem) -> _Highs:
    """A HiGHS model of the rows, A_ub then A_eq as CSC (linprog's order),
    with zero costs and linprog's dual-simplex options."""
    A = sparse.vstack((system.A_ub, system.A_eq), format="csc")
    lp = HighsLp()
    lp.num_row_, lp.num_col_ = A.shape
    lp.col_cost_ = np.zeros(A.shape[1])
    lp.col_lower_, lp.col_upper_ = system.bounds.T.copy()
    lp.row_lower_ = np.concatenate((np.full(len(system.b_ub), -np.inf), system.b_eq))
    lp.row_upper_ = np.concatenate((system.b_ub, system.b_eq))
    matrix = lp.a_matrix_
    matrix.num_row_, matrix.num_col_ = A.shape
    matrix.format_ = MatrixFormat.kColwise
    matrix.start_, matrix.index_, matrix.value_ = A.indptr, A.indices, A.data
    model = _Highs()
    for key, value in _HIGHS_OPTIONS.items():
        model.setOptionValue(key, value)
    if model.passModel(lp) == HighsStatus.kError:
        raise RuntimeError("HiGHS refused the constraint rows")
    return model


def _run(model: _Highs) -> HighsModelStatus:
    model.run()
    return model.getModelStatus()


@dataclass(frozen=True)
class LpSolution:
    q: Optional[OccupancyMeasure]
    objective_value: float
    status: str  # "optimal" | "infeasible"
    nit: int  # HiGHS simplex iterations of this solve


def maximize(objective: np.ndarray, spec: PolytopeSpec) -> LpSolution:
    """Maximize <rho, r> over the polytope; r is a per-(s,a) table."""
    objective = np.asarray(objective, dtype=np.float64)
    S, A = spec.S, spec.A
    if objective.shape != (S, A):
        raise ValueError(f"objective must be (S, A) = {(S, A)}")
    if not np.all(np.isfinite(objective)):
        raise ValueError("objective must be finite")
    model = spec._model
    model.changeColsCost(S * A, np.arange(S * A, dtype=np.int32), -objective.ravel())
    status = _run(model)
    # later solves on this spec start from the basis just found
    model.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
    info = model.getInfo()
    if status == HighsModelStatus.kInfeasible:
        return LpSolution(q=None, objective_value=float("nan"), status="infeasible",
                          nit=info.simplex_iteration_count)
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failed (status {status.value}): "
                           f"{model.modelStatusToString(status)}")
    x = np.asarray(model.getSolution().col_value)
    if spec.variant == "SHRUNK_CONFIDENCE":
        q = x[S * A:].reshape(S, A, S)
    else:
        q = x[:S * A].reshape(S, A, 1) * spec.kernel
    return LpSolution(
        q=OccupancyMeasure(q),
        objective_value=float(-info.objective_function_value),
        status="optimal",
        nit=info.simplex_iteration_count,
    )


def calibrate_delta(model_or_kernel, objective: np.ndarray, epsilon: float,
                    delta_min: float = 1e-6) -> float:
    """Largest halving-grid delta whose shrunk optimum stays within epsilon.

    Grid: 1/(2SA), 1/(4SA), ... down to ``delta_min``. Each candidate is
    verified by comparing the shrunk-polytope LP optimum against the full
    kernel-polytope optimum.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    kernel = getattr(model_or_kernel, "kernel", model_or_kernel)
    S, A = kernel.shape[0], kernel.shape[1]
    base = maximize(objective, PolytopeSpec("EXACT_KERNEL", S, A, kernel=kernel))
    grid = []
    d = 1.0 / (2 * S * A)
    while d > delta_min:
        grid.append(d)
        d /= 2
    grid.append(delta_min)
    for d in grid:
        sol = maximize(
            objective, PolytopeSpec("SHRUNK_EXACT", S, A, kernel=kernel, delta=d)
        )
        if sol.status == "optimal" and sol.objective_value >= base.objective_value - epsilon:
            return d
    logger.warning(
        "delta floor %.1e still violates the %.3g gap; returning the floor",
        delta_min, epsilon,
    )
    return delta_min
