"""Occupancy-measure polytopes and LP maximization over them.

Variants (all include mass, flow and nonnegativity):
  EXACT_KERNEL      consistent with a fixed kernel P: q(s,a,s') = P(s'|s,a) m(s,a),
                    where m(s,a) = sum_x q(s,a,x)
  SHRUNK_EXACT      EXACT_KERNEL with every state-action mass at least delta
  SHRUNK_CONFIDENCE every state-action mass at least delta, inside a two-sided
                    kernel band lower(s,a,s')*m(s,a) <= q(s,a,s') <= upper(s,a,s')*m(s,a)

The band implements an intersection of per-episode confidence sets: callers
keep, per entry, the running max lower bound and min upper bound (see
``tighten_band``), so the LP stays constant-size across episodes.

A spec's constraint rows are built once, on its first solve, and reused by
every later ``maximize`` over the same spec; spec arrays must not be mutated
after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .occupancy import OccupancyMeasure
from .tolerances import TOL

logger = logging.getLogger(__name__)

VARIANTS = ("EXACT_KERNEL", "SHRUNK_EXACT", "SHRUNK_CONFIDENCE")

# HiGHS dual simplex: deterministic and vertex-exact at these sizes
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# Rows with more entries than this go to linprog as scipy.sparse (same
# nonzeros, bit-identical solutions). Below it dense input is faster; above
# it sparse input is faster and skips linprog's two dense copies of the rows,
# whose placement on the malloc heap made peak memory differ from run to run.
_SPARSE_ABOVE = 250_000


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
    def _constraints(self) -> ConstraintSystem:
        return build_constraints(self)


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
    """Dense rows for linprog over the flattened q[s, a, s'] (nonnegativity as bounds)."""

    A_eq: np.ndarray
    b_eq: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray

    def max_violation(self, x: np.ndarray) -> float:
        """Largest constraint violation of a flat point (bounds included)."""
        v = 0.0
        if len(self.b_eq):
            v = max(v, float(np.abs(self.A_eq @ x - self.b_eq).max()))
        if len(self.b_ub):
            v = max(v, float(np.maximum(self.A_ub @ x - self.b_ub, 0.0).max()))
        v = max(v, float(np.maximum(-x, 0.0).max()))
        return v


def _pair_rows(rows: np.ndarray, blocks: np.ndarray) -> None:
    """Write blocks[p, j] into row j of pair p, in pair p's S columns.

    ``rows`` is a zeroed (S*A*k, S*A*S) slice; ``blocks`` is (S*A, k, S).
    """
    n_pairs, k, S = blocks.shape
    p = np.arange(n_pairs)
    rows.reshape(n_pairs, k, n_pairs, S)[p, :, p] = blocks


def build_constraints(spec: PolytopeSpec) -> ConstraintSystem:
    """Emit the linear rows selecting the requested polytope over AS^2 variables.

    Equalities: mass, flow (one row per state), then for a fixed kernel one
    row per (s, a, s'). Inequalities: shrink (one row per (s, a)), then for
    the band an upper and a lower row per (s, a, s'), interleaved.
    """
    S, A = spec.S, spec.A
    SA, nv = S * A, S * A * S
    eye = np.eye(S)
    has_kernel = spec.variant != "SHRUNK_CONFIDENCE"
    shrunk = spec.variant != "EXACT_KERNEL"

    A_eq = np.zeros((1 + S + (nv if has_kernel else 0), nv))
    b_eq = np.zeros(len(A_eq))
    A_eq[0] = b_eq[0] = 1.0  # mass
    # flow conservation: inflow to s equals outflow from s
    flow = A_eq[1:1 + S].reshape(S, S, A, S)
    flow += eye[:, None, None, :]
    flow -= eye[:, :, None, None]
    if has_kernel:  # q(s,a,x) - P(x|s,a) m(s,a) = 0
        _pair_rows(A_eq[1 + S:], eye - spec.kernel.reshape(SA, S, 1))

    n_shrink = SA if shrunk else 0
    A_ub = np.zeros((n_shrink + (0 if has_kernel else 2 * nv), nv))
    b_ub = np.zeros(len(A_ub))
    if shrunk:  # -m(s,a) <= -delta
        _pair_rows(A_ub[:SA], np.full((SA, 1, S), -1.0))
        b_ub[:SA] = -spec.delta
    if not has_kernel:  # q - upper*m <= 0 and lower*m - q <= 0
        # negate, then add the diagonal (not eye - upper): zero entries keep
        # the sign they have in the row-by-row construction
        band = np.empty((SA, S, 2, S))
        band[:, :, 0] = -spec.band_upper.reshape(SA, S, 1)
        band[:, :, 1] = spec.band_lower.reshape(SA, S, 1)
        x = np.arange(S)
        band[:, x, 0, x] += 1.0
        band[:, x, 1, x] -= 1.0
        _pair_rows(A_ub[n_shrink:], band.reshape(SA, 2 * S, S))

    return ConstraintSystem(A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub)


@dataclass(frozen=True)
class LpSolution:
    q: Optional[OccupancyMeasure]
    objective_value: float
    status: str  # "optimal" | "infeasible"


def maximize(objective: np.ndarray, spec: PolytopeSpec) -> LpSolution:
    """Maximize <q, r> over the polytope; r is a per-(s,a) table."""
    objective = np.asarray(objective, dtype=np.float64)
    if objective.shape != (spec.S, spec.A):
        raise ValueError(f"objective must be (S, A) = {(spec.S, spec.A)}")
    if not np.all(np.isfinite(objective)):
        raise ValueError("objective must be finite")
    system = spec._constraints
    A_ub, A_eq = system.A_ub, system.A_eq
    if A_ub.size + A_eq.size > _SPARSE_ABOVE:
        A_ub, A_eq = sparse.csr_array(A_ub), sparse.csr_array(A_eq)
    c = np.repeat(objective[:, :, None], spec.S, axis=2).ravel()
    res = linprog(
        -c,
        A_ub=A_ub if len(system.b_ub) else None,
        b_ub=system.b_ub if len(system.b_ub) else None,
        A_eq=A_eq,
        b_eq=system.b_eq,
        bounds=(0, None),
        method="highs-ds",
        options=_LP_OPTIONS,
    )
    if res.status == 2:
        return LpSolution(q=None, objective_value=float("nan"), status="infeasible")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
    q = res.x.reshape(spec.S, spec.A, spec.S)
    return LpSolution(
        q=OccupancyMeasure(q),
        objective_value=float(-res.fun),
        status="optimal",
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
